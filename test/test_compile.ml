(* The Bigarray execution tier built on the tape lowering. The central
   property is that the tape executor — the lowered tape run as closures,
   the serving executor of every non-f32 kit — is bit-identical to the
   tree-walking interpreter on every generated entry of all six kits, on
   integer and real-valued data, including kc = 0 and offset panels. The
   serving executors {!Compile.ukr_ba_of_summary} selects agree with the
   interpreter on the integer domain, and the lowering keeps the
   interpreter's contracts: runtime predicates, register memory, inlined
   instruction windows and dtype rounding. The interpreter's own
   instruction contracts (unit stride, lane range, division by zero) are
   checked here too. *)

open Exo_ir
open Ir
open Builder
module B = Exo_interp.Buffer
module I = Exo_interp.Interp
module C = Exo_interp.Compile
module R = Exo_blis.Registry
module Kits = Exo_ukr_gen.Kits
module Family = Exo_ukr_gen.Family
module BA1 = Bigarray.Array1

(* --- running an executor on regenerated inputs ---------------------------- *)

(* Run [u] on panels starting at [ao]/[bo] and a C tile at offset 1, on
   inputs regenerated from [seed] — integers in [-3, 3], or reals in
   [-3, 3) when [real] — and return the C tile's f32 bit patterns. *)
let run_exec (u : C.ukr_ba) ~mr ~nr ~kc ~ao ~bo ~real ~seed : int32 array =
  let st = Random.State.make [| seed; mr; nr; kc; ao; bo |] in
  let v () =
    if real then Random.State.float st 6.0 -. 3.0
    else float_of_int (Random.State.int st 7 - 3)
  in
  let mk n =
    let b = BA1.create Bigarray.float32 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      BA1.set b i (v ())
    done;
    b
  in
  let ac = mk (ao + (kc * mr)) and bc = mk (bo + (kc * nr)) in
  let c = mk (1 + (nr * mr)) in
  u ~kc ~ac ~ao ~bc ~bo ~c ~co:1;
  Array.init (nr * mr) (fun i -> Int32.bits_of_float (BA1.get c (1 + i)))

let proc_of ~kit ~mr ~nr = (R.exo_kernel ~kit ~mr ~nr ()).Family.proc

let tape_of (p : proc) : C.ukr_ba =
  match Option.bind (C.summarize_ukr p) C.tape_ukr_ba with
  | Some u -> u
  | None -> Alcotest.failf "%s: no tape executor" p.p_name

(* the tape of a generated entry against the interpreter oracle entry *)
let tape_agrees ~kit ~mr ~nr ~kc ~ao ~bo ~real ~seed =
  let tape = tape_of (proc_of ~kit ~mr ~nr) in
  run_exec tape ~mr ~nr ~kc ~ao ~bo ~real ~seed
  = run_exec (R.oracle_entry ~kit ~mr ~nr ()) ~mr ~nr ~kc ~ao ~bo ~real ~seed

(* --- equivalence: the tape ≡ the interpreter ---------------------------------- *)

let test_tape_every_entry () =
  (* every (mr', nr') entry of the 8x12 table of all six kits, at the kc
     values that cover the empty loop, one and a few trips, the vector
     widths and an odd tail, on integer and real-valued data *)
  List.iter
    (fun (kit : Kits.t) ->
      let bad = ref [] in
      for mr = 1 to 8 do
        for nr = 1 to 12 do
          List.iter
            (fun kc ->
              List.iter
                (fun real ->
                  if not (tape_agrees ~kit ~mr ~nr ~kc ~ao:3 ~bo:5 ~real ~seed:kc)
                  then bad := Fmt.str "%dx%d kc=%d real=%b" mr nr kc real :: !bad)
                [ false; true ])
            [ 0; 1; 2; 3; 8; 17 ]
        done
      done;
      Alcotest.(check (list string))
        (Fmt.str "%s: tape ≡ interp on all 1152 probes" kit.Kits.name)
        [] !bad)
    Kits.all

let prop_tape_equiv =
  QCheck2.Test.make ~name:"tape ≡ interp on offset panels (random kc/seeds)"
    ~count:120
    QCheck2.Gen.(
      quad
        (pair (oneofl Kits.all) (pair (int_range 1 8) (int_range 1 12)))
        (int_range 0 33)
        (pair (int_range 0 5) (int_range 0 7))
        (pair bool (int_range 0 1000)))
    (fun ((kit, (mr, nr)), kc, (ao, bo), (real, seed)) ->
      tape_agrees ~kit ~mr ~nr ~kc ~ao ~bo ~real ~seed)

(* --- the tape on the paper's family (shapes beyond the 8x12 table) ------- *)

let test_family_kernels_agree () =
  List.iter
    (fun (mr, nr) ->
      Alcotest.(check bool)
        (Fmt.str "%dx%d f32 kernel: tape ≡ interpreted" mr nr)
        true
        (tape_agrees ~kit:Kits.neon_f32 ~mr ~nr ~kc:24 ~ao:0 ~bo:0 ~real:true
           ~seed:7))
    Family.paper_shapes

let test_family_kernels_agree_f16 () =
  List.iter
    (fun (mr, nr) ->
      Alcotest.(check bool)
        (Fmt.str "%dx%d f16 kernel: tape ≡ interpreted" mr nr)
        true
        (tape_agrees ~kit:Kits.neon_f16 ~mr ~nr ~kc:16 ~ao:0 ~bo:0 ~real:true
           ~seed:9))
    [ (8, 8); (8, 4); (16, 8); (1, 8) ]

(* --- the serving executors (ukr_ba_of_summary) against the interpreter ---- *)

(* The executor a proc's summary selects — the monomorphized nest for f32,
   the tape otherwise. *)
let serving_of proc = Option.bind (C.summarize_ukr proc) C.ukr_ba_of_summary

(* The serving executor against the interpreter on integer data over
   offset panels (the f32 nests round once per C element, exact on
   integers). *)
let serving_agrees ~kit ~mr ~nr ~kc ~ao ~bo ~seed =
  match serving_of (proc_of ~kit ~mr ~nr) with
  | None -> false
  | Some u ->
      run_exec u ~mr ~nr ~kc ~ao ~bo ~real:false ~seed
      = run_exec (R.oracle_entry ~kit ~mr ~nr ()) ~mr ~nr ~kc ~ao ~bo
          ~real:false ~seed

let test_oracles_family_f32 () =
  List.iter
    (fun (mr, nr) ->
      Alcotest.(check bool)
        (Fmt.str "%dx%d f32: serving ≡ interp" mr nr)
        true
        (serving_agrees ~kit:Kits.neon_f32 ~mr ~nr ~kc:24 ~ao:0 ~bo:0 ~seed:11))
    Family.paper_shapes

let test_oracles_family_f16 () =
  List.iter
    (fun (mr, nr) ->
      Alcotest.(check bool)
        (Fmt.str "%dx%d f16: serving ≡ interp" mr nr)
        true
        (serving_agrees ~kit:Kits.neon_f16 ~mr ~nr ~kc:16 ~ao:8 ~bo:4 ~seed:3))
    [ (8, 8); (8, 4); (16, 8); (1, 8) ]

let test_oracles_all_kits () =
  (* one shape per kit: covers Packed, PackedBcast, Row and Scalar styles
     plus the i32 rounding path *)
  List.iter
    (fun (kit : Kits.t) ->
      Alcotest.(check bool)
        (Fmt.str "%s 8x12: serving ≡ interp" kit.Kits.name)
        true
        (serving_agrees ~kit ~mr:8 ~nr:12 ~kc:9 ~ao:3 ~bo:5 ~seed:17))
    Kits.all

let test_oracles_kc_zero () =
  (* kc = 0 still runs the C round-trip through register memory *)
  List.iter
    (fun kit ->
      Alcotest.(check bool)
        (Fmt.str "%s kc=0: serving ≡ interp" kit.Kits.name)
        true
        (serving_agrees ~kit ~mr:8 ~nr:12 ~kc:0 ~ao:0 ~bo:0 ~seed:5))
    [ Kits.neon_f32; Kits.neon_f16; Kits.neon_i32 ]

let test_oracles_short_array_raises () =
  (* a panel whose backing array doesn't cover kc must raise in every
     executor (no unsafe access past the array) *)
  let raises (u : C.ukr_ba) =
    let mk n = BA1.create Bigarray.float32 Bigarray.c_layout n in
    try
      u ~kc:4 ~ac:(mk 8) ~ao:0 ~bc:(mk (4 * 12)) ~bo:0 ~c:(mk (12 * 8)) ~co:0;
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun (kit : Kits.t) ->
      let proc = proc_of ~kit ~mr:8 ~nr:12 in
      let serving = Option.get (serving_of proc) in
      Alcotest.(check bool) (kit.Kits.name ^ ": short Ac raises (serving)") true
        (raises serving);
      Alcotest.(check bool) (kit.Kits.name ^ ": short Ac raises (tape)") true
        (raises (tape_of proc));
      Alcotest.(check bool) (kit.Kits.name ^ ": short Ac raises (interp)") true
        (raises (R.oracle_entry ~kit ~mr:8 ~nr:12 ())))
    [ Kits.neon_f32; Kits.neon_f16 ]

(* --- the lowering's contracts ----------------------------------------------- *)

(* A hand-written proc with the micro-kernel signature
   (KC, alpha, Ac[KC, mr], Bc[KC, nr], beta, C[nr, mr]). *)
let kernel_proc ?(dt = Dtype.F32) ?(preds = fun _ -> []) ~mr ~nr body =
  let kc = Sym.fresh "KC" and alpha = Sym.fresh "alpha" and beta = Sym.fresh "beta" in
  let ac = Sym.fresh "Ac" and bc = Sym.fresh "Bc" and c = Sym.fresh "C" in
  mk_proc ~name:"hand" ~preds:(preds kc)
    ~args:
      [
        size_arg kc;
        tensor_arg alpha dt [ int 1 ];
        tensor_arg ac dt [ var kc; int mr ];
        tensor_arg bc dt [ var kc; int nr ];
        tensor_arg beta dt [ int 1 ];
        tensor_arg c dt [ int nr; int mr ];
      ]
    (body ~kc ~ac ~bc ~c)

(* Ac[k,0]·Bc[k,0] *)
let dot1 ac bc k = mul (rd ac [ var k; int 0 ]) (rd bc [ var k; int 0 ])

(* the tape of a hand-written proc against the interpreter on it *)
let hand_agrees p ~mr ~nr ~kc ~ao ~bo =
  run_exec (tape_of p) ~mr ~nr ~kc ~ao ~bo ~real:true ~seed:kc
  = run_exec (R.interp_entry ~dt:Dtype.F32 p ~mr ~nr) ~mr ~nr ~kc ~ao ~bo
      ~real:true ~seed:kc

(* C[0,0] += Ac[k,0]·Bc[k,0], straight into C *)
let dot_1x1 ?dt ?preds () =
  kernel_proc ?dt ?preds ~mr:1 ~nr:1 (fun ~kc ~ac ~bc ~c ->
      let k = Sym.fresh "k" in
      [
        loopn k (var kc)
          [ reduce c [ int 0; int 0 ] (dot1 ac bc k) ];
      ])

let test_tape_precondition () =
  (* a KC-dependent top-level predicate stays a runtime check: the tape
     cannot carry it, so no Bigarray executor is offered (a table refuses
     such an entry) and only the interpreter enforces it *)
  let p = dot_1x1 ~preds:(fun kc -> [ ge (var kc) (int 4) ]) () in
  let s = Option.get (C.summarize_ukr p) in
  Alcotest.(check int) "one residual predicate" 1 s.C.Summary.n_preds;
  Alcotest.(check bool) "no tape" true (Option.is_none (C.tape_ukr_ba s));
  Alcotest.(check bool) "no Bigarray executor" true
    (Option.is_none (C.ukr_ba_of_summary s));
  Alcotest.(check bool) "the interpreter raises at kc = 2" true
    (try
       let interp = R.interp_entry ~dt:Dtype.F32 p ~mr:1 ~nr:1 in
       ignore (run_exec interp ~mr:1 ~nr:1 ~kc:2 ~ao:0 ~bo:0 ~real:false ~seed:1);
       false
     with I.Runtime_error _ -> true)

let test_tape_alloc_scoping () =
  (* register memory becomes scratch-slab cells: a register accumulator
     loaded from C, accumulated in the k loop and stored back *)
  let acc ~read_first =
    kernel_proc ~mr:1 ~nr:1 (fun ~kc ~ac ~bc ~c ->
        let t = Sym.fresh "t" and k = Sym.fresh "k" in
        [ alloc t Dtype.F32 [ int 1 ] ]
        @ (if read_first then [] else [ assign t [ int 0 ] (rd c [ int 0; int 0 ]) ])
        @ [
            loopn k (var kc)
              [ reduce t [ int 0 ] (dot1 ac bc k) ];
            assign c [ int 0; int 0 ] (rd t [ int 0 ]);
          ])
  in
  let p = acc ~read_first:false in
  let s = Option.get (C.summarize_ukr p) in
  Alcotest.(check int) "one slab cell" 1 s.C.Summary.slab;
  List.iter
    (fun kc ->
      Alcotest.(check bool)
        (Fmt.str "kc=%d: tape ≡ interp" kc)
        true
        (hand_agrees p ~mr:1 ~nr:1 ~kc ~ao:0 ~bo:0))
    [ 0; 1; 5 ];
  (* reading a register cell before any write is observable in the
     interpreter (NaN init), so the lowering refuses it *)
  Alcotest.(check bool) "read-before-write refused" true
    (Option.is_none (C.summarize_ukr (acc ~read_first:true)))

let test_tape_call_window () =
  (* an inlined instruction call: neon_vld through a window of Ac into a
     register vector, whose lanes then accumulate into C *)
  let p =
    kernel_proc ~mr:4 ~nr:1 (fun ~kc ~ac ~bc ~c ->
        let t = Sym.fresh "t" and k = Sym.fresh "k" and i = Sym.fresh "i" in
        [
          alloc ~mem:Exo_isa.Neon.mem t Dtype.F32 [ int 4 ];
          loopn k (var kc)
            [
              call Exo_isa.Neon.vld_4xf32
                [
                  win t [ ivn (int 0) (int 4) ];
                  win ac [ pt (var k); ivn (int 0) (int 4) ];
                ];
              loopn i (int 4)
                [
                  reduce c [ int 0; var i ]
                    (mul (rd t [ var i ]) (rd bc [ var k; int 0 ]));
                ];
            ];
        ])
  in
  List.iter
    (fun kc ->
      Alcotest.(check bool)
        (Fmt.str "kc=%d: tape ≡ interp" kc)
        true
        (hand_agrees p ~mr:4 ~nr:1 ~kc ~ao:2 ~bo:1))
    [ 0; 1; 6 ]

let test_tape_f16_rounding () =
  (* every store rounds through the dtype, as in the interpreter: at 2048
     the f16 spacing is 2, so each += 1 is absorbed — an f64 accumulator
     rounded once would give 2052 *)
  let p = dot_1x1 ~dt:Dtype.F16 () in
  let run (u : C.ukr_ba) =
    let mk n v = BA1.init Bigarray.float32 Bigarray.c_layout n (fun _ -> v) in
    let c = mk 1 2048.0 in
    u ~kc:4 ~ac:(mk 4 1.0) ~ao:0 ~bc:(mk 4 1.0) ~bo:0 ~c ~co:0;
    BA1.get c 0
  in
  Alcotest.(check (float 0.0)) "tape: f16 absorbs +1 at 2048" 2048.0 (run (tape_of p));
  Alcotest.(check (float 0.0)) "interp agrees" 2048.0
    (run (R.interp_entry ~dt:Dtype.F16 p ~mr:1 ~nr:1))

let test_tape_run_is_reusable () =
  (* built once, run many: one tape serves calls of any depth, in any
     order, each from a fresh scratch slab *)
  let kit = Kits.neon_f16 in
  let tape = tape_of (proc_of ~kit ~mr:8 ~nr:12) in
  let oracle = R.oracle_entry ~kit ~mr:8 ~nr:12 () in
  List.iter
    (fun kc ->
      Alcotest.(check bool)
        (Fmt.str "kc=%d" kc)
        true
        (run_exec tape ~mr:8 ~nr:12 ~kc ~ao:0 ~bo:0 ~real:true ~seed:kc
        = run_exec oracle ~mr:8 ~nr:12 ~kc ~ao:0 ~bo:0 ~real:true ~seed:kc))
    [ 10; 0; 3; 100 ]

(* --- the interpreter's instruction contract, checked at runtime ----------- *)

let test_interp_rejects_bad_stride () =
  (* neon_vld requires unit-stride operands; a column view strides by the
     row length and must be rejected *)
  let dst = B.create ~init:0.0 Dtype.F32 [ 4 ] in
  let src2 = B.create ~init:1.0 Dtype.F32 [ 4; 8 ] in
  let strided = B.view src2 [ `Iv (0, 4); `Pt 0 ] in
  Alcotest.(check int) "view is strided" 8 (B.last_stride strided);
  Alcotest.(check bool) "strided src rejected" true
    (try
       I.run Exo_isa.Neon.vld_4xf32 [ I.VBuf dst; I.VBuf strided ];
       false
     with I.Runtime_error _ -> true);
  (* and the contiguous case still runs *)
  let src = B.of_array Dtype.F32 [ 4 ] [| 5.0; 6.0; 7.0; 8.0 |] in
  I.run Exo_isa.Neon.vld_4xf32 [ I.VBuf dst; I.VBuf src ];
  Alcotest.(check (float 0.0)) "contiguous load runs" 8.0 (B.get dst [| 3 |])

let test_interp_rejects_bad_lane () =
  (* vfmla's lane selector is asserted to be in [0, lanes) *)
  let p = Exo_isa.Neon.vfmla_4xf32_4xf32 in
  let mk v = B.create ~init:v Dtype.F32 [ 4 ] in
  let dstb = mk 0.0 and lhs = mk 1.0 and rhs = mk 2.0 in
  Alcotest.(check bool) "lane 4 of 4 rejected" true
    (try
       I.run p [ I.VBuf dstb; I.VBuf lhs; I.VBuf rhs; I.VInt 4 ];
       false
     with I.Runtime_error _ -> true);
  I.run p [ I.VBuf dstb; I.VBuf lhs; I.VBuf rhs; I.VInt 2 ];
  Alcotest.(check (float 0.0)) "lane 2 accepted" 2.0 (B.get dstb [| 0 |])

let test_interp_division_by_zero () =
  let n = Sym.fresh "N" and out = Sym.fresh "out" in
  let p =
    mk_proc ~name:"t"
      ~args:[ size_arg n; tensor_arg out Dtype.F32 [ int 1 ] ]
      [ assign out [ div (int 4) (var n) ] (flt 1.0) ]
  in
  let b = B.create ~init:0.0 Dtype.F32 [ 1 ] in
  Alcotest.(check bool) "division by zero raises" true
    (try
       I.run p [ I.VInt 0; I.VBuf b ];
       false
     with I.Runtime_error _ -> true)

let () =
  Alcotest.run "compile"
    [
      ( "equivalence",
        [
          Alcotest.test_case "tape ≡ interp on every entry of all six kits" `Quick
            test_tape_every_entry;
          QCheck_alcotest.to_alcotest prop_tape_equiv;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "paper family f32" `Quick test_family_kernels_agree;
          Alcotest.test_case "family f16" `Quick test_family_kernels_agree_f16;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "paper family f32" `Quick test_oracles_family_f32;
          Alcotest.test_case "family f16, offset panels" `Quick
            test_oracles_family_f16;
          Alcotest.test_case "every kit (all styles)" `Quick test_oracles_all_kits;
          Alcotest.test_case "kc = 0" `Quick test_oracles_kc_zero;
          Alcotest.test_case "short array raises" `Quick
            test_oracles_short_array_raises;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "top-level precondition" `Quick test_tape_precondition;
          Alcotest.test_case "bad stride rejected" `Quick
            test_interp_rejects_bad_stride;
          Alcotest.test_case "bad lane rejected" `Quick test_interp_rejects_bad_lane;
          Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero;
          Alcotest.test_case "alloc scoping" `Quick test_tape_alloc_scoping;
          Alcotest.test_case "call window" `Quick test_tape_call_window;
          Alcotest.test_case "f16 rounding" `Quick test_tape_f16_rounding;
          Alcotest.test_case "compile once run many" `Quick
            test_tape_run_is_reusable;
        ] );
    ]
