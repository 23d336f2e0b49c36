(* The compiled execution engine. The central property is that the closure
   compiler is observationally identical to the tree-walking interpreter —
   exact (bit-identical) buffers on random programs, on randomly *scheduled*
   programs, and on every generated micro-kernel of the paper's family —
   and that it enforces the same runtime contracts (preconditions, bounds,
   dtype rounding). *)

open Exo_ir
open Ir
open Builder
module B = Exo_interp.Buffer
module I = Exo_interp.Interp
module C = Exo_interp.Compile
module Sched = Exo_sched.Sched
module Kits = Exo_ukr_gen.Kits
module Family = Exo_ukr_gen.Family

(* --- random program generator (as in test_sched_random) ----------------- *)

let dim0 = 6
let dim1 = 8

type gctx = { src : Sym.t; dst : Sym.t; loops : (Sym.t * int) list }

let gen_index ctx ~(bound : int) : expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let candidates =
    List.filter (fun (_, ext) -> ext <= bound) ctx.loops
    |> List.map (fun (v, ext) ->
           if ext = bound then return (Var v)
           else map (fun c -> Binop (Add, Var v, Int c)) (int_range 0 (bound - ext)))
  in
  oneof (map (fun c -> Int c) (int_range 0 (bound - 1)) :: candidates)

let gen_rhs ctx : expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* i0 = gen_index ctx ~bound:dim0 in
  let* i1 = gen_index ctx ~bound:dim1 in
  let read = Read (ctx.src, [ i0; i1 ]) in
  oneofl
    [
      read;
      Binop (Add, read, Float 1.0);
      Binop (Mul, read, Float 2.0);
      Binop (Sub, Float 0.5, read);
      Float 3.0;
    ]

let gen_leaf ctx : stmt QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* i0 = gen_index ctx ~bound:dim0 in
  let* i1 = gen_index ctx ~bound:dim1 in
  let* e = gen_rhs ctx in
  oneofl [ SAssign (ctx.dst, [ i0; i1 ], e); SReduce (ctx.dst, [ i0; i1 ], e) ]

let loop_names = [| "i"; "j"; "p"; "q" |]

let rec gen_body ctx ~(depth : int) : stmt list QCheck2.Gen.t =
  let open QCheck2.Gen in
  if depth = 0 then map (fun s -> [ s ]) (gen_leaf ctx)
  else
    let* n_stmts = int_range 1 2 in
    list_repeat n_stmts
      (let* make_loop = bool in
       if make_loop then
         let* ext = oneofl [ 2; 3; 4; 6 ] in
         let v = Sym.fresh loop_names.(depth mod Array.length loop_names) in
         let ctx' = { ctx with loops = (v, ext) :: ctx.loops } in
         let* inner = gen_body ctx' ~depth:(depth - 1) in
         return (SFor (v, Int 0, Int ext, inner))
       else gen_leaf ctx)

let gen_proc : proc QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* depth = int_range 1 3 in
  let src = Sym.fresh "src" and dst = Sym.fresh "dst" in
  let ctx = { src; dst; loops = [] } in
  let* body = gen_body ctx ~depth in
  let p =
    mk_proc ~name:"rand"
      ~args:
        [
          tensor_arg src Dtype.F32 [ Int dim0; Int dim1 ];
          tensor_arg dst Dtype.F32 [ Int dim0; Int dim1 ];
        ]
      body
  in
  Exo_check.Wellformed.check_proc p;
  return p

(* --- equivalence oracle: run both engines on identical inputs ------------ *)

let mk_inputs ~(seed : int) =
  let st = Random.State.make [| seed |] in
  let mk () =
    let b = B.create ~init:0.0 Dtype.F32 [ dim0; dim1 ] in
    B.fill b (fun _ -> float_of_int (Random.State.int st 9 - 4));
    b
  in
  let src = mk () in
  let dst = mk () in
  (src, dst)

(** Bit-identical output buffers for interpreted vs compiled execution. *)
let engines_agree (p : proc) : bool =
  let ck = C.compile p in
  List.for_all
    (fun seed ->
      let s1, d1 = mk_inputs ~seed in
      let s2, d2 = mk_inputs ~seed in
      I.run p [ I.VBuf s1; I.VBuf d1 ];
      C.run ck [ I.VBuf s2; I.VBuf d2 ];
      B.equal d1 d2 && B.equal s1 s2)
    [ 1; 2; 3 ]

let prop_compiled_equals_interpreted =
  QCheck2.Test.make
    ~name:"compiled ≡ interpreted (exact buffers) on random programs" ~count:200
    gen_proc engines_agree

(* The issue's headline property: equivalence must also hold on *scheduled*
   procs — programs that went through the rewrite primitives (divided /
   unrolled / reordered loops, the shapes the generator emits). *)

let loop_names_of (p : proc) : string list =
  let acc = ref [] in
  iter_stmts
    (function SFor (v, _, _, _) -> acc := Sym.name v :: !acc | _ -> ())
    p.p_body;
  List.sort_uniq compare !acc

let prop_compiled_equals_interpreted_scheduled =
  QCheck2.Test.make
    ~name:"compiled ≡ interpreted on random *scheduled* programs" ~count:150
    QCheck2.Gen.(pair gen_proc (int_range 0 1000))
    (fun (p, salt) ->
      let p' =
        match loop_names_of p with
        | [] -> p
        | loops -> (
            let v = List.nth loops (salt mod List.length loops) in
            let xform () =
              match salt mod 3 with
              | 0 ->
                  let q = 2 + (salt mod 3) in
                  let tail = if salt mod 2 = 0 then Sched.Perfect else Sched.Cut in
                  Sched.divide_loop p v q (v ^ "t", v ^ "tt") ~tail
              | 1 -> Sched.unroll_loop p v
              | _ -> (
                  match loops with
                  | w :: _ when w <> v -> Sched.reorder_loops p (v ^ " " ^ w)
                  | _ -> Sched.unroll_loop p v)
            in
            match xform () with p' -> p' | exception Sched.Sched_error _ -> p)
      in
      engines_agree p')

(* --- the generated family: every paper shape, both engines --------------- *)

(* Run one generated kernel — proc signature (KC, alpha, Ac, Bc, beta, C) —
   through both engines on inputs regenerated from the same seed, and return
   the two C tiles. *)
let run_kernel_pair ~(kit : Kits.t) ~mr ~nr ~kc ~seed =
  let proc = (Exo_blis.Registry.exo_kernel ~kit ~mr ~nr ()).Family.proc in
  let ck = Exo_blis.Registry.exo_compiled ~kit ~mr ~nr () in
  let one = B.of_array kit.Kits.dt [ 1 ] [| 1.0 |] in
  let run engine =
    let st = Random.State.make [| seed; mr; nr |] in
    let mk dims =
      let b = B.create ~init:0.0 kit.Kits.dt dims in
      B.fill b (fun _ -> float_of_int (Random.State.int st 7 - 3));
      b
    in
    let ac = mk [ kc; mr ] and bc = mk [ kc; nr ] and c = mk [ nr; mr ] in
    engine [ I.VInt kc; I.VBuf one; I.VBuf ac; I.VBuf bc; I.VBuf one; I.VBuf c ];
    c
  in
  (run (I.run proc), run (C.run ck))

let test_family_kernels_agree () =
  List.iter
    (fun (mr, nr) ->
      let c1, c2 = run_kernel_pair ~kit:Kits.neon_f32 ~mr ~nr ~kc:24 ~seed:7 in
      Alcotest.(check bool)
        (Fmt.str "%dx%d f32 kernel: compiled ≡ interpreted" mr nr)
        true (B.equal c1 c2))
    Family.paper_shapes

let test_family_kernels_agree_f16 () =
  List.iter
    (fun (mr, nr) ->
      let c1, c2 = run_kernel_pair ~kit:Kits.neon_f16 ~mr ~nr ~kc:16 ~seed:9 in
      Alcotest.(check bool)
        (Fmt.str "%dx%d f16 kernel: compiled ≡ interpreted" mr nr)
        true (B.equal c1 c2))
    [ (8, 8); (8, 4); (16, 8); (1, 8) ]

(* --- the two oracles on offset panels -------------------------------------- *)

(* Run one generated kernel through both oracle engines — tree-walking
   interpreter and compiled closure engine — over offset buffer views into
   raw arrays (panels starting at [ao]/[bo], as in a packing arena), on
   inputs regenerated from the same seed. *)
(* A row-major buffer view over a raw array, starting at [offset]. *)
let view dt data dims offset =
  let dims = Array.of_list dims in
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  { B.data; dtype = dt; dims; strides; offset }

let run_ukr_pair ~(kit : Kits.t) ~mr ~nr ~kc ~ao ~bo ~seed =
  let proc = (Exo_blis.Registry.exo_kernel ~kit ~mr ~nr ()).Family.proc in
  let ck = C.compile proc in
  let dt = kit.Kits.dt in
  let one = B.of_array dt [ 1 ] [| 1.0 |] in
  let mk_arrays () =
    let st = Random.State.make [| seed; mr; nr; kc; ao; bo |] in
    let mk n =
      Array.init (max 1 n) (fun _ -> float_of_int (Random.State.int st 7 - 3))
    in
    (mk (ao + (kc * mr)), mk (bo + (kc * nr)), mk (nr * mr))
  in
  let via_engine run =
    let ac, bc, c = mk_arrays () in
    run
      [
        I.VInt kc;
        I.VBuf one;
        I.VBuf (view dt ac [ kc; mr ] ao);
        I.VBuf (view dt bc [ kc; nr ] bo);
        I.VBuf one;
        I.VBuf (view dt c [ nr; mr ] 0);
      ];
    c
  in
  (via_engine (I.run proc), via_engine (C.run ck))

let arrays_bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let check_ukr_pair ~kit ~mr ~nr ~kc ~ao ~bo ~seed =
  let ci, cc = run_ukr_pair ~kit ~mr ~nr ~kc ~ao ~bo ~seed in
  arrays_bit_equal ci cc

let test_oracles_family_f32 () =
  List.iter
    (fun (mr, nr) ->
      Alcotest.(check bool)
        (Fmt.str "%dx%d f32: closure ≡ interp" mr nr)
        true
        (check_ukr_pair ~kit:Kits.neon_f32 ~mr ~nr ~kc:24 ~ao:0 ~bo:0 ~seed:11))
    Family.paper_shapes

let test_oracles_family_f16 () =
  List.iter
    (fun (mr, nr) ->
      Alcotest.(check bool)
        (Fmt.str "%dx%d f16: closure ≡ interp" mr nr)
        true
        (check_ukr_pair ~kit:Kits.neon_f16 ~mr ~nr ~kc:16 ~ao:8 ~bo:4 ~seed:3))
    [ (8, 8); (8, 4); (16, 8); (1, 8) ]

let test_oracles_all_kits () =
  (* one shape per kit: covers Packed, PackedBcast, Row and Scalar styles
     plus the i32 rounding path *)
  List.iter
    (fun (kit : Kits.t) ->
      Alcotest.(check bool)
        (Fmt.str "%s 8x12: closure ≡ interp" kit.Kits.name)
        true
        (check_ukr_pair ~kit ~mr:8 ~nr:12 ~kc:9 ~ao:3 ~bo:5 ~seed:17))
    Kits.all

let test_oracles_kc_zero () =
  (* kc = 0 still runs the C round-trip through register memory *)
  Alcotest.(check bool)
    "kc=0: closure ≡ interp" true
    (check_ukr_pair ~kit:Kits.neon_f32 ~mr:8 ~nr:12 ~kc:0 ~ao:0 ~bo:0 ~seed:5)

let test_oracles_short_array_raises () =
  (* a panel view whose backing array doesn't cover kc must raise in both
     engines (no unsafe access past the array) *)
  let proc = (Exo_blis.Registry.exo_kernel ~kit:Kits.neon_f32 ~mr:8 ~nr:12 ()).Family.proc in
  let ck = C.compile proc in
  let one = B.of_array Dtype.F32 [ 1 ] [| 1.0 |] in
  let view data dims = view Dtype.F32 data dims 0 in
  let raises run =
    try
      run
        [
          I.VInt 4;
          I.VBuf one;
          I.VBuf (view (Array.make 8 1.0) [ 4; 8 ]);
          I.VBuf (view (Array.make (4 * 12) 1.0) [ 4; 12 ]);
          I.VBuf one;
          I.VBuf (view (Array.make (12 * 8) 0.0) [ 12; 8 ]);
        ];
      false
    with
    | Exo_interp.Buffer.Bounds _ | I.Runtime_error _ | Invalid_argument _ ->
        true
  in
  Alcotest.(check bool) "short Ac raises (closure)" true (raises (C.run ck));
  Alcotest.(check bool) "short Ac raises (interp)" true (raises (I.run proc))

let prop_oracles_equiv =
  QCheck2.Test.make ~name:"closure ≡ interp on offset panels (random kc/seeds)"
    ~count:120
    QCheck2.Gen.(
      quad
        (oneofl Family.paper_shapes)
        (int_range 0 33) (pair (int_range 0 5) (int_range 0 7)) (int_range 0 1000))
    (fun ((mr, nr), kc, (ao, bo), seed) ->
      check_ukr_pair ~kit:Kits.neon_f32 ~mr ~nr ~kc ~ao ~bo ~seed)

(* --- runtime contracts --------------------------------------------------- *)

let test_compiled_precondition_toplevel () =
  let n = Sym.fresh "N" and b = Sym.fresh "b" in
  let p =
    mk_proc ~name:"t"
      ~preds:[ ge (var n) (int 4) ]
      ~args:[ size_arg n; tensor_arg b Dtype.F32 [ var n ] ]
      []
  in
  let ck = C.compile p in
  let buf = B.create ~init:0.0 Dtype.F32 [ 2 ] in
  Alcotest.(check bool) "violated precondition raises" true
    (try
       C.run ck [ I.VInt 2; I.VBuf buf ];
       false
     with I.Runtime_error _ -> true)

let test_compiled_rejects_bad_stride () =
  (* neon_vld requires unit-stride operands; a column view strides by the
     row length and must be rejected by the compiled prologue too *)
  let ck = C.compile Exo_isa.Neon.vld_4xf32 in
  let dst = B.create ~init:0.0 Dtype.F32 [ 4 ] in
  let src2 = B.create ~init:1.0 Dtype.F32 [ 4; 8 ] in
  let strided = B.view src2 [ `Iv (0, 4); `Pt 0 ] in
  Alcotest.(check int) "view is strided" 8 (B.last_stride strided);
  Alcotest.(check bool) "strided src rejected" true
    (try
       C.run ck [ I.VBuf dst; I.VBuf strided ];
       false
     with I.Runtime_error _ -> true);
  (* and the contiguous case still runs *)
  let src = B.of_array Dtype.F32 [ 4 ] [| 5.0; 6.0; 7.0; 8.0 |] in
  C.run ck [ I.VBuf dst; I.VBuf src ];
  Alcotest.(check (float 0.0)) "contiguous load runs" 8.0 (B.get dst [| 3 |])

let test_compiled_rejects_bad_lane () =
  (* vfmla's lane selector is asserted to be in [0, lanes) *)
  let ck = C.compile Exo_isa.Neon.vfmla_4xf32_4xf32 in
  let mk v = B.create ~init:v Dtype.F32 [ 4 ] in
  let dstb = mk 0.0 and lhs = mk 1.0 and rhs = mk 2.0 in
  Alcotest.(check bool) "lane 4 of 4 rejected" true
    (try
       C.run ck [ I.VBuf dstb; I.VBuf lhs; I.VBuf rhs; I.VInt 4 ];
       false
     with I.Runtime_error _ -> true);
  C.run ck [ I.VBuf dstb; I.VBuf lhs; I.VBuf rhs; I.VInt 2 ];
  Alcotest.(check (float 0.0)) "lane 2 accepted" 2.0 (B.get dstb [| 0 |])

let test_compiled_division_by_zero () =
  let n = Sym.fresh "N" and out = Sym.fresh "out" in
  let p =
    mk_proc ~name:"t"
      ~args:[ size_arg n; tensor_arg out Dtype.F32 [ int 1 ] ]
      [ assign out [ div (int 4) (var n) ] (flt 1.0) ]
  in
  let ck = C.compile p in
  let b = B.create ~init:0.0 Dtype.F32 [ 1 ] in
  Alcotest.(check bool) "division by zero raises" true
    (try
       C.run ck [ I.VInt 0; I.VBuf b ];
       false
     with I.Runtime_error _ -> true)

let test_compiled_alloc_scoping () =
  (* a fresh buffer per SAlloc execution, written then read back *)
  let out = Sym.fresh "out" and t = Sym.fresh "t" in
  let i = Sym.fresh "i" and i2 = Sym.fresh "i" in
  let p =
    mk_proc ~name:"t"
      ~args:[ tensor_arg out Dtype.F32 [ int 4 ] ]
      [
        alloc t Dtype.F32 [ int 4 ];
        loopn i (int 4) [ assign t [ var i ] (flt 6.0) ];
        loopn i2 (int 4) [ assign out [ var i2 ] (rd t [ var i2 ]) ];
      ]
  in
  let ck = C.compile p in
  let b = B.create Dtype.F32 [ 4 ] in
  C.run ck [ I.VBuf b ];
  Alcotest.(check (float 0.0)) "copied through alloc" 6.0 (B.get b [| 3 |])

let test_compiled_call_window () =
  let src = Sym.fresh "src" and dst = Sym.fresh "dst" in
  let p =
    mk_proc ~name:"t"
      ~args:
        [
          tensor_arg ~mem:Exo_isa.Neon.mem dst Dtype.F32 [ int 4 ];
          tensor_arg src Dtype.F32 [ int 2; int 8 ];
        ]
      [
        call Exo_isa.Neon.vld_4xf32
          [
            win dst [ ivn (int 0) (int 4) ];
            win src [ pt (int 1); ivn (int 4) (int 4) ];
          ];
      ]
  in
  let ck = C.compile p in
  let s = B.create ~init:0.0 Dtype.F32 [ 2; 8 ] in
  B.fill s (fun idx -> float_of_int ((idx.(0) * 8) + idx.(1)));
  let d = B.create Dtype.F32 [ 4 ] in
  C.run ck [ I.VBuf d; I.VBuf s ];
  Alcotest.(check (float 0.0)) "window base" 12.0 (B.get d [| 0 |]);
  Alcotest.(check (float 0.0)) "window end" 15.0 (B.get d [| 3 |])

let test_compiled_f16_rounding () =
  (* dtype rounding is applied on the compiled write path too: at 2048 the
     f16 spacing is 2, so += 1 is absorbed *)
  let acc = Sym.fresh "acc" and i = Sym.fresh "i" in
  let p =
    mk_proc ~name:"t"
      ~args:[ tensor_arg acc Dtype.F16 [ int 1 ] ]
      [ loopn i (int 4) [ reduce acc [ int 0 ] (flt 1.0) ] ]
  in
  let ck = C.compile p in
  let b = B.create ~init:0.0 Dtype.F16 [ 1 ] in
  B.set b [| 0 |] 2048.0;
  C.run ck [ I.VBuf b ];
  Alcotest.(check (float 0.0)) "f16 absorbs +1 at 2048" 2048.0 (B.get b [| 0 |])

let test_compiled_run_is_reusable () =
  (* compile once, run many: repeated runs see fresh argument bindings *)
  let n = Sym.fresh "N" and acc = Sym.fresh "acc" and i = Sym.fresh "i" in
  let p =
    mk_proc ~name:"sum"
      ~args:[ size_arg n; tensor_arg acc Dtype.F64 [ int 1 ] ]
      [ loopn i (var n) [ reduce acc [ int 0 ] (flt 1.0) ] ]
  in
  let ck = C.compile p in
  List.iter
    (fun n_iters ->
      let b = B.create ~init:0.0 Dtype.F64 [ 1 ] in
      C.run ck [ I.VInt n_iters; I.VBuf b ];
      Alcotest.(check (float 0.0))
        (Fmt.str "sum of %d ones" n_iters)
        (float_of_int n_iters) (B.get b [| 0 |]))
    [ 10; 0; 3; 100 ]

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_compiled_equals_interpreted;
        prop_compiled_equals_interpreted_scheduled;
        prop_oracles_equiv;
      ]
  in
  Alcotest.run "compile"
    [
      ("equivalence", props);
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
          Alcotest.test_case "top-level precondition" `Quick
            test_compiled_precondition_toplevel;
          Alcotest.test_case "bad stride rejected" `Quick
            test_compiled_rejects_bad_stride;
          Alcotest.test_case "bad lane rejected" `Quick test_compiled_rejects_bad_lane;
          Alcotest.test_case "division by zero" `Quick test_compiled_division_by_zero;
          Alcotest.test_case "alloc scoping" `Quick test_compiled_alloc_scoping;
          Alcotest.test_case "call window" `Quick test_compiled_call_window;
          Alcotest.test_case "f16 rounding" `Quick test_compiled_f16_rounding;
          Alcotest.test_case "compile once run many" `Quick
            test_compiled_run_is_reusable;
        ] );
    ]
