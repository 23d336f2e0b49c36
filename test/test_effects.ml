(* Tests of the static effect system (Exo_check.Effects): unit tests
   pinning the region-algebra verdicts and inferred signatures, plus a
   qcheck soundness property — any rewrite the effect-based oracles admit
   must be bit-exact under the compiled execution engine. *)

open Exo_ir
open Ir
open Builder
module E = Exo_check.Effects
module Sched = Exo_sched.Sched
module B = Exo_interp.Buffer
module I = Exo_interp.Interp

let aff e = Option.get (Affine.of_expr e)
let check_bool = Alcotest.(check bool)

(* --- region algebra ------------------------------------------------------ *)

(* a context with one loop binder i in [0, 6) *)
let i_sym = Sym.fresh "i"
let ctx_i = E.ctx_push_loop E.ctx_empty i_sym (int 0) (int 6)
let pt e = E.DPt (aff e)
let ivl lo hi = E.DIv (aff lo, aff hi)

let test_point_disjoint () =
  check_bool "i vs i+1 disjoint" true
    (E.region_disjoint ctx_i [ pt (var i_sym) ] [ pt (add (var i_sym) (int 1)) ]);
  check_bool "i vs i not disjoint" false
    (E.region_disjoint ctx_i [ pt (var i_sym) ] [ pt (var i_sym) ]);
  check_bool "different unrelated points stay may-overlapping" false
    (E.region_disjoint ctx_i [ pt (var i_sym) ] [ pt (int 3) ])

let test_interval_disjoint () =
  check_bool "[0,2] vs [3,5] disjoint" true
    (E.region_disjoint ctx_i [ ivl (int 0) (int 2) ] [ ivl (int 3) (int 5) ]);
  check_bool "[0,3] vs [3,5] overlap" false
    (E.region_disjoint ctx_i [ ivl (int 0) (int 3) ] [ ivl (int 3) (int 5) ]);
  check_bool "rank mismatch is never disjoint" false
    (E.region_disjoint ctx_i [ ivl (int 0) (int 2) ]
       [ ivl (int 3) (int 5); pt (int 0) ])

let test_containment () =
  check_bool "i in [0,5] under i<6" true
    (E.region_contains ctx_i ~outer:[ ivl (int 0) (int 5) ]
       ~inner:[ pt (var i_sym) ]);
  check_bool "i+1 not provably in [0,5]" false
    (E.region_contains ctx_i ~outer:[ ivl (int 0) (int 5) ]
       ~inner:[ pt (add (var i_sym) (int 1)) ]);
  check_bool "[1,4] in [0,5]" true
    (E.region_contains ctx_i ~outer:[ ivl (int 0) (int 5) ]
       ~inner:[ ivl (int 1) (int 4) ])

let test_in_range () =
  check_bool "i in [0,6)" true
    (E.in_range ctx_i (aff (var i_sym)) ~lo:Affine.zero ~hi_excl:(aff (int 6)));
  check_bool "i not provably in [0,5)" false
    (E.in_range ctx_i (aff (var i_sym)) ~lo:Affine.zero ~hi_excl:(aff (int 5)))

let test_covers () =
  let a = Sym.fresh "a" and b = Sym.fresh "b" in
  let ranges_of v =
    if Sym.equal v a then Some (0, 2) else if Sym.equal v b then Some (0, 3) else None
  in
  check_bool "3a + b covers [0,6) bijectively" true
    (E.covers ~ranges_of [ aff (add (mul (int 3) (var a)) (var b)) ] [ 6 ]);
  check_bool "2a + b does not cover [0,6)" false
    (E.covers ~ranges_of [ aff (add (mul (int 2) (var a)) (var b)) ] [ 6 ]);
  check_bool "two dims (a, b) cover 2 x 3" true
    (E.covers ~ranges_of [ aff (var a); aff (var b) ] [ 2; 3 ])

(* --- inferred accesses --------------------------------------------------- *)

(* dst[i] = src[i]: an assign-only copy instruction shape *)
let copy_callee =
  let dst = Sym.fresh "dst" and src = Sym.fresh "src" in
  let i = Sym.fresh "i" in
  mk_proc ~name:"cp"
    ~args:[ tensor_arg dst Dtype.F32 [ int 4 ]; tensor_arg src Dtype.F32 [ int 4 ] ]
    [ loop i (int 0) (int 4) [ assign dst [ var i ] (rd src [ var i ]) ] ]

let modes_of p name =
  let sym =
    (List.find (fun (a : arg) -> Sym.name a.a_name = name) p.p_args).a_name
  in
  match List.find_opt (fun (s, _) -> Sym.equal s sym) (E.param_modes p) with
  | Some (_, ms) -> ms
  | None -> []

let test_param_modes () =
  check_bool "dst is write-only" true (modes_of copy_callee "dst" = [ E.MWrite ]);
  check_bool "src is read-only" true (modes_of copy_callee "src" = [ E.MRead ])

let test_call_effects () =
  (* a call's windows take the callee's modes, not conservative write *)
  let x = Sym.fresh "x" and y = Sym.fresh "y" in
  let body = [ call copy_callee [ win x [ ivn (int 0) (int 4) ]; win y [ ivn (int 0) (int 4) ] ] ] in
  let accs = E.collect body in
  let of_buf s = List.filter (fun (a : E.access) -> Sym.equal a.E.buf s) accs in
  check_bool "x (dst slot) is written" true
    (List.exists E.is_write (of_buf x));
  check_bool "y (src slot) is read" true
    (List.exists (fun (a : E.access) -> a.E.mode = E.MRead) (of_buf y));
  check_bool "y (src slot) is never written" false
    (List.exists E.is_write (of_buf y))

let test_proc_signature () =
  let p = Exo_ukr_gen.Source.ukernel_ref_simple () in
  let fp name =
    let sym =
      (List.find (fun (a : arg) -> Sym.name a.a_name = name) p.p_args).a_name
    in
    List.assoc sym (E.proc_signature p)
  in
  let c = fp "C" and ac = fp "Ac" and alpha = fp "alpha" in
  check_bool "C is written" true (c.E.writes <> None);
  check_bool "C is read (accumulation)" true (c.E.reads <> None);
  check_bool "Ac is read-only" true (ac.E.reads <> None && ac.E.writes = None);
  check_bool "alpha is unused in the simple reference" true
    (alpha.E.reads = None && alpha.E.writes = None)

(* --- the preservation certificate ---------------------------------------- *)

let dim0 = 6
let dim1 = 8

let mk_copy_proc () =
  let src = Sym.fresh "src" and dst = Sym.fresh "dst" in
  let i = Sym.fresh "i" and j = Sym.fresh "j" in
  let p =
    mk_proc ~name:"p"
      ~args:
        [
          tensor_arg src Dtype.F32 [ int dim0; int dim1 ];
          tensor_arg dst Dtype.F32 [ int dim0; int dim1 ];
        ]
      [
        loop i (int 0) (int dim0)
          [ loop j (int 0) (int dim1)
              [ assign dst [ var i; var j ] (rd src [ var i; var j ]) ] ];
      ]
  in
  (p, src, dst)

let test_preserves_refl () =
  let p, _, _ = mk_copy_proc () in
  check_bool "p preserves p" true (E.preserves ~old_p:p ~new_p:p = Ok ())

let test_preserves_new_write () =
  let p, src, _ = mk_copy_proc () in
  let q = { p with p_body = p.p_body @ [ assign src [ int 0; int 0 ] (flt 0.0) ] } in
  check_bool "writing the read-only src is rejected" true
    (Result.is_error (E.preserves ~old_p:p ~new_p:q))

let test_preserves_escape () =
  let p, src, dst = mk_copy_proc () in
  (* provably outside the original [0, dim0) x [0, dim1) write hull *)
  let q =
    {
      p with
      p_body = p.p_body @ [ assign dst [ int (dim0 + 1); int 0 ] (rd src [ int 0; int 0 ]) ];
    }
  in
  check_bool "a provable write-footprint escape is rejected" true
    (Result.is_error (E.preserves ~old_p:p ~new_p:q))

let test_preserves_fresh_buffer () =
  let p, _, _ = mk_copy_proc () in
  let other = Sym.fresh "other" in
  let q =
    {
      p with
      p_args = p.p_args @ [ tensor_arg other Dtype.F32 [ int 2 ] ];
      p_body = p.p_body @ [ assign other [ int 0 ] (flt 1.0) ];
    }
  in
  check_bool "touching a buffer the original never accessed is rejected" true
    (Result.is_error (E.preserves ~old_p:p ~new_p:q))

(* --- qcheck soundness: admitted rewrites are bit-exact ------------------- *)

(* Same random-program shape as test_sched_random; the oracle runs both
   procs through the interpreter. *)

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

let gen_leaf ctx : stmt QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* i0 = gen_index ctx ~bound:dim0 in
  let* i1 = gen_index ctx ~bound:dim1 in
  let* r0 = gen_index ctx ~bound:dim0 in
  let* r1 = gen_index ctx ~bound:dim1 in
  let read = Read (ctx.src, [ r0; r1 ]) in
  let* e = oneofl [ read; Binop (Add, read, Float 1.0); Float 2.0 ] in
  oneofl [ SAssign (ctx.dst, [ i0; i1 ], e); SReduce (ctx.dst, [ i0; i1 ], e) ]

let loop_name_pool = [| "i"; "j"; "p"; "q" |]

let rec gen_body ctx ~(depth : int) : stmt list QCheck2.Gen.t =
  let open QCheck2.Gen in
  if depth = 0 then map (fun s -> [ s ]) (gen_leaf ctx)
  else
    let* n_stmts = int_range 1 2 in
    list_repeat n_stmts
      (let* make_loop = bool in
       if make_loop then
         let* ext = oneofl [ 2; 3; 4; 6 ] in
         let v = Sym.fresh loop_name_pool.(depth mod Array.length loop_name_pool) in
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

let run_interp (p : proc) ~(seed : int) : B.t =
  let st = Random.State.make [| seed |] in
  let mk () =
    let b = B.create ~init:0.0 Dtype.F32 [ dim0; dim1 ] in
    B.fill b (fun _ -> float_of_int (Random.State.int st 9 - 4));
    b
  in
  let src = mk () and dst = mk () in
  I.run p [ I.VBuf src; I.VBuf dst ];
  dst

let equivalent p q =
  List.for_all
    (fun seed -> B.equal (run_interp p ~seed) (run_interp q ~seed))
    [ 1; 2; 3 ]

let sound (xform : proc -> proc) (p : proc) : bool =
  match xform p with
  | p' -> equivalent p p'
  | exception Sched.Sched_error _ -> true

let loop_names_of (p : proc) : string list =
  let acc = ref [] in
  iter_stmts
    (function SFor (v, _, _, _) -> acc := Sym.name v :: !acc | _ -> ())
    p.p_body;
  List.sort_uniq compare !acc

let pick_loop (p : proc) (salt : int) : string option =
  match loop_names_of p with
  | [] -> None
  | l -> Some (List.nth l (abs salt mod List.length l))

(* one property over the oracle-driven primitives: the effect-based legality
   answers must never admit a meaning-changing rewrite *)
let prop_oracle_sound =
  QCheck2.Test.make
    ~name:"effect-oracle-admitted rewrites are bit-exact (interpreter)"
    ~count:200
    QCheck2.Gen.(pair gen_proc (int_range 0 1000))
    (fun (p, salt) ->
      match pick_loop p salt with
      | None -> true
      | Some v ->
          let xform p =
            match salt mod 4 with
            | 0 -> (
                match pick_loop p (salt + 1) with
                | Some w when w <> v -> Sched.reorder_loops p (v ^ " " ^ w)
                | _ -> Sched.reorder_loops p (v ^ " " ^ v))
            | 1 -> Sched.fuse_loops p v
            | 2 ->
                let pat = if salt mod 2 = 0 then "dst[_] = _" else "dst[_] += _" in
                Sched.autofission p ~gap:(Sched.After pat) ~n_lifts:(1 + (salt mod 2))
            | _ -> Sched.remove_loop p v
          in
          sound xform p)

(* the certificate itself must hold on every admitted rewrite (the
   primitives raise internally if not, but pin it from the outside too) *)
let prop_certificate =
  QCheck2.Test.make
    ~name:"admitted rewrites carry the effect-preservation certificate"
    ~count:120
    QCheck2.Gen.(pair gen_proc (int_range 0 1000))
    (fun (p, salt) ->
      match pick_loop p salt with
      | None -> true
      | Some v -> (
          match Sched.fuse_loops p v with
          | p' -> E.preserves ~old_p:p ~new_p:p' = Ok ()
          | exception Sched.Sched_error _ -> true))

let () =
  Alcotest.run "effects"
    [
      ( "region algebra",
        [
          Alcotest.test_case "point disjointness" `Quick test_point_disjoint;
          Alcotest.test_case "interval disjointness" `Quick test_interval_disjoint;
          Alcotest.test_case "containment" `Quick test_containment;
          Alcotest.test_case "in_range" `Quick test_in_range;
          Alcotest.test_case "coverage bijection" `Quick test_covers;
        ] );
      ( "inference",
        [
          Alcotest.test_case "param_modes" `Quick test_param_modes;
          Alcotest.test_case "call windows take callee modes" `Quick test_call_effects;
          Alcotest.test_case "proc_signature of the reference kernel" `Quick
            test_proc_signature;
        ] );
      ( "preservation",
        [
          Alcotest.test_case "reflexive" `Quick test_preserves_refl;
          Alcotest.test_case "new write rejected" `Quick test_preserves_new_write;
          Alcotest.test_case "footprint escape rejected" `Quick test_preserves_escape;
          Alcotest.test_case "fresh buffer rejected" `Quick test_preserves_fresh_buffer;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_oracle_sound; prop_certificate ] );
    ]
