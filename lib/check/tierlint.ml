(** Translation validation for the lowered micro-kernel execution tiers.
    See the interface for the property catalogue. *)

open Exo_ir
module S = Exo_interp.Compile.Summary

type verdict = Proved | Unproved of string

type report = {
  r_mr : int;
  r_nr : int;
  r_bounds : verdict;
  r_writes : verdict;
  r_accshape : verdict;
}

let ok = function Proved -> true | Unproved _ -> false
let proved (r : report) = ok r.r_bounds && ok r.r_writes && ok r.r_accshape

let pp_verdict ppf = function
  | Proved -> Fmt.pf ppf "proved"
  | Unproved m -> Fmt.pf ppf "UNPROVED (%s)" m

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>%dx%d: bounds %a; writes %a; accshape %a@]" r.r_mr r.r_nr
    pp_verdict r.r_bounds pp_verdict r.r_writes pp_verdict r.r_accshape

(* ------------------------------------------------------------------ *)
(* Operand traversal *)

(* Apply [f] to every operand of the tape (destinations and reads alike),
   tagged with whether it sits in the k loop. Each statement's destination
   comes first, then its reads from right to left — the order that decides
   which failure a pass reports. *)
let iter_operands (s : S.t) f =
  let rec reads in_loop = function
    | S.Const _ -> ()
    | S.Read o -> f ~in_loop o
    | S.Bin (_, a, b) ->
        reads in_loop b;
        reads in_loop a
    | S.Neg a -> reads in_loop a
  in
  List.iter
    (fun (sg : S.seg) ->
      let in_loop = sg.S.in_loop in
      List.iter
        (fun (op : S.op) ->
          f ~in_loop op.S.dst;
          reads in_loop op.S.rhs)
        sg.S.ops)
    s.S.segs

(* ------------------------------------------------------------------ *)
(* (a) bounds: every access inside the hoisted contract *)

(* The single up-front range check of the compiled tiers guarantees, for
   kc ≥ 0 and non-negative panel offsets: |A| ≥ kc·mr, |B| ≥ kc·nr,
   |C| ≥ nr·mr past the respective bases. The slab's extent is the
   lowering's own [slab] length. Each space's contract is thus the
   interval [0, hc·kc + h0) — (hc, h0) = (mr, 0) for A, (nr, 0) for B,
   (0, mr·nr) for C and (0, slab) for the slab. *)
let hc (s : S.t) = function S.A -> s.S.mr | S.B -> s.S.nr | S.C | S.Slab -> 0

let h0 (s : S.t) = function
  | S.A | S.B -> 0
  | S.C -> s.S.mr * s.S.nr
  | S.Slab -> s.S.slab

(* Operand [base + kstep·k] lies in [0, hc·kc + h0) for every kc ≥ 1 and
   every k ∈ [0, kc-1] iff 0 ≤ kstep ≤ hc and 0 ≤ base < hc + h0: kc = 1,
   k = 0 bounds the base, and letting kc grow with k = kc-1 bounds the
   step (the address then advances by kstep per kc against hc). This is
   exactly the verdict the affine-interval substitution of the {!Effects}
   region algebra reaches on this fragment, decided in integer compares;
   the oracle property in [test_tierlint] keeps the two in step. *)
let inside (s : S.t) (o : S.operand) =
  let hc = hc s o.S.sp in
  0 <= o.S.kstep && o.S.kstep <= hc && 0 <= o.S.base
  && o.S.base < hc + h0 s o.S.sp

(* Each access must lie inside its space's contract for EVERY kc the guard
   admits — loop operands may assume k ∈ [0, kc-1] (so kc ≥ 1 whenever
   they execute); straight-line operands execute even at kc = 0, where the
   contract guarantees no A/B elements at all, so panel accesses outside
   the loop are rejected outright, and a C or slab access there must be a
   constant inside [0, h0). *)
let check_bounds (s : S.t) : verdict =
  let bad = ref None in
  let fail m = if !bad = None then bad := Some m in
  iter_operands s (fun ~in_loop (o : S.operand) ->
      let name = S.space_name o.S.sp in
      match o.S.sp with
      | (S.A | S.B) when not in_loop ->
          (* at kc = 0 the contract covers zero panel elements *)
          fail
            (Fmt.str "%s[%d] accessed outside the k loop (contract empty at kc=0)"
               name o.S.base)
      | _ when (not in_loop) && o.S.kstep <> 0 ->
          fail (Fmt.str "%s operand has a k step outside the k loop" name)
      | _ ->
          if not (inside s o) then
            fail
              (Fmt.str "%s[%d%+d·k] not provably inside its contract" name
                 o.S.base o.S.kstep));
  match !bad with None -> Proved | Some m -> Unproved m

(* ------------------------------------------------------------------ *)
(* (b) write-set containment *)

(* Every store must target the entry's own nr·mr C tile or its private
   scratch slab — never the shared packed panels. Combined with the
   row-slice geometry of [Gemm.blis_ba] (each task owns disjoint C rows
   and its own A arena, tile and slabs; the shared B block is only read),
   this is a static race-freedom and width-invariance proof for the pool
   fan-out: no two tasks can write one location, at any pool width.

   A store address must not move with k. In the loop, any k step walks
   out of the fixed tile or slab as kc grows; outside the loop the
   summary promises kstep = 0, so a step there is a malformed summary and
   is rejected by name rather than by any bound on a free k. *)
let check_writes (s : S.t) : verdict =
  let bad = ref None in
  let fail m = if !bad = None then bad := Some m in
  List.iter
    (fun (sg : S.seg) ->
      List.iter
        (fun (op : S.op) ->
          let o = op.S.dst in
          match o.S.sp with
          | S.A | S.B ->
              fail
                (Fmt.str "store into the shared %s panel" (S.space_name o.S.sp))
          | (S.C | S.Slab) as sp ->
              if o.S.kstep <> 0 || o.S.base < 0 || o.S.base >= h0 s sp then
                fail
                  (Fmt.str "store %s[%d%+d·k] escapes the entry's tile"
                     (S.space_name sp) o.S.base o.S.kstep))
        sg.S.ops)
    s.S.segs;
  match !bad with None -> Proved | Some m -> Unproved m

(* ------------------------------------------------------------------ *)
(* (c) accumulation shape *)

(* One packed-panel element at symbolic k: [sp[base + kstep·k]]. *)
type atom = { a_sp : [ `A | `B ]; a_base : int; a_kstep : int }

(* The abstract value of one C/slab cell: its initial contribution plus a
   list of products, each summed over the whole k loop. Anything the
   domain cannot represent exactly poisons the cell (sound: Unproved). *)
type cell =
  | CBad of string
  | CVal of init * (atom * atom) list

and init = IOrigC of int | IConstF of float

let cell_add a b =
  match (a, b) with
  | CBad m, _ | _, CBad m -> CBad m
  | CVal (i, t1), CVal (IConstF 0.0, t2) -> CVal (i, t1 @ t2)
  | CVal (IConstF 0.0, t1), CVal (i, t2) -> CVal (i, t1 @ t2)
  | CVal _, CVal _ -> CBad "non-canonical addition of two initialized values"

(* Symbolic execution of the tape over per-cell states. Straight-line
   segments execute once with constant addresses; the k-loop body is
   interpreted per-iteration: staging copies (panel element -> slab cell)
   become iteration-local atoms, and [dst += atom · atom] appends one
   loop-summed product to the carried cell. Any other loop-body shape
   poisons the destination. *)
let check_accshape (s : S.t) : verdict =
  if s.S.kc_pos then
    Unproved "tape demands kc ≥ 1 (post-loop read of a loop-written cell)"
  else begin
    let mr = s.S.mr and nr = s.S.nr in
    let cstate = Array.init (mr * nr) (fun i -> CVal (IOrigC i, [])) in
    let sstate = Array.make (max 1 s.S.slab) (CBad "uninitialized scratch") in
    let in_c i = i >= 0 && i < mr * nr in
    let in_s i = i >= 0 && i < s.S.slab in
    let exec_flat (op : S.op) =
      let rec eval = function
        | S.Const f -> CVal (IConstF f, [])
        | S.Read o -> (
            match o.S.sp with
            | S.C when in_c o.S.base -> cstate.(o.S.base)
            | S.Slab when in_s o.S.base -> sstate.(o.S.base)
            | _ -> CBad "unsupported straight-line read")
        | S.Bin (Ir.Add, a, b) -> cell_add (eval a) (eval b)
        | S.Bin _ | S.Neg _ -> CBad "unsupported straight-line arithmetic"
      in
      let v = eval op.S.rhs in
      let store st idx =
        st.(idx) <- (if op.S.reduce then cell_add st.(idx) v else v)
      in
      match op.S.dst.S.sp with
      | S.C when in_c op.S.dst.S.base -> store cstate op.S.dst.S.base
      | S.Slab when in_s op.S.dst.S.base -> store sstate op.S.dst.S.base
      | _ -> ()
      (* out-of-space stores are the write-set pass's finding *)
    in
    let exec_loop (ops : S.op list) =
      (* slab cells assigned this iteration, holding one panel element *)
      let iter : (int, atom option) Hashtbl.t = Hashtbl.create 16 in
      let atom_of = function
        | S.Read (o : S.operand) -> (
            match o.S.sp with
            | S.A -> Some { a_sp = `A; a_base = o.S.base; a_kstep = o.S.kstep }
            | S.B -> Some { a_sp = `B; a_base = o.S.base; a_kstep = o.S.kstep }
            | S.Slab when o.S.kstep = 0 -> (
                match Hashtbl.find_opt iter o.S.base with
                | Some a -> a
                | None -> None)
            | _ -> None)
        | _ -> None
      in
      let poison st idx m =
        if idx >= 0 && idx < Array.length st then st.(idx) <- CBad m
      in
      let add_term st idx a b =
        if idx >= 0 && idx < Array.length st then
          st.(idx) <-
            (match st.(idx) with
            | CVal (i, ts) -> CVal (i, ts @ [ (a, b) ])
            | CBad _ as bad -> bad)
      in
      List.iter
        (fun (op : S.op) ->
          let d = op.S.dst in
          match d.S.sp with
          | S.A | S.B -> () (* write-set pass rejects *)
          | (S.C | S.Slab) as sp -> (
              let st = if sp = S.C then cstate else sstate in
              if d.S.kstep <> 0 then
                poison st d.S.base "k-dependent store address in the loop body"
              else if not op.S.reduce then
                if sp = S.Slab then begin
                  (* staging copy: iteration-local; the carried value is
                     rewritten every iteration, so it is dead after the
                     loop unless kc_pos flagged a read (excluded above) *)
                  Hashtbl.replace iter d.S.base (atom_of op.S.rhs);
                  poison st d.S.base "slab cell overwritten every iteration"
                end
                else poison st d.S.base "C overwritten inside the k loop"
              else if sp = S.Slab && Hashtbl.mem iter d.S.base then
                poison st d.S.base "accumulate onto an iteration-local cell"
              else
                match op.S.rhs with
                | S.Bin (Ir.Mul, x, y) -> (
                    match (atom_of x, atom_of y) with
                    | Some a, Some b -> add_term st d.S.base a b
                    | _ ->
                        poison st d.S.base
                          "accumulate of a non-panel-product in the k loop")
                | _ ->
                    poison st d.S.base "non-product accumulate in the k loop"))
        ops
    in
    List.iter
      (fun (sg : S.seg) ->
        if sg.S.in_loop then exec_loop sg.S.ops
        else List.iter exec_flat sg.S.ops)
      s.S.segs;
    (* every C cell must now hold exactly C₀ + Σ_k A[i+k·mr]·B[j+k·nr] *)
    let bad = ref None in
    let fail m = if !bad = None then bad := Some m in
    for idx = 0 to (mr * nr) - 1 do
      let i = idx mod mr and j = idx / mr in
      let is_a a = a.a_sp = `A && a.a_base = i && a.a_kstep = mr in
      let is_b a = a.a_sp = `B && a.a_base = j && a.a_kstep = nr in
      match cstate.(idx) with
      | CVal (IOrigC b, [ (x, y) ])
        when b = idx && ((is_a x && is_b y) || (is_a y && is_b x)) ->
          ()
      | CVal (IOrigC b, []) when b = idx ->
          fail (Fmt.str "C[%d,%d] never receives the A·B reduction" j i)
      | CVal _ ->
          fail (Fmt.str "C[%d,%d] receives a non-canonical reduction" j i)
      | CBad m -> fail (Fmt.str "C[%d,%d]: %s" j i m)
    done;
    match !bad with None -> Proved | Some m -> Unproved m
  end

(* ------------------------------------------------------------------ *)

let check (s : S.t) : report =
  {
    r_mr = s.S.mr;
    r_nr = s.S.nr;
    r_bounds = check_bounds s;
    r_writes = check_writes s;
    r_accshape = check_accshape s;
  }

let c_write_indices (s : S.t) ~(kc : int) : int list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (sg : S.seg) ->
      List.iter
        (fun (op : S.op) ->
          if op.S.dst.S.sp = S.C then
            if sg.S.in_loop then
              for k = 0 to kc - 1 do
                Hashtbl.replace tbl (op.S.dst.S.base + (k * op.S.dst.S.kstep)) ()
              done
            else Hashtbl.replace tbl op.S.dst.S.base ())
        sg.S.ops)
    s.S.segs;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
