(** The micro-kernel execution tiers built on the tape lowering.

    A generated kernel with the signature [(KC: size, alpha: dt[1],
    Ac: dt[KC,MR], Bc: dt[KC,NR], beta: dt[1], C: dt[NR,MR])] is
    symbolically executed once into a tape of straight-line memory
    operations ({!Summary}), which {!Exo_check.Tierlint} proves over. Two
    executors serve the GEMM driver from it: the monomorphized float32
    loop nests for the f32 kits, and the tape itself, run as closures, for
    every other dtype. The tree-walking {!Interp} is the definitional
    oracle for both, and serves whatever the lowering refuses. *)

open Exo_ir
open Ir

(** The interpreter's [num] tag is statically determined: [Var] only ever
    holds integers (buffers read through [Read]), [Read] always yields data.
    Mixed binops promote to float exactly like [Interp.to_float]. *)
let rec is_int (e : expr) : bool =
  match e with
  | Int _ | Var _ | Stride _ | Cmp _ | And _ | Or _ | Not _ -> true
  | Float _ | Read _ -> false
  | Neg a -> is_int a
  | Binop (_, a, b) -> is_int a && is_int b

(* ------------------------------------------------------------------ *)
(* The auditable access summary of a lowered tape (see the interface)  *)

module Summary = struct
  type space = A | B | C | Slab
  type operand = { sp : space; base : int; kstep : int }
  type rhs = Const of float | Read of operand | Bin of binop * rhs * rhs | Neg of rhs
  type op = { dst : operand; reduce : bool; rhs : rhs }
  type seg = { in_loop : bool; ops : op list }

  type t = {
    mr : int;
    nr : int;
    dt : Dtype.t;
    slab : int;
    kc_pos : bool;
    n_preds : int;
    segs : seg list;
  }

  let space_name = function A -> "A" | B -> "B" | C -> "C" | Slab -> "slab"
end

(* ------------------------------------------------------------------ *)
(* Micro-kernel tape lowering                                          *)

(** The audit lowering for the one proc shape the GEMM hot path runs tens
    of thousands of times per matrix: the generated micro-kernel signature
    [(KC: size, alpha: dt[1], Ac: dt[KC,MR], Bc: dt[KC,NR], beta: dt[1],
    C: dt[NR,MR])].

    The proc is {e symbolically executed} at lowering time: every loop
    except the single KC-trip k loop is fully unrolled, every instruction
    call is inlined with its window geometry folded to constants, and every
    register-memory cell ([SAlloc]) becomes a fixed slot in one flat scratch
    slab. What survives is a tape of straight-line memory operations whose
    addresses are affine in k alone ([base + k*step] into Ac, Bc, C or the
    slab): the {!Summary.t} that {!Exo_check.Tierlint} proves over and the
    executors below run.

    Soundness: the lowering refuses anything it cannot describe exactly.
    Structural refusals (non-affine indices, data reads of alpha or beta, a
    read of a slab cell the tape has not provably written — the
    interpreter's NaN-init semantics — symbolic loop nests, unsupported
    expression shapes) make [lower] return [None]; such procs run on the
    interpreter. Slab addresses are checked statically here. *)
module Ukr_lower = struct
  open Summary

  exception Bail

  let op_budget = 200_000

  (** Affine integer value [ak*k + akc*KC + a0] over the k-loop counter and
      the runtime depth KC. *)
  type aff = { ak : int; akc : int; a0 : int }

  let aconst n = { ak = 0; akc = 0; a0 = n }
  let aadd x y = { ak = x.ak + y.ak; akc = x.akc + y.akc; a0 = x.a0 + y.a0 }
  let asub x y = { ak = x.ak - y.ak; akc = x.akc - y.akc; a0 = x.a0 - y.a0 }
  let aneg x = { ak = -x.ak; akc = -x.akc; a0 = -x.a0 }
  let ascale n x = { ak = n * x.ak; akc = n * x.akc; a0 = n * x.a0 }
  let aisconst x = x.ak = 0 && x.akc = 0
  let aconstv x = if aisconst x then x.a0 else raise Bail

  (** A lowering-time view: which memory space it aliases ([None] for the
      alpha/beta scalars, whose data reads we refuse), its flat offset, and
      constant per-dimension strides. *)
  type uview = { vsp : space option; voff : aff; vstr : int list }

  type sval = SInt of aff | SView of uview

  type wstat = WUncond | WInLoop

  (** A condition known at lowering time, or one that depends on the
      runtime depth KC. *)
  type bval = BConst of bool | BKc

  type st = {
    env : sval Sym.Tbl.t;
    mutable slab_len : int;
    written : (int, wstat) Hashtbl.t;
    body_writes : (int, unit) Hashtbl.t;
    mutable in_k : bool;
    mutable needs_kc_pos : bool;
    mutable n_rt_preds : int;
    mutable cur : op list;  (* reversed ops of the open segment *)
    mutable finished : seg list;  (* reversed finished segments *)
    mutable nops : int;
    elt : Dtype.t;
  }

  (* ---------------- symbolic evaluation ---------------- *)

  let rec eint st (e : expr) : aff =
    match e with
    | Int n -> aconst n
    | Var v -> (
        match Sym.Tbl.find_opt st.env v with
        | Some (SInt a) -> a
        | _ -> raise Bail)
    | Binop (Add, a, b) -> aadd (eint st a) (eint st b)
    | Binop (Sub, a, b) -> asub (eint st a) (eint st b)
    | Binop (Mul, a, b) ->
        let x = eint st a and y = eint st b in
        if aisconst x then ascale x.a0 y
        else if aisconst y then ascale y.a0 x
        else raise Bail
    | Binop (Div, a, b) ->
        let x = aconstv (eint st a) and y = aconstv (eint st b) in
        if y = 0 then raise Bail;
        aconst (x / y)
    | Binop (Mod, a, b) ->
        let x = aconstv (eint st a) and y = aconstv (eint st b) in
        if y = 0 then raise Bail;
        aconst (x mod y)
    | Neg a -> aneg (eint st a)
    | Stride (b, d) -> (
        match Sym.Tbl.find_opt st.env b with
        | Some (SView v) -> (
            match List.nth_opt v.vstr d with
            | Some s -> aconst s
            | None -> raise Bail)
        | _ -> raise Bail)
    | Cmp _ | And _ | Or _ | Not _ -> (
        match ebool st e with
        | BConst b -> aconst (if b then 1 else 0)
        | BKc -> raise Bail)
    | Float _ | Read _ -> raise Bail

  and ebool st (e : expr) : bval =
    match e with
    | Cmp (op, a, b) ->
        let x = eint st a and y = eint st b in
        if x.ak <> 0 || y.ak <> 0 then raise Bail;
        if x.akc <> 0 || y.akc <> 0 then BKc
        else
          let c = compare x.a0 y.a0 in
          BConst
            (match op with
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0
            | Eq -> c = 0
            | Ne -> c <> 0)
    | And (a, b) -> (
        match ebool st a with
        | BConst false -> BConst false
        | BConst true -> ebool st b
        | BKc -> ( match ebool st b with BConst false -> BConst false | _ -> BKc))
    | Or (a, b) -> (
        match ebool st a with
        | BConst true -> BConst true
        | BConst false -> ebool st b
        | BKc -> ( match ebool st b with BConst true -> BConst true | _ -> BKc))
    | Not a -> ( match ebool st a with BConst b -> BConst (not b) | BKc -> BKc)
    | _ ->
        let x = eint st e in
        if x.ak <> 0 then raise Bail
        else if x.akc = 0 then BConst (x.a0 <> 0)
        else BKc

  let eview st (w : window) : uview =
    let base =
      match Sym.Tbl.find_opt st.env w.wbuf with
      | Some (SView v) -> v
      | _ -> raise Bail
    in
    if List.length w.widx <> List.length base.vstr then raise Bail;
    let voff = ref base.voff and kept = ref [] in
    List.iter2
      (fun wa stride ->
        match wa with
        | Pt e -> voff := aadd !voff (ascale stride (eint st e))
        | Iv (lo, _hi) ->
            voff := aadd !voff (ascale stride (eint st lo));
            kept := stride :: !kept)
      w.widx base.vstr;
    { vsp = base.vsp; voff = !voff; vstr = List.rev !kept }

  let operand_of st (v : uview) (idx : aff list) : operand =
    if List.length idx <> List.length v.vstr then raise Bail;
    let a = List.fold_left2 (fun acc i s -> aadd acc (ascale s i)) v.voff idx v.vstr in
    if a.akc <> 0 then raise Bail;
    match v.vsp with
    | None -> raise Bail
    | Some Slab ->
        if a.ak <> 0 then raise Bail;
        if a.a0 < 0 || a.a0 >= st.slab_len then raise Bail;
        { sp = Slab; base = a.a0; kstep = 0 }
    | Some sp -> { sp; base = a.a0; kstep = a.ak }

  (* Slab reads must be provably preceded by a write: the interpreter
     allocates register memory NaN-initialized, so a read of a never-written
     cell is observable. A cell written only inside the k loop and read
     after it needs kc >= 1 at runtime (flagged, guarded per call). *)
  let check_read st (o : operand) =
    if o.sp = Slab then
      if Hashtbl.mem st.body_writes o.base then ()
      else
        match Hashtbl.find_opt st.written o.base with
        | Some WUncond -> ()
        | Some WInLoop -> if not st.in_k then st.needs_kc_pos <- true
        | None -> raise Bail

  let mark_write st (o : operand) =
    if o.sp = Slab then
      if st.in_k then Hashtbl.replace st.body_writes o.base ()
      else Hashtbl.replace st.written o.base WUncond

  let rec edata st (e : expr) : rhs =
    if is_int e then Const (float_of_int (aconstv (eint st e)))
    else
      match e with
      | Float f -> Const f
      | Read (b, idx) ->
          let v =
            match Sym.Tbl.find_opt st.env b with
            | Some (SView v) -> v
            | _ -> raise Bail
          in
          let o = operand_of st v (List.map (eint st) idx) in
          check_read st o;
          Read o
      | Binop (bop, a, b) -> (
          match bop with
          | Add | Sub | Mul | Div -> Bin (bop, edata st a, edata st b)
          | Mod -> raise Bail (* "% on data values" is a runtime error *))
      | Neg a -> Neg (edata st a)
      | Int _ | Var _ | Stride _ | Cmp _ | And _ | Or _ | Not _ -> raise Bail

  (* ---------------- statement execution ---------------- *)

  let emit st o =
    st.nops <- st.nops + 1;
    if st.nops > op_budget then raise Bail;
    st.cur <- o :: st.cur

  let flush st ~loop =
    let ops = List.rev st.cur in
    st.cur <- [];
    if ops <> [] then st.finished <- { in_loop = loop; ops } :: st.finished

  let rec estmt st (s : stmt) : unit =
    match s with
    | SAssign (b, idx, rhs) -> write st b idx rhs false
    | SReduce (b, idx, rhs) -> write st b idx rhs true
    | SAlloc (b, dt, dims, _mem) ->
        if dt <> st.elt then raise Bail;
        let ds = List.map (fun d -> aconstv (eint st d)) dims in
        if List.exists (fun d -> d < 0) ds then raise Bail;
        Sym.Tbl.replace st.env b
          (SView
             {
               vsp = Some Slab;
               voff = aconst st.slab_len;
               vstr = Array.to_list (Buffer.row_major_strides (Array.of_list ds));
             });
        st.slab_len <- st.slab_len + List.fold_left ( * ) 1 ds
    | SFor (v, lo, hi, body) ->
        let l = eint st lo and h = eint st hi in
        if aisconst l && aisconst h then begin
          (* constant trip count: unroll *)
          for i = l.a0 to h.a0 - 1 do
            Sym.Tbl.replace st.env v (SInt (aconst i));
            List.iter (estmt st) body
          done;
          Sym.Tbl.remove st.env v
        end
        else begin
          (* the (single, non-nested) symbolic KC loop *)
          if st.in_k then raise Bail;
          if not (aisconst l && l.a0 = 0 && h.ak = 0 && h.akc = 1 && h.a0 = 0)
          then raise Bail;
          flush st ~loop:false;
          st.in_k <- true;
          Sym.Tbl.replace st.env v (SInt { ak = 1; akc = 0; a0 = 0 });
          List.iter (estmt st) body;
          Sym.Tbl.remove st.env v;
          st.in_k <- false;
          Hashtbl.iter
            (fun a () ->
              match Hashtbl.find_opt st.written a with
              | Some WUncond -> ()
              | _ -> Hashtbl.replace st.written a WInLoop)
            st.body_writes;
          Hashtbl.reset st.body_writes;
          flush st ~loop:true
        end
    | SCall (p, args) ->
        if List.length args <> List.length p.p_args then raise Bail;
        List.iter2
          (fun (a : arg) ca ->
            match (a.a_typ, ca) with
            | (TSize | TIndex | TBool), AExpr e ->
                Sym.Tbl.replace st.env a.a_name (SInt (eint st e))
            | (TScalar _ | TTensor _), AWin w ->
                Sym.Tbl.replace st.env a.a_name (SView (eview st w))
            | _ -> raise Bail)
          p.p_args args;
        List.iter
          (fun pr ->
            match ebool st pr with
            | BConst true -> ()
            | BConst false -> raise Bail
            | BKc -> st.n_rt_preds <- st.n_rt_preds + 1)
          p.p_preds;
        List.iter (estmt st) p.p_body
    | SIf (c, t, e) -> (
        match ebool st c with
        | BConst true -> List.iter (estmt st) t
        | BConst false -> List.iter (estmt st) e
        | BKc -> raise Bail)

  and write st b idx rhs red =
    let v =
      match Sym.Tbl.find_opt st.env b with
      | Some (SView v) -> v
      | _ -> raise Bail
    in
    let dst = operand_of st v (List.map (eint st) idx) in
    (* the interpreter evaluates the RHS before the store *)
    let r = edata st rhs in
    if red then check_read st dst (* += reads the old value *);
    mark_write st dst;
    emit st { dst; reduce = red; rhs = r }

  (* ---------------- signature and lowering ---------------- *)

  let lower (p : proc) : Summary.t option =
    match
      (match p.p_args with
      | [ kc_a; alpha_a; ac_a; bc_a; beta_a; c_a ] ->
          (match kc_a.a_typ with TSize -> () | _ -> raise Bail);
          let dt, mr, nr =
            match (ac_a.a_typ, bc_a.a_typ, c_a.a_typ) with
            | ( TTensor (d1, [ Var s1; Int mr ]),
                TTensor (d2, [ Var s2; Int nr ]),
                TTensor (d3, [ Int nr'; Int mr' ]) )
              when Sym.equal s1 kc_a.a_name
                   && Sym.equal s2 kc_a.a_name
                   && d1 = d2 && d2 = d3 && nr' = nr && mr' = mr && mr > 0
                   && nr > 0 ->
                (d1, mr, nr)
            | _ -> raise Bail
          in
          let scal_strides (a : arg) =
            match a.a_typ with
            | TTensor (d, [ Int 1 ]) when d = dt -> [ 1 ]
            | TScalar d when d = dt -> []
            | _ -> raise Bail
          in
          let st =
            {
              env = Sym.Tbl.create 64;
              slab_len = 0;
              written = Hashtbl.create 256;
              body_writes = Hashtbl.create 64;
              in_k = false;
              needs_kc_pos = false;
              n_rt_preds = 0;
              cur = [];
              finished = [];
              nops = 0;
              elt = dt;
            }
          in
          Sym.Tbl.replace st.env kc_a.a_name (SInt { ak = 0; akc = 1; a0 = 0 });
          let bind_view (a : arg) sp str =
            Sym.Tbl.replace st.env a.a_name
              (SView { vsp = sp; voff = aconst 0; vstr = str })
          in
          bind_view alpha_a None (scal_strides alpha_a);
          bind_view beta_a None (scal_strides beta_a);
          bind_view ac_a (Some A) [ mr; 1 ];
          bind_view bc_a (Some B) [ nr; 1 ];
          bind_view c_a (Some C) [ mr; 1 ];
          List.iter
            (fun pr ->
              match ebool st pr with
              | BConst true -> ()
              | BConst false -> raise Bail
              | BKc -> st.n_rt_preds <- st.n_rt_preds + 1)
            p.p_preds;
          List.iter (estmt st) p.p_body;
          flush st ~loop:false;
          {
            mr;
            nr;
            dt;
            slab = st.slab_len;
            kc_pos = st.needs_kc_pos;
            n_preds = st.n_rt_preds;
            segs = List.rev st.finished;
          }
      | _ -> raise Bail)
    with
    | exception Bail -> None
    | l -> Some l
end


let summarize_ukr = Ukr_lower.lower

(* ------------------------------------------------------------------ *)
(* The Bigarray monomorphized tier                                     *)

type ba32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type ukr_ba =
  kc:int -> ac:ba32 -> ao:int -> bc:ba32 -> bo:int -> c:ba32 -> co:int -> unit

module BA1 = Bigarray.Array1

(* The one up-front range check of the Bigarray tier: every access of the
   executors below stays inside [ao, ao + kc*mr), [bo, bo + kc*nr) and
   [co, co + nr*mr), so after this guard they run unsafe loads/stores. *)
let ukr_ba_check ~mr ~nr ~kc ~(ac : ba32) ~ao ~(bc : ba32) ~bo ~(c : ba32) ~co =
  if
    kc < 0 || ao < 0 || bo < 0 || co < 0
    || ao + (kc * mr) > BA1.dim ac
    || bo + (kc * nr) > BA1.dim bc
    || co + (nr * mr) > BA1.dim c
  then invalid_arg "Compile.ukr_ba: operands out of range"

(* Hand-monomorphized 8x12 executor: every index expression is built from
   literal constants, which is what lets the non-flambda compiler keep the
   whole k-block in registers (a closure-captured mr/nr costs ~2x here).
   Shape: j outer; the C column lives in an unboxed float-array accumulator
   loaded once and stored once per column; the k loop runs 4-wide with the
   B operands hoisted; f32 rounding happens at the single Bigarray store.
   On integer-valued data (the repo's entire test and bench domain) the
   deferred rounding is exact; the entry's Tierlint proof establishes that
   its tape computes this reduction.
   It is kept beside [ukr_ba_generic] for hosts without the native tier
   (no [cc], or [UKRGEN_NATIVE=0]), where it serves every full tile: at
   kc=512 it measured 51.6 against 70.6 us/call (1.37x) in one run, and
   1.02-1.20x (median 1.07x, never slower) over seven runs on a 2-core
   Intel Xeon. *)
let ukr_ba_8x12 () : ukr_ba =
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    ukr_ba_check ~mr:8 ~nr:12 ~kc ~ac ~ao ~bc ~bo ~c ~co;
    (* the accumulator is allocated per call, not captured: the executor is
       re-entrant, so one table entry can serve every domain of a pool (the
       8 floats are a minor-heap blip against the kc*96 fmas that follow) *)
    let acc = Array.create_float 8 in
    for j = 0 to 11 do
      let cj = co + (j * 8) in
      for i = 0 to 7 do
        Array.unsafe_set acc i (BA1.unsafe_get c (cj + i))
      done;
      let k = ref 0 in
      while !k + 3 < kc do
        let k0 = !k in
        let b0 = BA1.unsafe_get bc (bo + (k0 * 12) + j)
        and b1 = BA1.unsafe_get bc (bo + ((k0 + 1) * 12) + j)
        and b2 = BA1.unsafe_get bc (bo + ((k0 + 2) * 12) + j)
        and b3 = BA1.unsafe_get bc (bo + ((k0 + 3) * 12) + j) in
        let a0 = ao + (k0 * 8) in
        for i = 0 to 7 do
          let v = Array.unsafe_get acc i in
          Array.unsafe_set acc i
            (v
            +. (BA1.unsafe_get ac (a0 + i) *. b0)
            +. (BA1.unsafe_get ac (a0 + 8 + i) *. b1)
            +. (BA1.unsafe_get ac (a0 + 16 + i) *. b2)
            +. (BA1.unsafe_get ac (a0 + 24 + i) *. b3))
        done;
        k := k0 + 4
      done;
      while !k < kc do
        let k0 = !k in
        let b0 = BA1.unsafe_get bc (bo + (k0 * 12) + j) in
        let a0 = ao + (k0 * 8) in
        for i = 0 to 7 do
          Array.unsafe_set acc i
            (Array.unsafe_get acc i +. (BA1.unsafe_get ac (a0 + i) *. b0))
        done;
        incr k
      done;
      for i = 0 to 7 do
        BA1.unsafe_set c (cj + i) (Array.unsafe_get acc i)
      done
    done

(* The same shape for every other (mr, nr): the table's fringe entries.
   mr/nr and their small multiples are closure-captured constants — up to
   1.37x slower per call than the hand-specialized 8x12 executor (see
   above), and fringe tiles are a small fraction of any full GEMM. *)
let ukr_ba_generic ~(mr : int) ~(nr : int) : ukr_ba =
  let mr2 = 2 * mr and mr3 = 3 * mr in
  let nr2 = 2 * nr and nr3 = 3 * nr in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    ukr_ba_check ~mr ~nr ~kc ~ac ~ao ~bc ~bo ~c ~co;
    (* per-call accumulator — re-entrant, shareable across domains *)
    let acc = Array.create_float mr in
    for j = 0 to nr - 1 do
      let cj = co + (j * mr) in
      for i = 0 to mr - 1 do
        Array.unsafe_set acc i (BA1.unsafe_get c (cj + i))
      done;
      let k = ref 0 in
      while !k + 3 < kc do
        let k0 = !k in
        let bb = bo + (k0 * nr) + j in
        let b0 = BA1.unsafe_get bc bb
        and b1 = BA1.unsafe_get bc (bb + nr)
        and b2 = BA1.unsafe_get bc (bb + nr2)
        and b3 = BA1.unsafe_get bc (bb + nr3) in
        let a0 = ao + (k0 * mr) in
        for i = 0 to mr - 1 do
          let v = Array.unsafe_get acc i in
          Array.unsafe_set acc i
            (v
            +. (BA1.unsafe_get ac (a0 + i) *. b0)
            +. (BA1.unsafe_get ac (a0 + mr + i) *. b1)
            +. (BA1.unsafe_get ac (a0 + mr2 + i) *. b2)
            +. (BA1.unsafe_get ac (a0 + mr3 + i) *. b3))
        done;
        k := k0 + 4
      done;
      while !k < kc do
        let k0 = !k in
        let b0 = BA1.unsafe_get bc (bo + (k0 * nr) + j) in
        let a0 = ao + (k0 * mr) in
        for i = 0 to mr - 1 do
          Array.unsafe_set acc i
            (Array.unsafe_get acc i +. (BA1.unsafe_get ac (a0 + i) *. b0))
        done;
        incr k
      done;
      for i = 0 to mr - 1 do
        BA1.unsafe_set c (cj + i) (Array.unsafe_get acc i)
      done
    done

(* ------------------------------------------------------------------ *)
(* The tape executor: every dtype                                      *)

(* A call's four float arrays — the A and B panels and the C tile copied
   out, and a fresh scratch slab — indexed by the operand's space. *)
let space_index = function Summary.A -> 0 | B -> 1 | C -> 2 | Slab -> 3

(* The executor's unchecked accesses stay inside the arrays it allocates,
   for every kc ≥ 0, whatever certified the entry: A and B are read only
   in the k loop, at [base + kstep·k] with 0 ≤ base < mr (nr) and
   0 ≤ kstep ≤ mr (nr) — exact for an affine address over k ∈ [0, kc-1];
   C and slab operands are fixed; only C and the slab are stored to; and
   no [%] appears (the interpreter rejects it on data). *)
let tape_in_contract (s : Summary.t) : bool =
  let ok ~in_loop ~store (o : Summary.operand) =
    let panel w =
      in_loop && (not store) && 0 <= o.base && o.base < w && 0 <= o.kstep
      && o.kstep <= w
    in
    match o.sp with
    | Summary.A -> panel s.mr
    | B -> panel s.nr
    | C -> o.kstep = 0 && 0 <= o.base && o.base < s.mr * s.nr
    | Slab -> o.kstep = 0 && 0 <= o.base && o.base < s.slab
  in
  let rec rhs_ok ~in_loop = function
    | Summary.Const _ -> true
    | Read o -> ok ~in_loop ~store:false o
    | Bin (Mod, _, _) -> false
    | Bin (_, x, y) -> rhs_ok ~in_loop x && rhs_ok ~in_loop y
    | Neg x -> rhs_ok ~in_loop x
  in
  List.for_all
    (fun (sg : Summary.seg) ->
      let in_loop = sg.in_loop in
      List.for_all
        (fun (op : Summary.op) ->
          ok ~in_loop ~store:true op.dst && rhs_ok ~in_loop op.rhs)
        sg.ops)
    s.segs

(* One tape step over the four spaces, run for each loop counter k in
   [k0, k1) — a loop segment of one step runs its whole k loop in one
   call; every other step is called with [k, k+1). *)
type step = float array array -> int -> int -> unit

let rec tape_rhs (r : Summary.rhs) : float array array -> int -> float =
  match r with
  | Const v -> fun _ _ -> v
  | Read { sp; base; kstep } ->
      let s = space_index sp in
      fun m k -> Array.unsafe_get (Array.unsafe_get m s) (base + (kstep * k))
  | Neg x ->
      let fx = tape_rhs x in
      fun m k -> -.fx m k
  | Bin (op, x, y) -> (
      let fx = tape_rhs x and fy = tape_rhs y in
      match op with
      | Add -> fun m k -> fx m k +. fy m k
      | Sub -> fun m k -> fx m k -. fy m k
      | Mul -> fun m k -> fx m k *. fy m k
      | Div | Mod -> fun m k -> fx m k /. fy m k)

let op_step dt (o : Summary.op) : step =
  let f = tape_rhs o.rhs and sd = space_index o.dst.sp in
  let b = o.dst.base and ks = o.dst.kstep in
  fun m k0 k1 ->
    let da = Array.unsafe_get m sd in
    for k = k0 to k1 - 1 do
      let v = f m k and a = b + (ks * k) in
      let v = if o.reduce then Array.unsafe_get da a +. v else v in
      Array.unsafe_set da a (Buffer.round_dtype dt v)
    done

(* The op shapes that fuse: [d += x·y], and [d = x] (whose [y] is [x]). *)
type fusable = {
  fma : bool;
  d : Summary.operand;
  x : Summary.operand;
  y : Summary.operand;
}

let fusable (o : Summary.op) : fusable option =
  match (o.reduce, o.rhs) with
  | true, Bin (Mul, Read x, Read y) -> Some { fma = true; d = o.dst; x; y }
  | false, Read x -> Some { fma = false; d = o.dst; x; y = x }
  | _ -> None

(* The base deltas from [a] to [b] when one loop can run both. *)
let deltas a b =
  let same (p : Summary.operand) (q : Summary.operand) =
    p.sp = q.sp && p.kstep = q.kstep
  in
  if a.fma = b.fma && same a.d b.d && same a.x b.x && same a.y b.y then
    Some (b.d.base - a.d.base, b.x.base - a.x.base, b.y.base - a.y.base)
  else None

(* [n] fused ops — an inlined vector instruction's lanes — as one loop:
   op j touches each operand at its base plus j times its delta. *)
let run_step dt ~n { fma; d; x; y } (dd, dx, dy) : step =
  let sd = space_index d.sp and sx = space_index x.sp and sy = space_index y.sp in
  fun m k0 k1 ->
    let da = Array.unsafe_get m sd
    and xa = Array.unsafe_get m sx
    and ya = Array.unsafe_get m sy in
    for k = k0 to k1 - 1 do
      let db = d.base + (d.kstep * k)
      and xb = x.base + (x.kstep * k)
      and yb = y.base + (y.kstep * k) in
      if fma then
        for j = 0 to n - 1 do
          let a = db + (j * dd) in
          Array.unsafe_set da a
            (Buffer.round_dtype dt
               (Array.unsafe_get da a
               +. (Array.unsafe_get xa (xb + (j * dx))
                  *. Array.unsafe_get ya (yb + (j * dy)))))
        done
      else
        for j = 0 to n - 1 do
          Array.unsafe_set da (db + (j * dd))
            (Buffer.round_dtype dt (Array.unsafe_get xa (xb + (j * dx))))
        done
    done

(* A segment's ops as steps: each maximal run of fusable ops whose
   addresses advance by fixed deltas becomes one, a lone fusable op a run
   of one. *)
let segment_steps dt (ops : Summary.op list) : step list =
  let rec extend n prev ds ops =
    match ops with
    | o :: tl -> (
        match fusable o with
        | Some f when deltas prev f = Some ds -> extend (n + 1) f ds tl
        | _ -> (n, ops))
    | [] -> (n, ops)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | o :: rest -> (
        match fusable o with
        | None -> go (op_step dt o :: acc) rest
        | Some f -> (
            let next = match rest with o2 :: _ -> fusable o2 | [] -> None in
            match Option.bind next (deltas f) with
            | Some ds ->
                let n, tl = extend 1 f ds rest in
                go (run_step dt ~n f ds :: acc) tl
            | None -> go (run_step dt ~n:1 f (0, 0, 0) :: acc) rest))
  in
  go [] ops

let tape_exec (s : Summary.t) : ukr_ba =
  let segs =
    List.map
      (fun (sg : Summary.seg) ->
        (sg.in_loop, Array.of_list (segment_steps s.dt sg.ops)))
      s.segs
  in
  let mr = s.mr and nr = s.nr and slab = s.slab in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    ukr_ba_check ~mr ~nr ~kc ~ac ~ao ~bc ~bo ~c ~co;
    let copy ba o n =
      let a = Array.create_float n in
      for i = 0 to n - 1 do
        Array.unsafe_set a i (BA1.unsafe_get ba (o + i))
      done;
      a
    in
    let cs = copy c co (nr * mr) in
    let a = copy ac ao (kc * mr) and b = copy bc bo (kc * nr) in
    (* NaN-initialized like the interpreter's register memory *)
    let m = [| a; b; cs; Array.make slab Float.nan |] in
    List.iter
      (fun (in_loop, steps) ->
        match steps with
        | [| st |] when in_loop -> st m 0 kc
        | _ when in_loop ->
            for k = 0 to kc - 1 do
              Array.iter (fun st -> st m k (k + 1)) steps
            done
        | _ -> Array.iter (fun st -> st m 0 1) steps)
      segs;
    for i = 0 to (nr * mr) - 1 do
      BA1.unsafe_set c (co + i) (Array.unsafe_get cs i)
    done

let tape_ukr_ba (s : Summary.t) : ukr_ba option =
  if s.n_preds = 0 && (not s.kc_pos) && tape_in_contract s then Some (tape_exec s)
  else None

(* The dynamic cross-check of Tierlint's static verdict: run the proc
   through the interpreter on integer-valued probes, over buffers of its
   own dtype, and demand the canonical C[j,i] += sum_k Ac[k,i]*Bc[k,j]
   answer, bit for bit. The probe values keep every partial sum an exact
   integer of the dtype (|v| <= 1000 and kc <= 8 within binary32's and
   int32's exact range, |v| <= 3 within binary16's), so each rounding step
   is the identity and a schedule that reassociates the k-sum still
   matches; a proc computing a different function is rejected. *)
let probe_ukr_ba (p : proc) ~(mr : int) ~(nr : int) : bool =
  let dt =
    match p.p_args with
    | [ _; _; { a_typ = TTensor (dt, _); _ }; _; _; _ ] -> dt
    | _ -> Dtype.F32
  in
  let bound = if dt = Dtype.F16 then 3 else 1000 in
  let buf dims data = Interp.VBuf (Buffer.of_array dt dims data) in
  let probe kc seed =
    let st = Random.State.make [| 0x6ba; seed; kc; mr; nr |] in
    let rnd () = float_of_int (Random.State.int st ((2 * bound) + 1) - bound) in
    let ac = Array.init (kc * mr) (fun _ -> rnd ()) in
    let bc = Array.init (kc * nr) (fun _ -> rnd ()) in
    let c = Array.init (nr * mr) (fun _ -> rnd ()) in
    let expect =
      Array.init (nr * mr) (fun idx ->
          let j = idx / mr and i = idx mod mr in
          let s = ref c.(idx) in
          for k = 0 to kc - 1 do
            s := !s +. (ac.((k * mr) + i) *. bc.((k * nr) + j))
          done;
          !s)
    in
    match
      Interp.run p
        [
          Interp.VInt kc;
          buf [ 1 ] [| 1.0 |];
          buf [ kc; mr ] ac;
          buf [ kc; nr ] bc;
          buf [ 1 ] [| 1.0 |];
          buf [ nr; mr ] c;
        ]
    with
    | () -> c = expect
    | exception _ -> false
  in
  probe 1 17 && probe 3 29 && probe 8 41

(* The executor of an access summary, cold or warm — the one place
   executors are selected: the monomorphized f32 nests by (mr, nr), the
   tape for every other dtype. No runtime predicates and no kc>0
   requirement, so the executor's single up-front range check is the
   complete guard. *)
let ukr_ba_of_summary (s : Summary.t) : ukr_ba option =
  if s.n_preds <> 0 || s.kc_pos then None
  else if s.dt <> Dtype.F32 then tape_ukr_ba s
  else
    match (s.mr, s.nr) with
    | 8, 12 -> Some (ukr_ba_8x12 ())
    | mr, nr -> Some (ukr_ba_generic ~mr ~nr)
