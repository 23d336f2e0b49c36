(** Compile-once/run-many execution engine.

    Lowers an {!Exo_ir.Ir.proc} to nested OCaml closures so that the repeated
    evaluations the paper's methodology relies on — tuner sweeps, equivalence
    checks, real-numerics GEMM tiles — stop re-walking the IR tree:

    - every symbol is resolved at compile time to an integer slot in a flat
      frame (no [Sym.Map] lookups at runtime);
    - expressions are statically sorted into integer and float paths, so no
      boxed [num] values are allocated during execution;
    - buffer accesses are specialized by arity and compute their flat element
      address directly against the buffer's strides (no per-access index
      lists or arrays);
    - instruction calls are {e inlined}: the callee's semantic body is
      compiled against the call site, window arguments become views — an
      offset and per-dimension extent/stride integers written into caller
      frame slots, no [Buffer.t] is allocated per call — and the callee's
      preconditions run in a once-per-call prologue;
    - innermost loops whose body is a single assign/reduce with loop-constant
      strides (exactly the shape of every ISA instruction's semantic body)
      are fused: after an entry-time resolution that re-checks every bounds
      condition the interpreter would check, the loop runs as a tight
      float-array kernel with pre-flattened addresses.

    Runtime behaviour is observationally identical to {!Interp}: the same
    per-dtype rounding on every write, the same bounds and precondition
    checks, the same evaluation strategy. Whenever a fast path cannot
    reproduce the interpreter's behaviour exactly (a rank mismatch, an
    out-of-bounds index, an unsupported expression shape) the compiled code
    falls back to the general closure path, which raises the interpreter's
    errors verbatim. A qcheck property in the test suite asserts bit-identical
    output buffers against the tree-walking interpreter, which stays in the
    repository as the definitional oracle. *)

open Exo_ir
open Ir

let rerr fmt = Fmt.kstr (fun s -> raise (Interp.Runtime_error s)) fmt
let berr fmt = Fmt.kstr (fun s -> raise (Buffer.Bounds s)) fmt

(* ------------------------------------------------------------------ *)
(* Frames and compile-time slot assignment                             *)

(** Runtime frame: integer bindings (sizes, indices, loop variables, window
    geometry) live in [ints], tensors/scalars in [bufs]; a binder's slot
    index is fixed at compile time. *)
type frame = { ints : int array; bufs : Buffer.t array }

(** A window argument of an inlined call: the backing buffer's slot plus the
    slots holding the view's offset and per-dimension extents and strides.
    The view's rank is static (window specs have a fixed shape); only the
    integers inside are per-call. *)
type view = {
  v_data : int;  (** [bufs] slot of the backing buffer *)
  v_off : int;  (** [ints] slot of the flat offset *)
  v_dims : int array;  (** [ints] slots of the extents *)
  v_strides : int array;  (** [ints] slots of the strides *)
}

type slot =
  | SInt of int
  | SConst of int  (** integer argument of an inlined call that is a literal *)
  | SBuf of int
  | SView of view

type ctx = {
  slots : slot Sym.Tbl.t;
  mutable nints : int;
  mutable nbufs : int;
}

let new_ctx () = { slots = Sym.Tbl.create 16; nints = 0; nbufs = 0 }

(** Reserve an anonymous integer slot (window geometry of inlined calls). *)
let alloc_int ctx =
  let i = ctx.nints in
  ctx.nints <- i + 1;
  i

let bind_int ctx v =
  let i = alloc_int ctx in
  Sym.Tbl.replace ctx.slots v (SInt i);
  i

let bind_buf ctx v =
  let i = ctx.nbufs in
  ctx.nbufs <- i + 1;
  Sym.Tbl.replace ctx.slots v (SBuf i);
  i

(* Placeholder for buffer slots that have not been bound yet. *)
let dummy_buf = Buffer.create ~init:0.0 Dtype.F32 []

let mk_frame ~nints ~nbufs =
  { ints = Array.make (max nints 1) 0; bufs = Array.make (max nbufs 1) dummy_buf }

(** Fetch-closure for a buffer-valued symbol. A view is materialized into a
    fresh [Buffer.t] (only general/fallback paths do this — hot paths read
    the view slots directly). Unbound or integer-valued symbols compile to
    raising closures, preserving the interpreter's lazy runtime errors on
    ill-formed (dead) code. *)
let cbuf ctx (b : Sym.t) : frame -> Buffer.t =
  match Sym.Tbl.find_opt ctx.slots b with
  | Some (SBuf i) -> fun f -> f.bufs.(i)
  | Some (SView v) ->
      fun f ->
        let base = f.bufs.(v.v_data) in
        {
          base with
          Buffer.offset = f.ints.(v.v_off);
          dims = Array.map (fun s -> f.ints.(s)) v.v_dims;
          strides = Array.map (fun s -> f.ints.(s)) v.v_strides;
        }
  | Some (SInt _ | SConst _) -> fun _ -> rerr "expected a buffer"
  | None -> fun _ -> rerr "unbound symbol %a at runtime" Sym.pp_debug b

(* ------------------------------------------------------------------ *)
(* Static expression sorts                                             *)

(** The interpreter's [num] tag is statically determined: [Var] only ever
    holds integers (buffers read through [Read]), [Read] always yields data.
    Mixed binops promote to float exactly like [Interp.to_float]. *)
let rec is_int (e : expr) : bool =
  match e with
  | Int _ | Var _ | Stride _ | Cmp _ | And _ | Or _ | Not _ -> true
  | Float _ | Read _ -> false
  | Neg a -> is_int a
  | Binop (_, a, b) -> is_int a && is_int b

let rec mentions v (e : expr) : bool =
  match e with
  | Var u -> Sym.equal u v
  | Int _ | Float _ -> false
  | Stride (b, _) -> Sym.equal b v
  | Neg a | Not a -> mentions v a
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      mentions v a || mentions v b
  | Read (b, idx) -> Sym.equal b v || List.exists (mentions v) idx

let rec has_read (e : expr) : bool =
  match e with
  | Read _ -> true
  | Int _ | Float _ | Var _ | Stride _ -> false
  | Neg a | Not a -> has_read a
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      has_read a || has_read b

(* ------------------------------------------------------------------ *)
(* Fused-loop plans                                                    *)

(** One array leaf of a fused loop: at loop entry [resolve] (stored
    separately) re-establishes the backing array, the flat address at loop
    counter 0, and the per-iteration address step, re-checking every bound
    the general path would check. *)
type lplan = {
  mutable lp_data : float array;
  mutable lp_base : int;
  mutable lp_step : int;
  mutable lp_dt : Dtype.t;
}

(** How one access dimension depends on the fused loop counter: indexed by
    the counter itself, or loop-invariant (closure evaluated at entry). *)
type lkind = LI | LInv of (frame -> int)

(** RHS of a fusable statement, as a tree over the loop counter. Leaves are
    live per-element array reads (so source/destination aliasing behaves
    exactly like the general path); constants are loop-invariant read-free
    subexpressions hoisted to an entry-time cell. The common instruction-body
    shapes (copy, scale, multiply-accumulate) get dedicated loop runners. *)
type fnode =
  | FLeaf of lplan
  | FIdx  (** the loop counter itself, as data *)
  | FConst of float ref
  | FBin of binop * fnode * fnode
  | FNeg of fnode

(** Exactly {!Buffer.round_dtype}[ F32], locally inlinable: the unboxed
    external pair keeps the hot loops allocation-free. *)
let f32_round (x : float) : float = Int32.float_of_bits (Int32.bits_of_float x)

(* ------------------------------------------------------------------ *)
(* Compiled procedures (general call path)                             *)

type pslot = PInt of int | PBuf of int

(** A compiled procedure: frame geometry, parameter slots in signature
    order, compiled preconditions (with their sources, for error messages),
    and the compiled body. *)
type cproc = {
  cp_nints : int;
  cp_nbufs : int;
  cp_params : pslot array;
  cp_preds : (frame -> bool) array;
  cp_pred_srcs : expr array;
  cp_body : frame -> unit;
}

(* Instruction procs are shared global constants; memoize their general-path
   compilation (by physical identity) so the call sites {!cinline} declines
   reuse one compiled body. Top-level [compile] entries are NOT memoized
   here, so compiling many ephemeral procs (property tests) cannot grow this
   table. Domain-local: a [cproc] closes over mutable plan cells, so each
   domain compiles its own copy (a handful of tiny instruction bodies)
   rather than sharing non-re-entrant closures across domains. *)
let instr_cache : (proc * cproc) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)

let rec cint ctx (e : expr) : frame -> int =
  if not (is_int e) then (
    (* the interpreter evaluates first (possibly raising Bounds), then
       rejects the float *)
    let g = cflt ctx e in
    fun f ->
      ignore (g f);
      rerr "expected an integer, got a float in %s" (Pp.expr_to_string e))
  else
    match e with
    | Int n -> fun _ -> n
    | Var v -> (
        match Sym.Tbl.find_opt ctx.slots v with
        | Some (SInt i) -> fun f -> f.ints.(i)
        | Some (SConst n) -> fun _ -> n
        | Some (SBuf _ | SView _) ->
            fun _ -> rerr "buffer %a used as a scalar" Sym.pp v
        | None -> fun _ -> rerr "unbound symbol %a at runtime" Sym.pp_debug v)
    | Stride (b, d) -> (
        match Sym.Tbl.find_opt ctx.slots b with
        | Some (SView v) ->
            let n = Array.length v.v_strides in
            if d < 0 || d >= n then fun _ ->
              rerr "stride dimension %d out of range" d
            else
              let s = v.v_strides.(d) in
              fun f -> f.ints.(s)
        | _ ->
            let bc = cbuf ctx b in
            fun f ->
              let buf = bc f in
              let n = Buffer.rank buf in
              if d < 0 || d >= n then rerr "stride dimension %d out of range" d;
              buf.Buffer.strides.(d))
    | Binop (op, a, b) -> (
        let fa = cint ctx a and fb = cint ctx b in
        match op with
        | Add -> fun f -> fa f + fb f
        | Sub -> fun f -> fa f - fb f
        | Mul -> fun f -> fa f * fb f
        | Div ->
            fun f ->
              let x = fa f and y = fb f in
              if y = 0 then rerr "division by zero";
              x / y
        | Mod ->
            fun f ->
              let x = fa f and y = fb f in
              if y = 0 then rerr "modulo by zero";
              x mod y)
    | Neg a ->
        let fa = cint ctx a in
        fun f -> -fa f
    | Cmp (op, a, b) ->
        let cmp =
          if is_int a && is_int b then
            let fa = cint ctx a and fb = cint ctx b in
            fun f -> compare (fa f) (fb f)
          else
            let fa = cflt ctx a and fb = cflt ctx b in
            fun f -> Float.compare (fa f) (fb f)
        in
        (match op with
        | Lt -> fun f -> if cmp f < 0 then 1 else 0
        | Le -> fun f -> if cmp f <= 0 then 1 else 0
        | Gt -> fun f -> if cmp f > 0 then 1 else 0
        | Ge -> fun f -> if cmp f >= 0 then 1 else 0
        | Eq -> fun f -> if cmp f = 0 then 1 else 0
        | Ne -> fun f -> if cmp f <> 0 then 1 else 0)
    | And (a, b) ->
        let fa = cbool ctx a and fb = cbool ctx b in
        fun f -> if fa f && fb f then 1 else 0
    | Or (a, b) ->
        let fa = cbool ctx a and fb = cbool ctx b in
        fun f -> if fa f || fb f then 1 else 0
    | Not a ->
        let fa = cbool ctx a in
        fun f -> if fa f then 0 else 1
    | Float _ | Read _ -> assert false (* not is_int *)

(** Booleans compile natively (no 0/1 round-trip): comparisons branch
    directly, connectives short-circuit. Semantics match {!cint}'s encoding
    exactly — float comparisons go through [Float.compare], so NaN ordering
    is identical. *)
and cbool ctx (e : expr) : frame -> bool =
  match e with
  | Cmp (op, a, b) when is_int a && is_int b -> (
      let fa = cint ctx a and fb = cint ctx b in
      match op with
      | Lt -> fun f -> fa f < fb f
      | Le -> fun f -> fa f <= fb f
      | Gt -> fun f -> fa f > fb f
      | Ge -> fun f -> fa f >= fb f
      | Eq -> fun f -> fa f = fb f
      | Ne -> fun f -> fa f <> fb f)
  | Cmp (op, a, b) -> (
      let fa = cflt ctx a and fb = cflt ctx b in
      match op with
      | Lt -> fun f -> Float.compare (fa f) (fb f) < 0
      | Le -> fun f -> Float.compare (fa f) (fb f) <= 0
      | Gt -> fun f -> Float.compare (fa f) (fb f) > 0
      | Ge -> fun f -> Float.compare (fa f) (fb f) >= 0
      | Eq -> fun f -> Float.compare (fa f) (fb f) = 0
      | Ne -> fun f -> Float.compare (fa f) (fb f) <> 0)
  | And (a, b) ->
      let fa = cbool ctx a and fb = cbool ctx b in
      fun f -> fa f && fb f
  | Or (a, b) ->
      let fa = cbool ctx a and fb = cbool ctx b in
      fun f -> fa f || fb f
  | Not a ->
      let fa = cbool ctx a in
      fun f -> not (fa f)
  | Int n ->
      let b = n <> 0 in
      fun _ -> b
  | _ ->
      let g = cint ctx e in
      fun f -> g f <> 0

and cflt ctx (e : expr) : frame -> float =
  if is_int e then (
    let g = cint ctx e in
    fun f -> float_of_int (g f))
  else
    match e with
    | Float x -> fun _ -> x
    | Read (b, idx) -> (
        match Sym.Tbl.find_opt ctx.slots b with
        | Some (SView v) ->
            let ad = cvaddr ctx v idx in
            fun f -> f.bufs.(v.v_data).Buffer.data.(ad f)
        | _ ->
            let bc = cbuf ctx b and ad = caddr ctx idx in
            fun f ->
              let buf = bc f in
              buf.Buffer.data.(ad buf f))
    | Binop (op, a, b) -> (
        let fa = cflt ctx a and fb = cflt ctx b in
        match op with
        | Add -> fun f -> fa f +. fb f
        | Sub -> fun f -> fa f -. fb f
        | Mul -> fun f -> fa f *. fb f
        | Div -> fun f -> fa f /. fb f
        | Mod ->
            fun f ->
              ignore (fa f);
              ignore (fb f);
              rerr "%% on data values")
    | Neg a ->
        let fa = cflt ctx a in
        fun f -> -.(fa f)
    | Int _ | Var _ | Stride _ | Cmp _ | And _ | Or _ | Not _ ->
        assert false (* is_int *)

(** Flat element address of [buf[idx]], specialized by arity so no index
    array is materialized; same bounds discipline as {!Buffer.addr}. *)
and caddr ctx (idx : expr list) : Buffer.t -> frame -> int =
  let oob i d ext = berr "index %d out of bounds for dimension %d (extent %d)" i d ext in
  let rank_mismatch n r = berr "rank mismatch: %d indices for rank %d" n r in
  match List.map (cint ctx) idx with
  | [] ->
      fun buf _ ->
        if Buffer.rank buf <> 0 then rank_mismatch 0 (Buffer.rank buf);
        buf.Buffer.offset
  | [ i0 ] ->
      fun buf f ->
        if Buffer.rank buf <> 1 then rank_mismatch 1 (Buffer.rank buf);
        let x0 = i0 f in
        if x0 < 0 || x0 >= buf.Buffer.dims.(0) then oob x0 0 buf.Buffer.dims.(0);
        buf.Buffer.offset + (x0 * buf.Buffer.strides.(0))
  | [ i0; i1 ] ->
      fun buf f ->
        if Buffer.rank buf <> 2 then rank_mismatch 2 (Buffer.rank buf);
        let x0 = i0 f in
        if x0 < 0 || x0 >= buf.Buffer.dims.(0) then oob x0 0 buf.Buffer.dims.(0);
        let x1 = i1 f in
        if x1 < 0 || x1 >= buf.Buffer.dims.(1) then oob x1 1 buf.Buffer.dims.(1);
        buf.Buffer.offset + (x0 * buf.Buffer.strides.(0)) + (x1 * buf.Buffer.strides.(1))
  | [ i0; i1; i2 ] ->
      fun buf f ->
        if Buffer.rank buf <> 3 then rank_mismatch 3 (Buffer.rank buf);
        let x0 = i0 f in
        if x0 < 0 || x0 >= buf.Buffer.dims.(0) then oob x0 0 buf.Buffer.dims.(0);
        let x1 = i1 f in
        if x1 < 0 || x1 >= buf.Buffer.dims.(1) then oob x1 1 buf.Buffer.dims.(1);
        let x2 = i2 f in
        if x2 < 0 || x2 >= buf.Buffer.dims.(2) then oob x2 2 buf.Buffer.dims.(2);
        buf.Buffer.offset
        + (x0 * buf.Buffer.strides.(0))
        + (x1 * buf.Buffer.strides.(1))
        + (x2 * buf.Buffer.strides.(2))
  | cs ->
      let cs = Array.of_list cs in
      let n = Array.length cs in
      fun buf f ->
        if Buffer.rank buf <> n then rank_mismatch n (Buffer.rank buf);
        let a = ref buf.Buffer.offset in
        for d = 0 to n - 1 do
          let x = cs.(d) f in
          if x < 0 || x >= buf.Buffer.dims.(d) then oob x d buf.Buffer.dims.(d);
          a := !a + (x * buf.Buffer.strides.(d))
        done;
        !a

(** Flat element address of a view access, reading geometry from the caller
    frame's integer slots; same checks and messages as {!caddr}. *)
and cvaddr ctx (v : view) (idx : expr list) : frame -> int =
  let oob i d ext = berr "index %d out of bounds for dimension %d (extent %d)" i d ext in
  let n = Array.length v.v_dims in
  let m = List.length idx in
  if m <> n then fun _ -> berr "rank mismatch: %d indices for rank %d" m n
  else
    let off = v.v_off in
    match List.map (cint ctx) idx with
    | [] -> fun f -> f.ints.(off)
    | [ i0 ] ->
        let d0 = v.v_dims.(0) and s0 = v.v_strides.(0) in
        fun f ->
          let x0 = i0 f in
          let e0 = f.ints.(d0) in
          if x0 < 0 || x0 >= e0 then oob x0 0 e0;
          f.ints.(off) + (x0 * f.ints.(s0))
    | [ i0; i1 ] ->
        let d0 = v.v_dims.(0) and s0 = v.v_strides.(0) in
        let d1 = v.v_dims.(1) and s1 = v.v_strides.(1) in
        fun f ->
          let x0 = i0 f in
          let e0 = f.ints.(d0) in
          if x0 < 0 || x0 >= e0 then oob x0 0 e0;
          let x1 = i1 f in
          let e1 = f.ints.(d1) in
          if x1 < 0 || x1 >= e1 then oob x1 1 e1;
          f.ints.(off) + (x0 * f.ints.(s0)) + (x1 * f.ints.(s1))
    | cs ->
        let cs = Array.of_list cs in
        fun f ->
          let a = ref f.ints.(off) in
          for d = 0 to n - 1 do
            let x = cs.(d) f in
            let e = f.ints.(v.v_dims.(d)) in
            if x < 0 || x >= e then oob x d e;
            a := !a + (x * f.ints.(v.v_strides.(d)))
          done;
          !a

(* ------------------------------------------------------------------ *)
(* Windows                                                             *)

(** Compile a window into a view-building closure (the runtime half of
    {!Buffer.view}, with the index closures pre-compiled). General path:
    allocates a fresh [Buffer.t] per call. *)
and cwindow ctx (w : window) : frame -> Buffer.t =
  let bc = cbuf ctx w.wbuf in
  let spec =
    Array.of_list
      (List.map
         (function
           | Pt e -> `P (cint ctx e)
           | Iv (lo, hi) -> `I (cint ctx lo, cint ctx hi))
         w.widx)
  in
  let out_rank =
    Array.fold_left (fun n s -> match s with `I _ -> n + 1 | `P _ -> n) 0 spec
  in
  fun f ->
    let buf = bc f in
    if Array.length spec <> Buffer.rank buf then
      berr "window rank mismatch on a rank-%d buffer" (Buffer.rank buf);
    let offset = ref buf.Buffer.offset in
    let dims = Array.make out_rank 0 and strides = Array.make out_rank 0 in
    let od = ref 0 in
    Array.iteri
      (fun d s ->
        match s with
        | `P g ->
            let i = g f in
            if i < 0 || i >= buf.Buffer.dims.(d) then
              berr "window point %d out of bounds in dimension %d (extent %d)" i d
                buf.Buffer.dims.(d);
            offset := !offset + (i * buf.Buffer.strides.(d))
        | `I (glo, ghi) ->
            let lo = glo f in
            let len = ghi f - lo in
            if lo < 0 || len < 0 || lo + len > buf.Buffer.dims.(d) then
              berr "window [%d, %d) out of bounds in dimension %d (extent %d)" lo
                (lo + len) d buf.Buffer.dims.(d);
            offset := !offset + (lo * buf.Buffer.strides.(d));
            dims.(!od) <- len;
            strides.(!od) <- buf.Buffer.strides.(d);
            incr od)
      spec;
    { buf with Buffer.offset = !offset; dims; strides }

(** Compile a window of an inlined call into (a) an action that, per call,
    computes the view's offset/extent/stride integers into freshly reserved
    caller-frame slots — with exactly {!Buffer.view}'s checks and error
    messages — and (b) the static [view] describing those slots. Only called
    when [w.wbuf] is in scope as a buffer or view. *)
and cwindow_view ctx (w : window) : (frame -> unit) * view =
  let spec =
    Array.of_list
      (List.map
         (function
           | Pt e -> `P (cint ctx e)
           | Iv (lo, hi) -> `I (cint ctx lo, cint ctx hi))
         w.widx)
  in
  let nspec = Array.length spec in
  let kept =
    Array.fold_left (fun n s -> match s with `I _ -> n + 1 | `P _ -> n) 0 spec
  in
  let off = alloc_int ctx in
  let dims = Array.init kept (fun _ -> alloc_int ctx) in
  let strides = Array.init kept (fun _ -> alloc_int ctx) in
  match Sym.Tbl.find_opt ctx.slots w.wbuf with
  | Some (SBuf j) ->
      let view = { v_data = j; v_off = off; v_dims = dims; v_strides = strides } in
      (* per-dimension steps chained at compile time: the accumulated offset
         travels as an (unboxed) argument, so the per-call action allocates
         nothing and performs no dispatch *)
      let rec chain d od : frame -> Buffer.t -> int -> unit =
        if d = nspec then fun f _ o -> f.ints.(off) <- o
        else
          match spec.(d) with
          | `P g ->
              let rest = chain (d + 1) od in
              fun f buf o ->
                let i = g f in
                let ext = buf.Buffer.dims.(d) in
                if i < 0 || i >= ext then
                  berr "window point %d out of bounds in dimension %d (extent %d)"
                    i d ext;
                rest f buf (o + (i * buf.Buffer.strides.(d)))
          | `I (glo, ghi) ->
              let rest = chain (d + 1) (od + 1) in
              let ds = dims.(od) and ss = strides.(od) in
              fun f buf o ->
                let lo = glo f in
                let len = ghi f - lo in
                let ext = buf.Buffer.dims.(d) in
                if lo < 0 || len < 0 || lo + len > ext then
                  berr "window [%d, %d) out of bounds in dimension %d (extent %d)"
                    lo (lo + len) d ext;
                f.ints.(ds) <- len;
                f.ints.(ss) <- buf.Buffer.strides.(d);
                rest f buf (o + (lo * buf.Buffer.strides.(d)))
      in
      let ch = chain 0 0 in
      let act f =
        let buf = f.bufs.(j) in
        if nspec <> Buffer.rank buf then
          berr "window rank mismatch on a rank-%d buffer" (Buffer.rank buf);
        ch f buf buf.Buffer.offset
      in
      (act, view)
  | Some (SView v) ->
      let r = Array.length v.v_dims in
      let view =
        { v_data = v.v_data; v_off = off; v_dims = dims; v_strides = strides }
      in
      if nspec <> r then
        ((fun _ -> berr "window rank mismatch on a rank-%d buffer" r), view)
      else
        let rec chain d od : frame -> int -> unit =
          if d = nspec then fun f o -> f.ints.(off) <- o
          else
            let de = v.v_dims.(d) and ds = v.v_strides.(d) in
            match spec.(d) with
            | `P g ->
                let rest = chain (d + 1) od in
                fun f o ->
                  let i = g f in
                  let ext = f.ints.(de) in
                  if i < 0 || i >= ext then
                    berr
                      "window point %d out of bounds in dimension %d (extent %d)"
                      i d ext;
                  rest f (o + (i * f.ints.(ds)))
            | `I (glo, ghi) ->
                let rest = chain (d + 1) (od + 1) in
                let kd = dims.(od) and ks = strides.(od) in
                fun f o ->
                  let lo = glo f in
                  let len = ghi f - lo in
                  let ext = f.ints.(de) in
                  if lo < 0 || len < 0 || lo + len > ext then
                    berr
                      "window [%d, %d) out of bounds in dimension %d (extent %d)"
                      lo (lo + len) d ext;
                  let st = f.ints.(ds) in
                  f.ints.(kd) <- len;
                  f.ints.(ks) <- st;
                  rest f (o + (lo * st))
        in
        let ch = chain 0 0 in
        let act f = ch f f.ints.(v.v_off) in
        (act, view)
  | _ -> assert false (* guarded by the caller *)

(* ------------------------------------------------------------------ *)
(* Fused loops                                                         *)

(** Build the leaf plan for an access [b[idx]] inside a loop over [v], plus
    the entry-time resolver. The resolver re-checks rank and every bound the
    general path would check per element (for the loop-indexed dimension:
    over the whole [lo, hi) range), and refreshes the plan's mutable fields.
    Returning [false] (or raising, absorbed by the caller) routes the whole
    loop to the general path, which reproduces the interpreter's error. *)
and lleaf ctx v ~push (b : Sym.t) (idx : expr list) : lplan option =
  let kinds =
    let rec go = function
      | [] -> Some []
      | e :: rest -> (
          let k =
            match e with
            | Var u when Sym.equal u v -> Some LI
            | e when not (mentions v e) -> Some (LInv (cint ctx e))
            | _ -> None
          in
          match (k, go rest) with
          | Some k, Some r -> Some (k :: r)
          | _ -> None)
    in
    go idx
  in
  match (Sym.Tbl.find_opt ctx.slots b, kinds) with
  | Some (SBuf j), Some kinds ->
      let kinds = Array.of_list kinds in
      let n = Array.length kinds in
      let p = { lp_data = [||]; lp_base = 0; lp_step = 0; lp_dt = Dtype.F32 } in
      (* per-dimension checks chained at compile time; base and step travel
         as (unboxed) arguments — no refs, no dispatch per call *)
      let rec chain d : frame -> Buffer.t -> int -> int -> int -> int -> bool =
        if d = n then
          fun _ buf _ _ base step ->
            p.lp_data <- buf.Buffer.data;
            p.lp_base <- base;
            p.lp_step <- step;
            p.lp_dt <- buf.Buffer.dtype;
            true
        else
          match kinds.(d) with
          | LI ->
              let rest = chain (d + 1) in
              fun f buf lo hi base step ->
                lo >= 0
                && hi <= buf.Buffer.dims.(d)
                && rest f buf lo hi base (step + buf.Buffer.strides.(d))
          | LInv g ->
              let rest = chain (d + 1) in
              fun f buf lo hi base step ->
                let x = g f in
                x >= 0
                && x < buf.Buffer.dims.(d)
                && rest f buf lo hi (base + (x * buf.Buffer.strides.(d))) step
      in
      let ch = chain 0 in
      let resolve f lo hi =
        let buf = f.bufs.(j) in
        Buffer.rank buf = n && ch f buf lo hi buf.Buffer.offset 0
      in
      push resolve;
      Some p
  | Some (SView vw), Some kinds ->
      let kinds = Array.of_list kinds in
      let n = Array.length kinds in
      if Array.length vw.v_dims <> n then None (* static rank mismatch *)
      else
        let p = { lp_data = [||]; lp_base = 0; lp_step = 0; lp_dt = Dtype.F32 } in
        let rec chain d : frame -> int -> int -> int -> int -> bool =
          if d = n then
            fun f _ _ base step ->
              let bb = f.bufs.(vw.v_data) in
              p.lp_data <- bb.Buffer.data;
              p.lp_base <- base;
              p.lp_step <- step;
              p.lp_dt <- bb.Buffer.dtype;
              true
          else
            let de = vw.v_dims.(d) and ds = vw.v_strides.(d) in
            match kinds.(d) with
            | LI ->
                let rest = chain (d + 1) in
                fun f lo hi base step ->
                  lo >= 0
                  && hi <= f.ints.(de)
                  && rest f lo hi base (step + f.ints.(ds))
            | LInv g ->
                let rest = chain (d + 1) in
                fun f lo hi base step ->
                  let x = g f in
                  x >= 0
                  && x < f.ints.(de)
                  && rest f lo hi (base + (x * f.ints.(ds))) step
        in
        let ch = chain 0 in
        let resolve f lo hi = ch f lo hi f.ints.(vw.v_off) 0 in
        push resolve;
        Some p
  | _ -> None

(** Build the RHS tree of a fusable statement; [None] bails out of fusion. *)
and frhs ctx v ~push (e : expr) : fnode option =
  match e with
  | Read (b, idx) -> (
      match lleaf ctx v ~push b idx with
      | Some p -> Some (FLeaf p)
      | None -> None)
  | Var u when Sym.equal u v -> Some FIdx
  | _ when (not (mentions v e)) && not (has_read e) ->
      let g = cflt ctx e in
      let r = ref 0.0 in
      push (fun f _ _ ->
          r := g f;
          true);
      Some (FConst r)
  | Binop (op, a, b) when not (is_int e) -> (
      match op with
      | Mod -> None
      | _ -> (
          match (frhs ctx v ~push a, frhs ctx v ~push b) with
          | Some fa, Some fb -> Some (FBin (op, fa, fb))
          | _ -> None))
  | Neg a when not (is_int e) -> (
      match frhs ctx v ~push a with
      | Some fa -> Some (FNeg fa)
      | None -> None)
  | _ -> None

(** Generic per-element evaluator for RHS shapes without a dedicated loop. *)
and feval (nd : fnode) : int -> float =
  match nd with
  | FLeaf p -> fun i -> p.lp_data.(p.lp_base + (i * p.lp_step))
  | FIdx -> fun i -> float_of_int i
  | FConst r -> fun _ -> !r
  | FBin (op, a, b) -> (
      let fa = feval a and fb = feval b in
      match op with
      | Add -> fun i -> fa i +. fb i
      | Sub -> fun i -> fa i -. fb i
      | Mul -> fun i -> fa i *. fb i
      | Div -> fun i -> fa i /. fb i
      | Mod -> assert false)
  | FNeg a ->
      let fa = feval a in
      fun i -> -.(fa i)

(** The loop runner: called after a successful resolve, reads the plans'
    freshly written fields and sweeps [lo, hi). The instruction-body shapes —
    copy, broadcast, scale, multiply(-accumulate) — run as tight monomorphic
    loops with the F32 rounding inlined (allocation-free); anything else
    falls back to the generic evaluator. Operand order is preserved
    everywhere (IEEE multiplication is not bit-commutative under NaN). *)
and floop ~reduce (dst : lplan) (rhs : fnode) : int -> int -> unit =
  match rhs with
  | FLeaf s when not reduce ->
      fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let sd = s.lp_data and sb = s.lp_base and ss = s.lp_step in
        (match dst.lp_dt with
        | Dtype.F32 ->
            for i = l to h - 1 do
              dd.(db + (i * ds)) <- f32_round sd.(sb + (i * ss))
            done
        | dt ->
            for i = l to h - 1 do
              dd.(db + (i * ds)) <- Buffer.round_dtype dt sd.(sb + (i * ss))
            done)
  | FLeaf s ->
      fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let sd = s.lp_data and sb = s.lp_base and ss = s.lp_step in
        (match dst.lp_dt with
        | Dtype.F32 ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <- f32_round (dd.(a) +. sd.(sb + (i * ss)))
            done
        | dt ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <- Buffer.round_dtype dt (dd.(a) +. sd.(sb + (i * ss)))
            done)
  | FConst r when not reduce ->
      fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let x = Buffer.round_dtype dst.lp_dt !r in
        for i = l to h - 1 do
          dd.(db + (i * ds)) <- x
        done
  | FConst r ->
      fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let x = !r in
        (match dst.lp_dt with
        | Dtype.F32 ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <- f32_round (dd.(a) +. x)
            done
        | dt ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <- Buffer.round_dtype dt (dd.(a) +. x)
            done)
  | FBin (Mul, FLeaf s, FLeaf t) ->
      fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let sd = s.lp_data and sb = s.lp_base and ss = s.lp_step in
        let td = t.lp_data and tb = t.lp_base and ts = t.lp_step in
        (match (dst.lp_dt, reduce) with
        | Dtype.F32, true ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <-
                f32_round (dd.(a) +. (sd.(sb + (i * ss)) *. td.(tb + (i * ts))))
            done
        | Dtype.F32, false ->
            for i = l to h - 1 do
              dd.(db + (i * ds)) <-
                f32_round (sd.(sb + (i * ss)) *. td.(tb + (i * ts)))
            done
        | dt, true ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <-
                Buffer.round_dtype dt
                  (dd.(a) +. (sd.(sb + (i * ss)) *. td.(tb + (i * ts))))
            done
        | dt, false ->
            for i = l to h - 1 do
              dd.(db + (i * ds)) <-
                Buffer.round_dtype dt (sd.(sb + (i * ss)) *. td.(tb + (i * ts)))
            done)
  | FBin (Mul, FLeaf s, FConst c) ->
      fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let sd = s.lp_data and sb = s.lp_base and ss = s.lp_step in
        let x = !c in
        (match (dst.lp_dt, reduce) with
        | Dtype.F32, true ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <- f32_round (dd.(a) +. (sd.(sb + (i * ss)) *. x))
            done
        | Dtype.F32, false ->
            for i = l to h - 1 do
              dd.(db + (i * ds)) <- f32_round (sd.(sb + (i * ss)) *. x)
            done
        | dt, true ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <- Buffer.round_dtype dt (dd.(a) +. (sd.(sb + (i * ss)) *. x))
            done
        | dt, false ->
            for i = l to h - 1 do
              dd.(db + (i * ds)) <- Buffer.round_dtype dt (sd.(sb + (i * ss)) *. x)
            done)
  | FBin (Mul, FConst c, FLeaf s) ->
      fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let sd = s.lp_data and sb = s.lp_base and ss = s.lp_step in
        let x = !c in
        (match (dst.lp_dt, reduce) with
        | Dtype.F32, true ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <- f32_round (dd.(a) +. (x *. sd.(sb + (i * ss))))
            done
        | Dtype.F32, false ->
            for i = l to h - 1 do
              dd.(db + (i * ds)) <- f32_round (x *. sd.(sb + (i * ss)))
            done
        | dt, true ->
            for i = l to h - 1 do
              let a = db + (i * ds) in
              dd.(a) <- Buffer.round_dtype dt (dd.(a) +. (x *. sd.(sb + (i * ss))))
            done
        | dt, false ->
            for i = l to h - 1 do
              dd.(db + (i * ds)) <- Buffer.round_dtype dt (x *. sd.(sb + (i * ss)))
            done)
  | nd ->
      let ev = feval nd in
      if reduce then fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let dt = dst.lp_dt in
        for i = l to h - 1 do
          let x = ev i in
          let a = db + (i * ds) in
          dd.(a) <- Buffer.round_dtype dt (dd.(a) +. x)
        done
      else fun l h ->
        let dd = dst.lp_data and db = dst.lp_base and ds = dst.lp_step in
        let dt = dst.lp_dt in
        for i = l to h - 1 do
          dd.(db + (i * ds)) <- Buffer.round_dtype dt (ev i)
        done

(** Try to fuse a loop over [v] whose body is a single assign/reduce. *)
and cfuse ctx (v : Sym.t) (inner : stmt list) :
    ((frame -> int -> int -> bool) * (int -> int -> unit)) option =
  let fuse1 ~reduce b idx e =
    let resolvers = ref [] in
    let push r = resolvers := r :: !resolvers in
    match lleaf ctx v ~push b idx with
    | None -> None
    | Some dst -> (
        match frhs ctx v ~push e with
        | None -> None
        | Some rhs ->
            let rs = Array.of_list (List.rev !resolvers) in
            let nr = Array.length rs in
            let resolve f lo hi =
              try
                let ok = ref true and i = ref 0 in
                while !ok && !i < nr do
                  if not (rs.(!i) f lo hi) then ok := false;
                  incr i
                done;
                !ok
              with _ -> false
            in
            Some (resolve, floop ~reduce dst rhs))
  in
  match inner with
  | [ SAssign (b, idx, e) ] -> fuse1 ~reduce:false b idx e
  | [ SReduce (b, idx, e) ] -> fuse1 ~reduce:true b idx e
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

and cstmts ctx (body : stmt list) : frame -> unit =
  match List.map (cstmt ctx) body with
  | [] -> fun _ -> ()
  | [ s ] -> s
  | [ s1; s2 ] ->
      fun f ->
        s1 f;
        s2 f
  | l ->
      let cs = Array.of_list l in
      let n = Array.length cs in
      fun f ->
        for i = 0 to n - 1 do
          cs.(i) f
        done

and cstmt ctx (s : stmt) : frame -> unit =
  match s with
  | SAssign (b, idx, e) -> (
      match Sym.Tbl.find_opt ctx.slots b with
      | Some (SView v) ->
          let ad = cvaddr ctx v idx and ec = cflt ctx e in
          fun f ->
            let base = f.bufs.(v.v_data) in
            let a = ad f in
            base.Buffer.data.(a) <- Buffer.round_dtype base.Buffer.dtype (ec f)
      | _ ->
          let bc = cbuf ctx b and ad = caddr ctx idx and ec = cflt ctx e in
          fun f ->
            let buf = bc f in
            let a = ad buf f in
            buf.Buffer.data.(a) <- Buffer.round_dtype buf.Buffer.dtype (ec f))
  | SReduce (b, idx, e) -> (
      match Sym.Tbl.find_opt ctx.slots b with
      | Some (SView v) ->
          let ad = cvaddr ctx v idx and ec = cflt ctx e in
          fun f ->
            let base = f.bufs.(v.v_data) in
            let a = ad f in
            let x = ec f in
            base.Buffer.data.(a) <-
              Buffer.round_dtype base.Buffer.dtype (base.Buffer.data.(a) +. x)
      | _ ->
          let bc = cbuf ctx b and ad = caddr ctx idx and ec = cflt ctx e in
          fun f ->
            let buf = bc f in
            let a = ad buf f in
            let x = ec f in
            buf.Buffer.data.(a) <-
              Buffer.round_dtype buf.Buffer.dtype (buf.Buffer.data.(a) +. x))
  | SFor (v, lo, hi, inner) -> (
      let lo_c = cint ctx lo and hi_c = cint ctx hi in
      let slot = bind_int ctx v in
      let body = cstmts ctx inner in
      match cfuse ctx v inner with
      | None ->
          fun f ->
            let l = lo_c f and h = hi_c f in
            for i = l to h - 1 do
              f.ints.(slot) <- i;
              body f
            done
      | Some (resolve, run) ->
          fun f ->
            let l = lo_c f and h = hi_c f in
            if h <= l then ()
            else if resolve f l h then run l h
            else
              for i = l to h - 1 do
                f.ints.(slot) <- i;
                body f
              done)
  | SAlloc (b, dt, dims, _) ->
      let dims_c = List.map (cint ctx) dims in
      let slot = bind_buf ctx b in
      fun f -> f.bufs.(slot) <- Buffer.create dt (List.map (fun g -> g f) dims_c)
  | SIf (c, t, e) ->
      let cc = cbool ctx c and tc = cstmts ctx t and ec = cstmts ctx e in
      fun f -> if cc f then tc f else ec f
  | SCall (p, args) -> (
      match cinline ctx p args with
      | Some run -> run
      | None -> cgeneric_call ctx p args)

(** Inline a call: compile the callee's semantic body against the call site.
    Integer arguments bind to caller-frame slots; window arguments become
    views (offset/extent/stride slots, no per-call [Buffer.t]); preconditions
    and body are compiled with the callee's parameters in scope. Runtime
    order is exactly the interpreter's: arguments left to right, then
    preconditions in order, then the body. Returns [None] — deferring to the
    general call path — whenever the site doesn't fit (arity or kind
    mismatch, window over something that isn't in scope as a buffer). *)
and cinline ctx (p : proc) (args : call_arg list) : (frame -> unit) option =
  if List.length args <> List.length p.p_args then None
  else if
    not
      (List.for_all2
         (fun (a : arg) ca ->
           match (a.a_typ, ca) with
           | (TSize | TIndex | TBool), AExpr _ -> true
           | (TScalar _ | TTensor _), AWin w -> (
               match Sym.Tbl.find_opt ctx.slots w.wbuf with
               | Some (SBuf _ | SView _) -> true
               | _ -> false)
           | _ -> false)
         p.p_args args)
  then None
  else
    let acts =
      Array.of_list
        (List.filter_map
           (fun ((a : arg), ca) ->
             match (a.a_typ, ca) with
             | (TSize | TIndex | TBool), AExpr (Int n) ->
                 (* literal argument: no slot, no per-call work — uses
                    compile to the constant *)
                 Sym.Tbl.replace ctx.slots a.a_name (SConst n);
                 None
             | (TSize | TIndex | TBool), AExpr e ->
                 let g = cint ctx e in
                 let s = bind_int ctx a.a_name in
                 Some (fun f -> f.ints.(s) <- g f)
             | _, AWin w ->
                 let act, view = cwindow_view ctx w in
                 Sym.Tbl.replace ctx.slots a.a_name (SView view);
                 Some act
             | _ -> assert false)
           (List.combine p.p_args args))
    in
    let preds = Array.of_list (List.map (cbool ctx) p.p_preds) in
    let srcs = Array.of_list p.p_preds in
    let body = cstmts ctx p.p_body in
    let na = Array.length acts and np = Array.length preds in
    let name = p.p_name in
    Some
      (fun f ->
        for i = 0 to na - 1 do
          acts.(i) f
        done;
        for i = 0 to np - 1 do
          if not (preds.(i) f) then
            rerr "call to %s: precondition %s does not hold" name
              (Pp.expr_to_string srcs.(i))
        done;
        body f)

(** General call path: per-call-site preallocated callee frame, windows
    materialized as fresh buffers. Kept for the shapes {!cinline} declines
    (and for its exact runtime errors on malformed calls). *)
and cgeneric_call ctx (p : proc) (args : call_arg list) : frame -> unit =
  if List.length args <> List.length p.p_args then fun _ ->
    rerr "call to %s: arity mismatch" p.p_name
  else
    let cp = compile_callee p in
    (* caller-side argument evaluation, writing into the callee frame *)
    let binds =
      Array.of_list
        (List.map2
           (fun pslot (a : call_arg) ->
             match (pslot, a) with
             | PInt slot, AExpr e ->
                 let g = cint ctx e in
                 fun cf (callee : frame) -> callee.ints.(slot) <- g cf
             | PBuf slot, AWin w ->
                 let g = cwindow ctx w in
                 fun cf (callee : frame) -> callee.bufs.(slot) <- g cf
             | PBuf _, AExpr _ ->
                 fun _ _ ->
                   rerr "call to %s: scalar expression for tensor parameter"
                     p.p_name
             | PInt _, AWin _ ->
                 fun _ _ ->
                   rerr "call to %s: window argument for scalar parameter"
                     p.p_name)
           (Array.to_list cp.cp_params) args)
    in
    let nb = Array.length binds in
    (* per-call-site callee frame, reused across calls: a proc is a finite
       tree, so it cannot (transitively) call itself and the frame is never
       live twice *)
    let callee = mk_frame ~nints:cp.cp_nints ~nbufs:cp.cp_nbufs in
    let preds = cp.cp_preds and srcs = cp.cp_pred_srcs in
    let np = Array.length preds in
    let body = cp.cp_body in
    let name = p.p_name in
    fun f ->
      for i = 0 to nb - 1 do
        binds.(i) f callee
      done;
      for i = 0 to np - 1 do
        if not (preds.(i) callee) then
          rerr "call to %s: precondition %s does not hold" name
            (Pp.expr_to_string srcs.(i))
      done;
      body callee

(* ------------------------------------------------------------------ *)
(* Procedures                                                          *)

and compile_proc (p : proc) : cproc =
  let ctx = new_ctx () in
  let params =
    Array.of_list
      (List.map
         (fun (a : arg) ->
           match a.a_typ with
           | TSize | TIndex | TBool -> PInt (bind_int ctx a.a_name)
           | TScalar _ | TTensor _ -> PBuf (bind_buf ctx a.a_name))
         p.p_args)
  in
  let preds = Array.of_list (List.map (cbool ctx) p.p_preds) in
  let body = cstmts ctx p.p_body in
  {
    cp_nints = ctx.nints;
    cp_nbufs = ctx.nbufs;
    cp_params = params;
    cp_preds = preds;
    cp_pred_srcs = Array.of_list p.p_preds;
    cp_body = body;
  }

and compile_callee (p : proc) : cproc =
  let cache = Domain.DLS.get instr_cache in
  match List.find_opt (fun (q, _) -> q == p) !cache with
  | Some (_, cp) -> cp
  | None ->
      let cp = compile_proc p in
      cache := (p, cp) :: !cache;
      cp

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

type t = { src : proc; cp : cproc; frame : frame }

let compile (p : proc) : t =
  let cp = compile_proc p in
  { src = p; cp; frame = mk_frame ~nints:cp.cp_nints ~nbufs:cp.cp_nbufs }

let proc (t : t) : proc = t.src

let run (t : t) (args : Interp.value list) : unit =
  let p = t.src and cp = t.cp and f = t.frame in
  if List.length args <> Array.length cp.cp_params then
    rerr "run %s: expected %d arguments, got %d" p.p_name
      (Array.length cp.cp_params) (List.length args);
  List.iteri
    (fun i (v : Interp.value) ->
      match (cp.cp_params.(i), v) with
      | PInt slot, Interp.VInt n -> f.ints.(slot) <- n
      | PBuf slot, Interp.VBuf b -> f.bufs.(slot) <- b
      | _ ->
          rerr "run %s: argument %a has the wrong kind" p.p_name Sym.pp
            (List.nth p.p_args i).a_name)
    args;
  Array.iteri
    (fun i pred ->
      if not (pred f) then
        rerr "run %s: precondition %s does not hold" p.p_name
          (Pp.expr_to_string cp.cp_pred_srcs.(i)))
    cp.cp_preds;
  cp.cp_body f

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
    slab). The tape is not executed: it is exported as a {!Summary.t} that
    {!Exo_check.Tierlint} proves over, and its eligibility flags (dtype,
    KC-dependent predicates, a kc ≥ 1 requirement) gate the Bigarray
    executors below.

    Soundness: the lowering refuses anything it cannot describe exactly.
    Structural refusals (non-affine indices, data reads of alpha or beta, a
    read of a slab cell the tape has not provably written — the
    interpreter's NaN-init semantics — symbolic loop nests, unsupported
    expression shapes) make [lower] return [None]; such procs run on the
    closure engine. Slab addresses are checked statically here. *)
module Ukr_lower = struct
  exception Bail

  let op_budget = 200_000

  type space = SpA | SpB | SpC | SpSlab

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

  (** One memory operand of a tape op: space, base, per-k step. *)
  type operand = { osp : space; ob : int; ok : int }

  type rt =
    | RConst of float
    | RRead of operand
    | RBin of binop * rt * rt
    | RNeg of rt

  type op = { o_dst : operand; o_red : bool; o_rhs : rt }
  type seg = { s_loop : bool; s_ops : op list }
  type wstat = WUncond | WInLoop
  type bval = BConst of bool | BKc of (int -> bool)

  type st = {
    env : sval Sym.Tbl.t;
    mutable slab_len : int;
    written : (int, wstat) Hashtbl.t;
    body_writes : (int, unit) Hashtbl.t;
    mutable in_loop : bool;
    mutable needs_kc_pos : bool;
    mutable rt_preds : (int -> bool) list;
    mutable cur : op list;  (* reversed ops of the open segment *)
    mutable segs : seg list;  (* reversed finished segments *)
    mutable nops : int;
    dt : Dtype.t;
  }

  let strides_of_const (ds : int list) : int list =
    let n = List.length ds in
    let a = Array.of_list ds in
    let s = Array.make n 1 in
    for i = n - 2 downto 0 do
      s.(i) <- s.(i + 1) * a.(i + 1)
    done;
    Array.to_list s

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
        | BKc _ -> raise Bail)
    | Float _ | Read _ -> raise Bail

  and ebool st (e : expr) : bval =
    match e with
    | Cmp (op, a, b) ->
        let x = eint st a and y = eint st b in
        if x.ak <> 0 || y.ak <> 0 then raise Bail;
        let f kc =
          let c = compare ((x.akc * kc) + x.a0) ((y.akc * kc) + y.a0) in
          match op with
          | Lt -> c < 0
          | Le -> c <= 0
          | Gt -> c > 0
          | Ge -> c >= 0
          | Eq -> c = 0
          | Ne -> c <> 0
        in
        if x.akc = 0 && y.akc = 0 then BConst (f 0) else BKc f
    | And (a, b) -> (
        match ebool st a with
        | BConst false -> BConst false
        | BConst true -> ebool st b
        | BKc f -> (
            match ebool st b with
            | BConst false -> BConst false
            | BConst true -> BKc f
            | BKc g -> BKc (fun kc -> f kc && g kc)))
    | Or (a, b) -> (
        match ebool st a with
        | BConst true -> BConst true
        | BConst false -> ebool st b
        | BKc f -> (
            match ebool st b with
            | BConst true -> BConst true
            | BConst false -> BKc f
            | BKc g -> BKc (fun kc -> f kc || g kc)))
    | Not a -> (
        match ebool st a with
        | BConst b -> BConst (not b)
        | BKc f -> BKc (fun kc -> not (f kc)))
    | _ ->
        let x = eint st e in
        if x.ak <> 0 then raise Bail
        else if x.akc = 0 then BConst (x.a0 <> 0)
        else BKc (fun kc -> (x.akc * kc) + x.a0 <> 0)

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
    | Some SpSlab ->
        if a.ak <> 0 then raise Bail;
        if a.a0 < 0 || a.a0 >= st.slab_len then raise Bail;
        { osp = SpSlab; ob = a.a0; ok = 0 }
    | Some sp -> { osp = sp; ob = a.a0; ok = a.ak }

  (* Slab reads must be provably preceded by a write: the interpreter
     allocates register memory NaN-initialized, so a read of a never-written
     cell is observable. A cell written only inside the k loop and read
     after it needs kc >= 1 at runtime (flagged, guarded per call). *)
  let check_read st (o : operand) =
    if o.osp = SpSlab then
      if Hashtbl.mem st.body_writes o.ob then ()
      else
        match Hashtbl.find_opt st.written o.ob with
        | Some WUncond -> ()
        | Some WInLoop -> if not st.in_loop then st.needs_kc_pos <- true
        | None -> raise Bail

  let mark_write st (o : operand) =
    if o.osp = SpSlab then
      if st.in_loop then Hashtbl.replace st.body_writes o.ob ()
      else Hashtbl.replace st.written o.ob WUncond

  let rec edata st (e : expr) : rt =
    if is_int e then RConst (float_of_int (aconstv (eint st e)))
    else
      match e with
      | Float f -> RConst f
      | Read (b, idx) ->
          let v =
            match Sym.Tbl.find_opt st.env b with
            | Some (SView v) -> v
            | _ -> raise Bail
          in
          let o = operand_of st v (List.map (eint st) idx) in
          check_read st o;
          RRead o
      | Binop (bop, a, b) -> (
          match bop with
          | Add | Sub | Mul | Div -> RBin (bop, edata st a, edata st b)
          | Mod -> raise Bail (* "% on data values" is a runtime error *))
      | Neg a -> RNeg (edata st a)
      | Int _ | Var _ | Stride _ | Cmp _ | And _ | Or _ | Not _ -> raise Bail

  (* ---------------- statement execution ---------------- *)

  let emit st o =
    st.nops <- st.nops + 1;
    if st.nops > op_budget then raise Bail;
    st.cur <- o :: st.cur

  let flush st ~loop =
    let ops = List.rev st.cur in
    st.cur <- [];
    if ops <> [] then st.segs <- { s_loop = loop; s_ops = ops } :: st.segs

  let rec estmt st (s : stmt) : unit =
    match s with
    | SAssign (b, idx, rhs) -> write st b idx rhs false
    | SReduce (b, idx, rhs) -> write st b idx rhs true
    | SAlloc (b, dt, dims, _mem) ->
        if dt <> st.dt then raise Bail;
        let ds = List.map (fun d -> aconstv (eint st d)) dims in
        if List.exists (fun d -> d < 0) ds then raise Bail;
        Sym.Tbl.replace st.env b
          (SView
             {
               vsp = Some SpSlab;
               voff = aconst st.slab_len;
               vstr = strides_of_const ds;
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
          if st.in_loop then raise Bail;
          if not (aisconst l && l.a0 = 0 && h.ak = 0 && h.akc = 1 && h.a0 = 0)
          then raise Bail;
          flush st ~loop:false;
          st.in_loop <- true;
          Sym.Tbl.replace st.env v (SInt { ak = 1; akc = 0; a0 = 0 });
          List.iter (estmt st) body;
          Sym.Tbl.remove st.env v;
          st.in_loop <- false;
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
            | BKc f -> st.rt_preds <- f :: st.rt_preds)
          p.p_preds;
        List.iter (estmt st) p.p_body
    | SIf (c, t, e) -> (
        match ebool st c with
        | BConst true -> List.iter (estmt st) t
        | BConst false -> List.iter (estmt st) e
        | BKc _ -> raise Bail)

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
    emit st { o_dst = dst; o_red = red; o_rhs = r }

  (* ---------------- signature and lowering ---------------- *)

  type lowered = {
    lo_segs : seg array;
    lo_slab : int;
    lo_kc_pos : bool;
    lo_preds : (int -> bool) array;
    lo_mr : int;
    lo_nr : int;
    lo_dt : Dtype.t;
  }

  let lower (p : proc) : lowered option =
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
              in_loop = false;
              needs_kc_pos = false;
              rt_preds = [];
              cur = [];
              segs = [];
              nops = 0;
              dt;
            }
          in
          Sym.Tbl.replace st.env kc_a.a_name (SInt { ak = 0; akc = 1; a0 = 0 });
          let bind_view (a : arg) sp str =
            Sym.Tbl.replace st.env a.a_name
              (SView { vsp = sp; voff = aconst 0; vstr = str })
          in
          bind_view alpha_a None (scal_strides alpha_a);
          bind_view beta_a None (scal_strides beta_a);
          bind_view ac_a (Some SpA) [ mr; 1 ];
          bind_view bc_a (Some SpB) [ nr; 1 ];
          bind_view c_a (Some SpC) [ mr; 1 ];
          List.iter
            (fun pr ->
              match ebool st pr with
              | BConst true -> ()
              | BConst false -> raise Bail
              | BKc f -> st.rt_preds <- f :: st.rt_preds)
            p.p_preds;
          List.iter (estmt st) p.p_body;
          flush st ~loop:false;
          {
            lo_segs = Array.of_list (List.rev st.segs);
            lo_slab = st.slab_len;
            lo_kc_pos = st.needs_kc_pos;
            lo_preds = Array.of_list (List.rev st.rt_preds);
            lo_mr = mr;
            lo_nr = nr;
            lo_dt = dt;
          }
      | _ -> raise Bail)
    with
    | exception Bail -> None
    | l -> Some l
end

(* ------------------------------------------------------------------ *)
(* The auditable access summary of a lowered tape                      *)

module Summary = struct
  (** The address spaces a tape operand can touch: the packed A and B
      panels, the C tile, and the kernel's private scratch slab. *)
  type space = A | B | C | Slab

  (** One memory operand: element [base + kstep·k] of [sp], with [k] the
      k-loop counter ([kstep] is 0 for every operand outside the loop —
      addresses there are compile-time constants). *)
  type operand = { sp : space; base : int; kstep : int }

  type rhs =
    | Const of float
    | Read of operand
    | Bin of binop * rhs * rhs
    | Neg of rhs

  (** One tape statement: [dst = rhs], or [dst += rhs] when [reduce]. *)
  type op = { dst : operand; reduce : bool; rhs : rhs }

  (** A maximal run of statements, either straight-line ([in_loop] false,
      executed once per call) or the k-loop body (executed for
      k = 0 .. kc-1). *)
  type seg = { in_loop : bool; ops : op list }

  type t = {
    mr : int;
    nr : int;
    dt : Dtype.t;
    slab : int;  (** scratch slab length (register-memory flattening) *)
    kc_pos : bool;  (** tape demands kc ≥ 1 (loop-carried post-loop read) *)
    n_preds : int;  (** residual KC-dependent runtime predicates *)
    segs : seg list;
  }

  let space_name = function A -> "A" | B -> "B" | C -> "C" | Slab -> "slab"
end

(* The summary is derived from the very [lowered] value the eligibility
   gate inspects — faithful by construction, not a re-derivation. *)
let summary_of_lowered (l : Ukr_lower.lowered) : Summary.t =
  let open Ukr_lower in
  let space = function
    | SpA -> Summary.A
    | SpB -> Summary.B
    | SpC -> Summary.C
    | SpSlab -> Summary.Slab
  in
  let operand (o : operand) =
    { Summary.sp = space o.osp; base = o.ob; kstep = o.ok }
  in
  let rec rhs = function
    | RConst f -> Summary.Const f
    | RRead o -> Summary.Read (operand o)
    | RBin (b, x, y) -> Summary.Bin (b, rhs x, rhs y)
    | RNeg x -> Summary.Neg (rhs x)
  in
  let op (o : op) =
    { Summary.dst = operand o.o_dst; reduce = o.o_red; rhs = rhs o.o_rhs }
  in
  let seg (s : seg) = { Summary.in_loop = s.s_loop; ops = List.map op s.s_ops } in
  {
    Summary.mr = l.lo_mr;
    nr = l.lo_nr;
    dt = l.lo_dt;
    slab = l.lo_slab;
    kc_pos = l.lo_kc_pos;
    n_preds = Array.length l.lo_preds;
    segs = List.map seg (Array.to_list l.lo_segs);
  }

let summarize_ukr (p : proc) : Summary.t option =
  Option.map summary_of_lowered (Ukr_lower.lower p)

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
   deferred rounding is exact, which [to_ukr_ba]'s probe gate certifies.
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

(* Build-time semantic certificate for the Bigarray tier: run the proc
   through the compiled closure engine on integer-valued probes and demand
   the canonical C[j,i] += sum_k Ac[k,i]*Bc[k,j] answer, bit for bit.
   Integer inputs (|v| <= 1000, kc <= 8, so every partial sum is an exact
   binary32 integer) make each f32 rounding step the identity, so a
   schedule that reassociates the k-sum still matches; any proc computing
   a different function is rejected here and keeps the closure tier. *)
let probe_ukr_ba (p : proc) ~(mr : int) ~(nr : int) : bool =
  let ck = compile p in
  let one = Buffer.of_array Dtype.F32 [ 1 ] [| 1.0 |] in
  let bufview data dims =
    {
      Buffer.data;
      dtype = Dtype.F32;
      dims = Array.of_list dims;
      strides = Array.of_list (Ukr_lower.strides_of_const dims);
      offset = 0;
    }
  in
  let probe kc seed =
    let st = Random.State.make [| 0x6ba; seed; kc; mr; nr |] in
    let rnd () = float_of_int (Random.State.int st 2001 - 1000) in
    let ac = Array.init (max 1 (kc * mr)) (fun _ -> rnd ()) in
    let bc = Array.init (max 1 (kc * nr)) (fun _ -> rnd ()) in
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
      run ck
        [
          Interp.VInt kc;
          Interp.VBuf one;
          Interp.VBuf (bufview ac [ kc; mr ]);
          Interp.VBuf (bufview bc [ kc; nr ]);
          Interp.VBuf one;
          Interp.VBuf (bufview c [ nr; mr ]);
        ]
    with
    | () -> c = expect
    | exception _ -> false
  in
  probe 1 17 && probe 3 29 && probe 8 41


let to_ukr_ba ?(certified = false) (p : proc) : (ukr_ba * Summary.t) option =
  match Ukr_lower.lower p with
  | None -> None
  | Some l ->
      let open Ukr_lower in
      (* F32 only (the Bigarray element type IS the storage rounding);
         no runtime predicates and no kc>0 requirement, so the executor's
         single up-front range check is the complete guard. [certified]
         callers carry a static Tierlint proof that the tape computes the
         canonical Σ A·B reduction, which is exactly what the integer
         probe establishes dynamically — the probe is skipped for them. *)
      if
        l.lo_dt = Dtype.F32
        && Array.length l.lo_preds = 0
        && (not l.lo_kc_pos)
        && (certified || probe_ukr_ba p ~mr:l.lo_mr ~nr:l.lo_nr)
      then
        let u =
          match (l.lo_mr, l.lo_nr) with
          | 8, 12 -> ukr_ba_8x12 ()
          | mr, nr -> ukr_ba_generic ~mr ~nr
        in
        Some (u, summary_of_lowered l)
      else None

(** Re-materialize a Bigarray executor from a stored access summary alone —
    the cache-hydration path. Sound because the executors above are chosen
    by (mr, nr) only and the summary carries the full eligibility gate
    (dt / preds / kc>0) the lowering checked; the hydrating caller is
    responsible for re-running {!Exo_check.Tierlint} over the summary so a
    stale or tampered artifact is caught before entering service. The
    result is definitionally bit-identical to what {!to_ukr_ba} would
    return for the proc the summary came from. *)
let ukr_ba_of_summary (s : Summary.t) : ukr_ba option =
  if s.Summary.dt = Dtype.F32 && s.Summary.n_preds = 0 && not s.Summary.kc_pos
  then
    Some
      (match (s.Summary.mr, s.Summary.nr) with
      | 8, 12 -> ukr_ba_8x12 ()
      | mr, nr -> ukr_ba_generic ~mr ~nr)
  else None
