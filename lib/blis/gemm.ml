(** GEMM: the BLIS/GotoBLAS macro-kernel (Fig. 1 of the paper) plus naive
    references.

    The macro-kernel runs the canonical five loops around a micro-kernel:
    jc over n (nc), pc over k (kc, packing Bc), ic over m (mc, packing Ac),
    jr over nc (nr), ir over mc (mr). The micro-kernel is looked up per
    tile in a flat (mr' × nr') kernel table, so the same macro code runs
    the native JIT bank, the monomorphized Bigarray executors, or an oracle
    engine behind the Bigarray copy-through adapter — mirroring how the
    paper swaps micro-kernels under one ALG+ implementation.

    The executable path is built for paper-scale runs: pack buffers live
    in per-domain float32 Bigarray arenas (the store is the f32 rounding),
    and C lives in one tile-major f32 accumulator per jc block that the
    kernels update in place across the pc loop — gathered once (zero-filled
    at beta = 0, without reading C) and scattered once, behind one
    up-front bounds check. The packing and the C copy are build-time C
    ([blis_stubs.c]); the OCaml loops they replaced are the test suite's
    oracle. With tracing off the loop allocates nothing per block or tile.
    Each B block is packed once across the {!Exo_par.Pool}, and the m range
    is split into mr-aligned row slices, one per pool domain — bit-identical
    at every pool width because each slice writes only its own tiles and
    rows and every element sees the same kernel calls in the same k
    order. *)

module Obs = Exo_obs.Obs
module Pool = Exo_par.Pool

(** C := alpha·A·B + beta·C, naive triple loop (f64 accumulation). *)
let naive ?(alpha = 1.0) ?(beta = 1.0) (a : Matrix.t) (b : Matrix.t) (c : Matrix.t) :
    unit =
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  if b.Matrix.rows <> k || c.Matrix.rows <> m || c.Matrix.cols <> n then
    invalid_arg "Gemm.naive: dimension mismatch";
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (Matrix.get a i l *. Matrix.get b l j)
      done;
      Matrix.set c i j
        (if beta = 0.0 then alpha *. !acc
         else (alpha *. !acc) +. (beta *. Matrix.get c i j))
    done
  done

(** Naive with binary32 rounding after every operation, in the blocked
    k-order, usable for exact comparisons against the macro-kernel when
    inputs are small integers. Like BLAS, neither reference reads C when
    beta = 0. *)
let naive_f32 ?(alpha = 1.0) ?(beta = 1.0) (a : Matrix.t) (b : Matrix.t)
    (c : Matrix.t) : unit =
  let r32 v = Int32.float_of_bits (Int32.bits_of_float v) in
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  if b.Matrix.rows <> k || c.Matrix.rows <> m || c.Matrix.cols <> n then
    invalid_arg "Gemm.naive_f32: dimension mismatch";
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref (if beta = 0.0 then 0.0 else r32 (beta *. Matrix.get c i j)) in
      for l = 0 to k - 1 do
        acc := r32 (!acc +. r32 (alpha *. r32 (Matrix.get a i l *. Matrix.get b l j)))
      done;
      Matrix.set c i j !acc
    done
  done

(* ------------------------------------------------------------------ *)
(* Workspace arenas                                                    *)

type ba32 = Exo_interp.Compile.ba32

type ukr_ba = Exo_interp.Compile.ukr_ba
(** [c += acᵀ·bc] on one packed tile; see gemm.mli. *)

let ba_empty () : ba32 = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 0

(** Per-domain scratch, grown monotonically (next power of two) and reused
    across GEMMs: the A pack arena [aw] of every domain that runs a row
    slice, and — on the domain that calls {!blis_ba} — the shared B block
    [bw] and the f32 C accumulator [cw]. *)
type arena = { mutable aw : ba32; mutable bw : ba32; mutable cw : ba32 }

type workspace = arena Domain.DLS.key

let workspace () : workspace =
  Domain.DLS.new_key (fun () ->
      { aw = ba_empty (); bw = ba_empty (); cw = ba_empty () })

(** The workspace used when callers don't thread their own. *)
let default_workspace : workspace = workspace ()

let arenas (ws : workspace) : ba32 * ba32 * ba32 =
  let ar = Domain.DLS.get ws in
  (ar.aw, ar.bw, ar.cw)

(* next power of two, so repeated slightly-larger requests settle *)
let pow2_cap (n : int) : int =
  let p = ref 16 in
  while !p < n do
    p := !p * 2
  done;
  !p

(* Arenas start on a 64-byte boundary (16 floats), so where malloc put
   them does not change how fast a vector kernel loads its operands: the
   allocation is 16 floats longer and the arena a sub view into it. *)
let grown (a : ba32) (n : int) : ba32 =
  if Bigarray.Array1.dim a >= n then a
  else begin
    let cap = pow2_cap n in
    let b =
      Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (cap + 16)
    in
    (* zero-filled although the packers only read what they wrote, so no
       code path can observe Bigarray.create's garbage *)
    Bigarray.Array1.fill b 0.0;
    let skew = Exo_native.Jit.address b land 63 / 4 in
    Bigarray.Array1.sub b ((16 - skew) land 15) cap
  end

(* ------------------------------------------------------------------ *)
(* The five-loop macro-kernel                                          *)

(* One C tile between Matrix.t (mrb rows, nrb columns at flat [cbase], row
   stride [ldc]) and its transposed accumulator slot at [co]: build-time C
   in blis_stubs.c, unchecked. The gather stores beta·C and, at beta = 0,
   zeroes the slot without reading C. *)
external gather :
  float array -> int -> int -> ba32 -> int -> int -> int ->
  (float[@unboxed]) -> unit = "exo_blis_gather_bytecode" "exo_blis_gather"
[@@noalloc]

external scatter :
  float array -> int -> int -> ba32 -> int -> int -> int -> unit
  = "exo_blis_scatter_bytecode" "exo_blis_scatter"
[@@noalloc]

(* A per-block span of the driver, as [jc; pc; key; row] (row omitted when
   negative). The argument list is built only when tracing is on, so the
   driver loop allocates nothing per block. *)
let block_span name ~jc ~pc key v ~row =
  if Obs.enabled () then
    Obs.begin_span
      ~args:
        (("jc", string_of_int jc) :: ("pc", string_of_int pc)
        :: (key, string_of_int v)
        :: (if row < 0 then [] else [ ("row", string_of_int row) ]))
      name
  else Obs.none

(** The BLIS-like GEMM (see gemm.mli). Row slices are mr-aligned and
    balanced by panel count (Smith et al.'s ic/ir partitioning) and mc is
    rounded down to a multiple of mr, so every C element sees the same
    kernel calls in the same k order at every width.

    The accumulator holds tile (P, q) — row panel P, column panel q of the
    jc block — at (q·m_panels + P)·mr·nr, transposed nr'×mr' as the kernels
    take it, so the ir loop walks it contiguously; with one pc block no
    tile outlives its kernel call, so each slice reuses one slot of one
    tile at s·mr·nr, or of two tiles at 2·s·mr·nr when the table has the
    two-tile entry. *)
let blis_ba ?(alpha = 1.0) ?(beta = 1.0) ?pool ?(ws = default_workspace)
    ~(blocking : Analytical.blocking) ~(mr : int) ~(nr : int)
    ~(kernels : unit -> ukr_ba array) (a : Matrix.t) (b : Matrix.t)
    (c : Matrix.t) : unit =
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  if b.Matrix.rows <> k || c.Matrix.rows <> m || c.Matrix.cols <> n then
    invalid_arg "Gemm.blis_ba: dimension mismatch";
  if
    Array.length a.Matrix.data < m * k
    || Array.length b.Matrix.data < k * n
    || Array.length c.Matrix.data < m * n
  then invalid_arg "Gemm.blis_ba: matrix storage shorter than rows*cols";
  let { Analytical.mc; kc; nc } = blocking in
  if mc < mr || nc < nr || kc < 1 then
    invalid_arg "Gemm.blis_ba: degenerate blocking";
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let tbl = kernels () in
  if Array.length tbl < mr * nr then
    invalid_arg "Gemm.blis_ba: kernel table shorter than mr*nr";
  (* a trailing slot is the two-tile entry: two vertically adjacent full
     tiles per call *)
  let pair = Array.length tbl > mr * nr in
  let slot_tiles = if pair then 2 else 1 in
  let mc = mc / mr * mr in
  let ldc = c.Matrix.cols and cdata = c.Matrix.data in
  let n_jc = (n + nc - 1) / nc and n_pc = (k + kc - 1) / kc in
  let jobs = Pool.jobs pool in
  (* the m range as contiguous mr-aligned slices, balanced by panel count *)
  let m_panels = (m + mr - 1) / mr in
  let n_slices = max 1 (min jobs m_panels) in
  let slices = List.init n_slices Fun.id in
  (* B panels of column block jc, and the pack-B tasks they split into *)
  let b_panels jc = (min nc (n - (jc * nc)) + nr - 1) / nr in
  let b_tasks jc = min jobs (b_panels jc) in
  (* A packs at most one mc block of the largest slice *)
  let a_size =
    Packing.a_arena_size
      ~mcb:(min mc ((m_panels + n_slices - 1) / n_slices * mr))
      ~kcb:(min kc k) ~mr
  in
  let b_size = Packing.b_arena_size ~ncb:(min nc n) ~kcb:(min kc k) ~nr in
  let c_size =
    (if n_pc > 1 then m_panels * b_panels 0 else n_slices * slot_tiles)
    * mr * nr
  in
  let sp_blis =
    if Obs.enabled () then begin
      let tasks = ref 0 in
      for jc = 0 to n_jc - 1 do
        tasks := !tasks + (n_pc * (b_tasks jc + n_slices))
      done;
      Obs.begin_span
        ~args:
          [
            ("m", string_of_int m);
            ("n", string_of_int n);
            ("k", string_of_int k);
            ("tasks", string_of_int !tasks);
          ]
        "gemm.blis_ba"
    end
    else Obs.none
  in
  (* with no pc block beta never reaches the accumulator: scale C here,
     and at beta = 0 overwrite it without reading it *)
  if n_pc = 0 then begin
    if beta = 0.0 then Array.fill cdata 0 (m * n) 0.0
    else if not (Float.equal beta 1.0) then
      for i = 0 to (m * n) - 1 do
        cdata.(i) <- Int32.float_of_bits (Int32.bits_of_float (beta *. cdata.(i)))
      done
  end;
  let own = Domain.DLS.get ws in
  own.bw <- grown own.bw b_size;
  own.cw <- grown own.cw c_size;
  let bw = own.bw and cw = own.cw in
  for jc = 0 to n_jc - 1 do
    let jc0 = jc * nc in
    let ncb = min nc (n - jc0) in
    let num_panels = b_panels jc and nbt = b_tasks jc in
    let b_task_ids = List.init nbt Fun.id in
    for pc = 0 to n_pc - 1 do
      let pc0 = pc * kc in
      let kcb = min kc (k - pc0) in
      let pitch = kcb * nr in
      (* pack the kc×nc B block once: task t packs panels p0 .. p1-1 into
         their slots of the shared arena *)
      Pool.iter pool
        (fun t ->
          let p0 = t * num_panels / nbt and p1 = (t + 1) * num_panels / nbt in
          let sp = block_span "gemm.pack_b" ~jc ~pc "task" t ~row:(-1) in
          Packing.pack_b ~alpha bw ~off:(p0 * pitch) b ~pc:pc0
            ~jc:(jc0 + (p0 * nr))
            ~kcb
            ~ncb:(min ncb (p1 * nr) - (p0 * nr))
            ~nr;
          Obs.end_span sp)
        b_task_ids;
      Pool.iter pool
        (fun s ->
          let r0 = s * m_panels / n_slices * mr
          and r1 = min m ((s + 1) * m_panels / n_slices * mr) in
          let ar = Domain.DLS.get ws in
          ar.aw <- grown ar.aw a_size;
          let aw = ar.aw in
          for blk = 0 to ((r1 - r0 + mc - 1) / mc) - 1 do
            let ic0 = r0 + (blk * mc) in
            let mcb = min mc (r1 - ic0) in
            let sp = block_span "gemm.pack_a" ~jc ~pc "slice" s ~row:ic0 in
            Packing.pack_a aw a ~ic:ic0 ~pc:pc0 ~mcb ~kcb ~mr;
            Obs.end_span sp;
            let sp_macro =
              block_span "gemm.macro_kernel" ~jc ~pc "slice" s ~row:ic0
            in
            for jr = 0 to num_panels - 1 do
              let nrb = min nr (ncb - (jr * nr)) and bo = jr * pitch in
              let n_ir = (mcb + mr - 1) / mr in
              let ir = ref 0 in
              while !ir < n_ir do
                let ir0 = !ir in
                let mrb = min mr (mcb - (ir0 * mr)) in
                (* two consecutive full tiles per call where the table has
                   the two-tile entry (both then have mrb = mr); an odd
                   last or fringe tile alone *)
                let tiles =
                  if pair && nrb = nr && (ir0 + 2) * mr <= mcb then 2 else 1
                in
                let ao = ir0 * kcb * mr in
                (* the tiles' accumulator slots, contiguous: with one pc
                   block the slice's own slot, else their tile-major
                   place *)
                let co =
                  if n_pc = 1 then s * slot_tiles * mr * nr
                  else ((jr * m_panels) + (ic0 / mr) + ir0) * mr * nr
                in
                (* C's gather/scatter: unchecked, behind the storage check
                   at entry (every index is <= (m-1)*ldc + n-1 < m*n) and
                   the accumulator's size (row panel < m_panels, column
                   panel < b_panels 0) *)
                let cbase = ((ic0 + (ir0 * mr)) * ldc) + jc0 + (jr * nr) in
                if pc = 0 then
                  for t = 0 to tiles - 1 do
                    gather cdata
                      (cbase + (t * mr * ldc))
                      ldc cw
                      (co + (t * mr * nr))
                      mrb nrb beta
                  done;
                (* O(1) dispatch: plain array indexing, in range because
                   1 <= mrb <= mr, 1 <= nrb <= nr and the table length was
                   checked at entry *)
                let sp_ukr =
                  if Obs.enabled () then Obs.begin_span "gemm.ukr" else Obs.none
                in
                let u =
                  if tiles = 2 then Array.unsafe_get tbl (mr * nr)
                  else Array.unsafe_get tbl (((mrb - 1) * nr) + nrb - 1)
                in
                u ~kc:kcb ~ac:aw ~ao ~bc:bw ~bo ~c:cw ~co;
                Obs.end_span sp_ukr;
                if pc = n_pc - 1 then
                  for t = 0 to tiles - 1 do
                    scatter cdata
                      (cbase + (t * mr * ldc))
                      ldc cw
                      (co + (t * mr * nr))
                      mrb nrb
                  done;
                ir := ir0 + tiles
              done
            done;
            Obs.end_span sp_macro
          done)
        slices
    done
  done;
  Obs.end_span sp_blis

(* ------------------------------------------------------------------ *)
(* Batched execution                                                   *)

(** One GEMM of a workload batch. *)
type problem = {
  p_a : Matrix.t;
  p_b : Matrix.t;
  p_c : Matrix.t;
  p_alpha : float;
  p_beta : float;
  p_blocking : Analytical.blocking;
  p_mr : int;
  p_nr : int;
}

(** Run a whole GEMM list (e.g. a DNN workload's layers) through one pool,
    one kernel table and one workspace. Problems run in order (a layer's
    output may feed the next); each one fans out on [pool] through
    {!blis_ba}. *)
let batch_ba ?pool ?(ws = default_workspace) ~(kernels : unit -> ukr_ba array)
    (ps : problem list) : unit =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let sp =
    if Obs.enabled () then
      Obs.begin_span
        ~args:[ ("problems", string_of_int (List.length ps)) ]
        "gemm.batch"
    else Obs.none
  in
  List.iter
    (fun p ->
      blis_ba ~alpha:p.p_alpha ~beta:p.p_beta ~pool ~ws ~blocking:p.p_blocking
        ~mr:p.p_mr ~nr:p.p_nr ~kernels p.p_a p.p_b p.p_c)
    ps;
  Obs.end_span sp
