(** GEMM: the BLIS/GotoBLAS macro-kernel (Fig. 1 of the paper) plus naive
    references.

    The macro-kernel runs the canonical five loops around a micro-kernel:
    jc over n (nc), pc over k (kc, packing Bc), ic over m (mc, packing Ac),
    jr over nc (nr), ir over mc (mr). The micro-kernel is looked up per
    tile in a flat (mr' × nr') kernel table, so the same macro code runs
    the native JIT bank, the monomorphized Bigarray executors, or an oracle
    engine behind the Bigarray copy-through adapter — mirroring how the
    paper swaps micro-kernels under one ALG+ implementation.

    The executable path is built for paper-scale runs: pack buffers and the
    C tile live in per-domain float32 Bigarray arenas (the store is the f32
    rounding), the C-tile gather/scatter is fused over unsafe accesses
    behind one up-front bounds check, and the jc and ic loops — disjoint C
    blocks — fan out on an {!Exo_par.Pool} as one task grid, bit-identical
    at every pool width because each task touches only its own block and
    runs the same per-element operation sequence. *)

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
      Matrix.set c i j ((alpha *. !acc) +. (beta *. Matrix.get c i j))
    done
  done

(** Naive with binary32 rounding after every operation, in the blocked
    k-order, usable for exact comparisons against the macro-kernel when
    inputs are small integers. *)
let naive_f32 ?(alpha = 1.0) ?(beta = 1.0) (a : Matrix.t) (b : Matrix.t)
    (c : Matrix.t) : unit =
  let r32 v = Int32.float_of_bits (Int32.bits_of_float v) in
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  if b.Matrix.rows <> k || c.Matrix.rows <> m || c.Matrix.cols <> n then
    invalid_arg "Gemm.naive_f32: dimension mismatch";
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref (r32 (beta *. Matrix.get c i j)) in
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
(** A per-tile entry point: [c += acᵀ·bc] with [ac] a kc×mr k-major panel
    at [ao], [bc] a kc×nr panel at [bo] (panel offsets into a packing
    arena) and [c] the *transposed* nr×mr tile at [co] — the layout
    conventions of the generated kernels (Section III-A). The tile shape is
    fixed per entry; the driver picks the (mrb, nrb) entry out of a flat
    kernel table. *)

let ba_empty () : ba32 = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 0

(** Per-domain scratch: one pack arena per operand plus the C tile, grown
    monotonically (next power of two) and reused across GEMMs. Per-domain
    because pool tasks on different domains pack concurrently. *)
type arena = { mutable aw : ba32; mutable bw : ba32; mutable tw : ba32 }

type workspace = arena Domain.DLS.key

let workspace () : workspace =
  Domain.DLS.new_key (fun () ->
      { aw = ba_empty (); bw = ba_empty (); tw = ba_empty () })

(** The workspace used when callers don't thread their own. *)
let default_workspace : workspace = workspace ()

(* next power of two, so repeated slightly-larger requests settle *)
let pow2_cap (n : int) : int =
  let p = ref 16 in
  while !p < n do
    p := !p * 2
  done;
  !p

let grown (a : ba32) (n : int) : ba32 =
  if Bigarray.Array1.dim a >= n then a
  else begin
    let b =
      Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (pow2_cap n)
    in
    (* Bigarray.create is uninitialized; the packers only ever write the
       panel prefixes they then read, but zero-fill anyway so no code path
       can observe garbage *)
    Bigarray.Array1.fill b 0.0;
    b
  end

(* ------------------------------------------------------------------ *)
(* The five-loop macro-kernel                                          *)

(** The BLIS-like GEMM: C := alpha·A·B + beta·C with the five-loop blocked
    algorithm, packed panels and the C tile in float32 Bigarrays, per-tile
    dispatch by O(1) array indexing into the table [kernels ()] returns,
    and BOTH the jc and ic loops fanned out as one task grid — each task
    owns the disjoint C block (rows ic·mc .., cols jc·nc ..), so small-n
    problems where jc alone yields a single task still scale across the
    pool, and the output stays bit-identical at every width.

    [kernels] is called once per task on the executing domain and must
    return a table of at least mr·nr entries, entry [(mr'-1)·nr + nr'-1]
    computing an mr'×nr' tile. Every entry the registry serves is
    re-entrant (native calls and Bigarray executors keep no shared state,
    oracle entries resolve their engine per domain at call time), so the
    thunk may hand every task the same shared array; it is a thunk so the
    table can be built on first use ({!Registry.exo_bank}). *)
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
  let r32 v = Int32.float_of_bits (Int32.bits_of_float v) in
  let ldc = c.Matrix.cols and cdata = c.Matrix.data in
  let a_size = Packing.a_arena_size ~mcb:(min mc m) ~kcb:(min kc k) ~mr in
  let b_size = Packing.b_arena_size ~ncb:(min nc n) ~kcb:(min kc k) ~nr in
  let n_jc = (n + nc - 1) / nc and n_ic = (m + mc - 1) / mc in
  let sp_blis =
    if Obs.enabled () then
      Obs.begin_span
        ~args:
          [
            ("m", string_of_int m);
            ("n", string_of_int n);
            ("k", string_of_int k);
            ("tasks", string_of_int (n_jc * n_ic));
          ]
        "gemm.blis_ba"
    else Obs.none
  in
  (* one task per (jc, ic) cell of the C block grid, jc-major *)
  let task t =
    let jc = t / n_ic and ic = t mod n_ic in
    let tbl = kernels () in
    if Array.length tbl < mr * nr then
      invalid_arg "Gemm.blis_ba: kernel table shorter than mr*nr";
    let ar = Domain.DLS.get ws in
    ar.aw <- grown ar.aw a_size;
    ar.bw <- grown ar.bw b_size;
    ar.tw <- grown ar.tw (mr * nr);
    let tile = ar.tw in
    let jc0 = jc * nc and ic0 = ic * mc in
    let ncb = min nc (n - jc0) and mcb = min mc (m - ic0) in
    (* beta scaling of this task's own C block: every write of the task
       stays inside rows ic0 .. ic0+mcb-1 × cols jc0 .. jc0+ncb-1, which
       is what keeps the two-axis fan-out deterministic *)
    if not (Float.equal beta 1.0) then
      for i = ic0 to ic0 + mcb - 1 do
        let rb = (i * ldc) + jc0 in
        for j = 0 to ncb - 1 do
          cdata.(rb + j) <- r32 (beta *. cdata.(rb + j))
        done
      done;
    for pc = 0 to ((k + kc - 1) / kc) - 1 do
      let pc0 = pc * kc in
      let kcb = min kc (k - pc0) in
      let sp =
        if Obs.enabled () then
          Obs.begin_span
            ~args:
              [
                ("jc", string_of_int jc);
                ("ic", string_of_int ic);
                ("pc", string_of_int pc);
              ]
            "gemm.pack_b"
        else Obs.none
      in
      let bp =
        Packing.pack_b_ba_into ~alpha ar.bw b ~pc:pc0 ~jc:jc0 ~kcb ~ncb ~nr
      in
      Obs.end_span sp;
      let sp =
        if Obs.enabled () then
          Obs.begin_span
            ~args:
              [
                ("jc", string_of_int jc);
                ("ic", string_of_int ic);
                ("pc", string_of_int pc);
              ]
            "gemm.pack_a"
        else Obs.none
      in
      let ap = Packing.pack_a_ba_into ar.aw a ~ic:ic0 ~pc:pc0 ~mcb ~kcb ~mr in
      Obs.end_span sp;
      let sp_macro =
        if Obs.enabled () then
          Obs.begin_span
            ~args:
              [
                ("jc", string_of_int jc);
                ("pc", string_of_int pc);
                ("ic", string_of_int ic);
              ]
            "gemm.macro_kernel"
        else Obs.none
      in
      let adata = ap.Packing.data and bdata = bp.Packing.data in
      for jr = 0 to bp.Packing.num_panels - 1 do
        let nrb = Packing.panel_width bp jr in
        let bo = Packing.panel_off bp jr in
        for ir = 0 to ap.Packing.num_panels - 1 do
          let mrb = Packing.panel_width ap ir in
          let ao = Packing.panel_off ap ir in
          (* fused gather/scatter of the transposed C tile: flat base
             addressing, unsafe behind the storage check at entry (every
             index is <= (m-1)*ldc + n-1 < m*n); the f32 rounding of each
             C element is the Bigarray store *)
          let cbase = ((ic0 + (ir * mr)) * ldc) + jc0 + (jr * nr) in
          for j = 0 to nrb - 1 do
            for i = 0 to mrb - 1 do
              Bigarray.Array1.unsafe_set tile
                ((j * mrb) + i)
                (Array.unsafe_get cdata (cbase + (i * ldc) + j))
            done
          done;
          (* O(1) dispatch: plain array indexing, in range because
             1 <= mrb <= mr, 1 <= nrb <= nr and the table length was
             checked at task entry *)
          let sp_ukr =
            if Obs.enabled () then Obs.begin_span "gemm.ukr" else Obs.none
          in
          (Array.unsafe_get tbl (((mrb - 1) * nr) + nrb - 1))
            ~kc:kcb ~ac:adata ~ao ~bc:bdata ~bo ~c:tile ~co:0;
          Obs.end_span sp_ukr;
          for j = 0 to nrb - 1 do
            for i = 0 to mrb - 1 do
              Array.unsafe_set cdata
                (cbase + (i * ldc) + j)
                (Bigarray.Array1.unsafe_get tile ((j * mrb) + i))
            done
          done
        done
      done;
      Obs.end_span sp_macro
    done
  in
  Pool.iter pool task (List.init (n_jc * n_ic) Fun.id);
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
