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
    behind one up-front bounds check, each B block is packed once across
    the {!Exo_par.Pool}, and the m range is split into mr-aligned row
    slices, one per pool domain — bit-identical at every pool width because
    each slice writes only its own rows and every element sees the same
    kernel calls in the same k order. *)

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
    because row slices on different domains pack A concurrently; the B
    arena of the domain that calls {!blis_ba} holds the shared B block. *)
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
    algorithm, packed panels and the C tile in float32 Bigarrays, and
    per-tile dispatch by O(1) array indexing into the table [kernels ()]
    returns.

    Decomposition: jc and pc run sequentially on the caller. For each
    (jc, pc) the kc×nc B block is packed once into the caller's arena,
    contiguous panel ranges split across the pool. The m range is split
    into [Pool.jobs] contiguous, mr-aligned row slices balanced by panel
    count (Smith et al.'s ic/ir partitioning); each slice walks its rows in
    mc blocks, packs A into its own domain's arena and runs the jr/ir loops
    over the shared B. Row blocks stay mr-aligned (mc is rounded down to a
    multiple of mr), so every C element is computed by the same kernel
    calls in the same k order at every pool width: the output is
    bit-identical at every width.

    [kernels] is called once per GEMM, on the calling domain, and must
    return a table of at least mr·nr entries, entry [(mr'-1)·nr + nr'-1]
    computing an mr'×nr' tile — one table serves every tile of one C. *)
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
  let mc = mc / mr * mr in
  let r32 v = Int32.float_of_bits (Int32.bits_of_float v) in
  let ldc = c.Matrix.cols and cdata = c.Matrix.data in
  let a_size = Packing.a_arena_size ~mcb:(min mc m) ~kcb:(min kc k) ~mr in
  let b_size = Packing.b_arena_size ~ncb:(min nc n) ~kcb:(min kc k) ~nr in
  let n_jc = (n + nc - 1) / nc and n_pc = (k + kc - 1) / kc in
  let jobs = Pool.jobs pool in
  (* the m range as contiguous mr-aligned slices, balanced by panel count *)
  let m_panels = (m + mr - 1) / mr in
  let n_slices = max 1 (min jobs m_panels) in
  let slice_rows s =
    ( s * m_panels / n_slices * mr,
      min m ((s + 1) * m_panels / n_slices * mr) )
  in
  let slices = List.init n_slices Fun.id in
  (* B panels of column block jc, and the pack-B tasks they split into *)
  let b_panels jc = (min nc (n - (jc * nc)) + nr - 1) / nr in
  let b_tasks jc = min jobs (b_panels jc) in
  let sp_blis =
    if Obs.enabled () then begin
      let tasks = ref (if Float.equal beta 1.0 then 0 else n_slices) in
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
  let span name args =
    if Obs.enabled () then
      Obs.begin_span
        ~args:(List.map (fun (k, v) -> (k, string_of_int v)) args)
        name
    else Obs.none
  in
  (* beta scaling of each slice's own C rows, before any pc block: every
     write of a slice task stays inside its rows, and k = 0 (no pc block
     at all) still scales *)
  if not (Float.equal beta 1.0) then
    Pool.iter pool
      (fun s ->
        let r0, r1 = slice_rows s in
        for i = r0 to r1 - 1 do
          let rb = i * ldc in
          for j = 0 to n - 1 do
            cdata.(rb + j) <- r32 (beta *. cdata.(rb + j))
          done
        done)
      slices;
  let bw =
    let own = Domain.DLS.get ws in
    own.bw <- grown own.bw b_size;
    own.bw
  in
  for jc = 0 to n_jc - 1 do
    let jc0 = jc * nc in
    let ncb = min nc (n - jc0) in
    let num_panels = b_panels jc and nbt = b_tasks jc in
    for pc = 0 to n_pc - 1 do
      let pc0 = pc * kc in
      let kcb = min kc (k - pc0) in
      let pitch = kcb * nr in
      (* pack the kc×nc B block once: task t packs panels p0 .. p1-1 into
         their slots of the shared arena through a sub view *)
      Pool.iter pool
        (fun t ->
          let p0 = t * num_panels / nbt and p1 = (t + 1) * num_panels / nbt in
          let sp = span "gemm.pack_b" [ ("jc", jc); ("pc", pc); ("task", t) ] in
          ignore
            (Packing.pack_b_ba_into ~alpha
               (Bigarray.Array1.sub bw (p0 * pitch) ((p1 - p0) * pitch))
               b ~pc:pc0
               ~jc:(jc0 + (p0 * nr))
               ~kcb
               ~ncb:(min ncb (p1 * nr) - (p0 * nr))
               ~nr);
          Obs.end_span sp)
        (List.init nbt Fun.id);
      let bp =
        { Packing.data = bw; pitch; num_panels; depth = kcb; full = nr;
          block = ncb }
      in
      Pool.iter pool
        (fun s ->
          let r0, r1 = slice_rows s in
          let ar = Domain.DLS.get ws in
          ar.aw <- grown ar.aw a_size;
          ar.tw <- grown ar.tw (mr * nr);
          let tile = ar.tw in
          for blk = 0 to ((r1 - r0 + mc - 1) / mc) - 1 do
            let ic0 = r0 + (blk * mc) in
            let mcb = min mc (r1 - ic0) in
            let sp =
              span "gemm.pack_a"
                [ ("jc", jc); ("pc", pc); ("slice", s); ("row", ic0) ]
            in
            let ap =
              Packing.pack_a_ba_into ar.aw a ~ic:ic0 ~pc:pc0 ~mcb ~kcb ~mr
            in
            Obs.end_span sp;
            let sp_macro =
              span "gemm.macro_kernel"
                [ ("jc", jc); ("pc", pc); ("slice", s); ("row", ic0) ]
            in
            let adata = ap.Packing.data in
            for jr = 0 to bp.Packing.num_panels - 1 do
              let nrb = Packing.panel_width bp jr in
              let bo = Packing.panel_off bp jr in
              for ir = 0 to ap.Packing.num_panels - 1 do
                let mrb = Packing.panel_width ap ir in
                let ao = Packing.panel_off ap ir in
                (* fused gather/scatter of the transposed C tile: flat base
                   addressing, unsafe behind the storage check at entry
                   (every index is <= (m-1)*ldc + n-1 < m*n); the f32
                   rounding of each C element is the Bigarray store *)
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
                   checked at entry *)
                let sp_ukr =
                  if Obs.enabled () then Obs.begin_span "gemm.ukr" else Obs.none
                in
                (Array.unsafe_get tbl (((mrb - 1) * nr) + nrb - 1))
                  ~kc:kcb ~ac:adata ~ao ~bc:bw ~bo ~c:tile ~co:0;
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
