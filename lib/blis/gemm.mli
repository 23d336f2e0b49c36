(** GEMM: the BLIS/GotoBLAS five-loop macro-kernel (Fig. 1 of the paper)
    plus naive references, over {!Matrix} values. The executable path packs
    each B block once into a shared arena and A into per-domain
    {!workspace} arenas, splits the m range into row slices across an
    {!Exo_par.Pool} with bit-identical output at every width, dispatches
    every tile into a flat (mr' × nr') kernel table, and batches whole
    workloads through {!batch_ba}. *)

type ba32 = Exo_interp.Compile.ba32

type ukr_ba = Exo_interp.Compile.ukr_ba
(** A per-tile entry point: [c += acᵀ·bc] with [ac] a kc×mr k-major panel
    at [ao], [bc] a kc×nr panel at [bo] (panel offsets into a packing
    arena) and [c] the *transposed* nr×mr tile at [co] — the layout
    conventions of Section III-A — with the tile shape fixed per entry. *)

(** C := alpha·A·B + beta·C, naive triple loop (f64 accumulation). *)
val naive : ?alpha:float -> ?beta:float -> Matrix.t -> Matrix.t -> Matrix.t -> unit

(** Naive with binary32 rounding after every operation — exact comparisons
    against the macro-kernel when inputs are small integers. Neither naive
    reference reads C when beta = 0. *)
val naive_f32 :
  ?alpha:float -> ?beta:float -> Matrix.t -> Matrix.t -> Matrix.t -> unit

(** Per-domain reusable scratch, grown on demand and reused across GEMMs:
    each domain's A pack arena, and on the calling domain the shared B
    block and the f32 C accumulator. Arenas start on a 64-byte boundary.
    The pool's helper domains are persistent, so their arenas survive from
    one GEMM to the next: repeated calls allocate no arenas in steady
    state, at width 1 and at width > 1 alike. *)
type workspace

(** A fresh workspace (its arenas materialize per domain on first use). *)
val workspace : unit -> workspace

(** The workspace used when callers don't thread their own. *)
val default_workspace : workspace

(** The calling domain's (A, B, C accumulator) arenas — to observe their
    growth and alignment. *)
val arenas : workspace -> ba32 * ba32 * ba32

(** The BLIS-like GEMM: jc/pc/ic/jr/ir blocking, float32-Bigarray arena
    packing (alpha folded into Bc), and O(1) array-indexed dispatch into
    the table [kernels ()] returns (entry [(mr'-1)·nr + nr'-1] computes an
    mr'×nr' tile; at least mr·nr entries).

    An optional trailing entry at index mr·nr computes two vertically
    adjacent full mr×nr tiles in one call: A panels at [ao] and
    [ao + kc·mr], C tiles at [co] and [co + mr·nr], each exactly as the
    full tile's entry would compute it. When the table has it, the ir
    loop takes consecutive full tiles of one mc block two at a time; an
    odd last tile and fringe tiles take their single entries. The
    registry publishes such an entry only where its native two-tile body
    certified ({!Registry.native_info}'s [ni_pair]).

    Decomposition: jc and pc run sequentially. For each (jc, pc) the kc×nc
    B block is packed once, into the calling domain's arena, with
    contiguous panel ranges split across the pool. The m range is split
    into [Pool.jobs pool] contiguous mr-aligned row slices balanced by
    panel count; each slice walks its rows in mc blocks (mc rounded down
    to a multiple of mr), packs A into its own domain's arena and runs the
    jr/ir loops over the shared B. Every C element is computed by the same
    kernel calls in the same k order at every width, so the output is
    bit-identical at every pool width. [kernels] is invoked once per call,
    on the calling domain, so one table serves every tile of one C.

    C stays in a tile-major f32 accumulator, held in the calling domain's
    workspace, across the whole pc loop: each slice gathers beta·C into its
    own tiles at the first pc block and scatters them after the last, so
    every element crosses between f64 and f32 twice per jc block. The
    accumulator costs m·min(nc, n) floats (rounded up to whole tiles); a
    GEMM with a single pc block (k <= kc) needs only one tile per slice,
    two with the two-tile entry.
    At k = 0, C is scaled by beta directly.

    As in BLAS, C is not read when beta = 0: the gather zero-fills the
    tile and the k = 0 path fills C with 0, so a NaN or Inf in C does not
    survive. Packing and the C copy are build-time C stubs, and with
    tracing off the driver allocates nothing per block or per tile. *)
val blis_ba :
  ?alpha:float ->
  ?beta:float ->
  ?pool:Exo_par.Pool.t ->
  ?ws:workspace ->
  blocking:Analytical.blocking ->
  mr:int ->
  nr:int ->
  kernels:(unit -> ukr_ba array) ->
  Matrix.t -> Matrix.t -> Matrix.t -> unit

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
    one kernel table and one workspace. Problems run in order; each one
    fans out on [pool] through {!blis_ba}. *)
val batch_ba :
  ?pool:Exo_par.Pool.t ->
  ?ws:workspace ->
  kernels:(unit -> ukr_ba array) ->
  problem list -> unit
