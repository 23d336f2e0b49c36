(** GEMM: the BLIS/GotoBLAS five-loop macro-kernel (Fig. 1 of the paper)
    plus naive references, over {!Matrix} values. The executable path packs
    into per-domain {!workspace} arenas, fans the jc and ic loops out on an
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
    against the macro-kernel when inputs are small integers. *)
val naive_f32 :
  ?alpha:float -> ?beta:float -> Matrix.t -> Matrix.t -> Matrix.t -> unit

(** Per-domain reusable scratch (pack arenas + C tile), grown on demand and
    reused across GEMMs by whichever domain runs a task. A domain that
    keeps running tasks reuses its arenas, so repeated calls at pool width
    1 allocate nothing in steady state. At width > 1 the worker domains
    are scoped to one pool region and start with empty arenas, so every
    call still allocates fresh arenas on them. *)
type workspace

(** A fresh workspace (its arenas materialize per domain on first use). *)
val workspace : unit -> workspace

(** The workspace used when callers don't thread their own. *)
val default_workspace : workspace

(** The BLIS-like GEMM: jc/pc/ic/jr/ir blocking, float32-Bigarray arena
    packing (alpha folded into Bc, beta applied per C block), O(1)
    array-indexed dispatch into the table [kernels ()] returns (entry
    [(mr'-1)·nr + nr'-1] computes an mr'×nr' tile; at least mr·nr
    entries), and BOTH the jc and ic loops fanned out as one (jc × ic) task
    grid — disjoint C row×column block per task, so small-n problems where
    the jc-only split yields a single task still scale, bit-identical at
    every pool width. [kernels] is invoked once per task on the executing
    domain. Every entry {!Registry} serves is re-entrant, so the thunk may
    hand every task the same shared array ({!Registry.exo_bank} does). *)
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
