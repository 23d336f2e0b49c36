(** Fixed-width domain pool for data-parallel sweeps.

    One engine behind every sweep in the repo: the calling domain and up to
    [width - 1] helper domains consume a chunked work queue (atomic cursor,
    a few items per grab) and write results into index-addressed slots, so
    for a pure [f] the output of [map pool f xs] equals [List.map f xs] for
    every pool width. At width 1 (the sequential fallback — one core,
    [--jobs 1], or a single-item list) no helper is involved at all.

    Helper domains are persistent, not region-scoped: they are spawned
    lazily, up to the largest [width - 1] ever requested, parked between
    regions and reused, so their domain-local state (the GEMM packing
    arenas) survives from one region to the next. One domain at a time
    owns the helpers for a region; a region started while they are owned —
    nested inside a task, or on another domain — runs inline on its caller.
    Parked helpers never keep the process from exiting.

    If [f] raises, the pool stops handing out chunks, waits for every
    participant, and re-raises the exception of the lowest-indexed failing
    item (deterministic). *)

type t

(** [create ?jobs ()] — a pool of [jobs] domains (default: the process-wide
    width, see {!default_jobs}). Clamped to at least 1. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** The process-wide default width: the last {!set_default_jobs}, else the
    [EXO_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** Override the process-wide default width (the [--jobs] flags). *)
val set_default_jobs : int -> unit

(** A pool at the process-wide default width. *)
val global : unit -> t

(** Parallel map with deterministic (input-order) results. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

(** Helper domains spawned so far in this process — never more than the
    largest [width - 1] any region has requested (read-only). *)
val helpers : unit -> int
val iter : t -> ('a -> unit) -> 'a list -> unit
