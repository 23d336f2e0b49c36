(** Content-addressed persistent artifact store.

    On-disk memoization for everything the kernel pipeline computes more
    than once per machine: certified-kernel artifacts and tuner rankings,
    keyed by a stable digest over (kit name + kit digest, shape, variant,
    declared schedule steps, compiler/ABI version). Writes are atomic and
    first-writer-wins under concurrent domains AND processes; reads are
    corruption-tolerant (a bad entry reads as a miss and is dropped, never
    raises); invalidation is by keying — changing a kit or the artifact ABI
    keys fresh entries and strands the stale ones.

    Values are [Marshal]ed and must be pure data (no closures). Callers
    segregate payload types by [kind] and an ABI-version key part. *)

type t

(** The store's root directory. *)
val root : t -> string

(** Open (creating directories as needed) a store rooted at a directory. *)
val of_dir : string -> t

(** The environment variable the ambient store reads: ["UKRGEN_CACHE_DIR"]. *)
val env_var : string

(** The process-default store consulted by {!Exo_blis.Registry},
    {!Exo_blis.Tuner} and {!Exo_ukr_gen.Family}: [None] (caching disabled)
    unless {!env_var} is set or {!set_ambient} installed one. *)
val ambient : unit -> t option

(** Install ([Some dir]) or disable ([None]) the ambient store, overriding
    the environment (the CLI's [--cache] flag; tests). *)
val set_ambient : string option -> unit

(** Stable hex digest of a part list (length-prefixed, so parts can never
    alias across boundaries). *)
val key : string list -> string

(** The entry file a (kind, key) pair maps to — tests corrupt this path. *)
val path : t -> kind:string -> key:string -> string

(** [get t ~kind ~key] — the stored value, or [None] on a missing, torn,
    corrupted or incompatible entry (which is unlinked). Counts one hit or
    one miss. *)
val get : t -> kind:string -> key:string -> 'a option

(** [put t ~kind ~key v] — publish atomically unless present; [true] iff
    this call's bytes became the entry (first writer wins). *)
val put : t -> kind:string -> key:string -> 'a -> bool

(** Disk-backed {!Exo_par.Memo.find_or_add}: get, else compute + publish.
    First writer wins: a call that loses the publish race returns the
    published value, falling back to its own only if that re-read misses. *)
val find_or_add : t -> kind:string -> key:string -> (unit -> 'a) -> 'a

(** Drop one entry (ignores absence). *)
val remove : t -> kind:string -> key:string -> unit

(** Entries of a kind currently on disk. *)
val entry_count : t -> kind:string -> int

type gc_stats = {
  gc_scanned : int;  (** entries examined, across every kind *)
  gc_deleted : int;
  gc_kept_bytes : int;
  gc_freed_bytes : int;
}

(** [gc t ~max_bytes] — LRU sweep: keep the most recently touched entries
    (by mtime) whose cumulative size fits the budget, delete the rest.
    In-flight temp files are left alone. The CLI's [ukrgen cache gc]. *)
val gc : t -> max_bytes:int -> gc_stats

(** {1 Counters}

    Process-wide, always-on (the serve [STATS] verb and BENCH_serve.json
    read them in plain runs), mirrored to the Obs counters [cache.hits] /
    [cache.misses] / [cache.writes] / [cache.corrupt] while tracing. *)

(** [(hits, misses)] since start or the last {!reset_counts}. Corrupt
    entries count as misses (plus one corrupt). *)
val hit_miss_counts : unit -> int * int

(** [(writes, corrupt)]. *)
val write_counts : unit -> int * int

val reset_counts : unit -> unit
