(** The [ukrgen serve] kernel-compilation daemon and its client.

    A line-protocol server over a Unix-domain socket (stdlib/unix only):
    one request per line; the response is a status line ([OK ...] /
    [ERR ...]), zero or more payload lines, and a lone ["."]. Verbs:
    [PING], [GENERATE <kit> <MR>x<NR>], [LINT <kit> <MR>x<NR>],
    [TUNE <m> <n> <k>], [RUN <m> <n> <k> [count]], [STATS], [METRICS],
    [SHUTDOWN].

    Requests are answered from the warm in-memory {!Exo_blis.Registry}
    table (hydrated from the ambient {!Exo_cache.Store} when configured).
    A run request streams its problems one at a time through
    {!Exo_blis.Gemm.blis_ba}, synthesizing each problem's inputs in place
    into per-domain buffers that are kept across requests: at most
    3 × 2048² f64 = 96 MiB per worker domain at the dimension caps, and
    independent of [count]. Each request runs under an Obs span
    ([serve.request]) and bumps always-on per-verb counters. [workers]
    domains share the listening socket; shutdown is graceful — in-flight
    connections drain before {!wait} returns. *)

type t

(** Dispatch one request line (exposed for in-process use: the bench's
    warm-latency measurement and the protocol tests). Returns the full
    response, status line first, without the ["."] terminator. Never
    raises; setting the passed stop flag is the SHUTDOWN verb's effect. *)
val handle_request : bool Atomic.t -> string -> string list

(** Warm the registry tables the daemon answers from (default:
    the Neon f32 kit's full 8×12 family table). *)
val warm : ?kits:Exo_ukr_gen.Kits.t list -> unit -> unit

(** Start the daemon: bind the socket, {!warm} the registry, spawn
    [workers] accept domains (default 2). Returns immediately. *)
val start : ?workers:int -> ?warm_kits:Exo_ukr_gen.Kits.t list ->
  socket:string -> unit -> t

(** The bound socket path. *)
val socket_path : t -> string

(** Has shutdown been requested (SHUTDOWN verb or {!stop})? *)
val stopping : t -> bool

(** Request shutdown from the owning process. *)
val stop : t -> unit

(** Join the workers (returns once in-flight connections have drained),
    close the listening socket, unlink its path. Idempotent. *)
val wait : t -> unit

(** [(total, errors, per-verb)] request counters since start or the last
    {!reset_request_counts} — always on, process-wide. Per-verb error
    counts and request-latency histograms (observed via
    {!Exo_obs.Obs.observe_always}, so they count even with tracing off —
    the one-atomic-branch contract is about tracing entry points, which
    are untouched) ride along; [STATS] reports latency p50/p95/p99 per
    verb and [METRICS] the full Prometheus-style exposition. *)
val request_counts : unit -> int * int * (string * int) list

(** Zero the totals, the per-verb counts and errors, and the per-verb
    latency histograms. *)
val reset_request_counts : unit -> unit

(** [set_access_log (Some path)] makes every request append one JSONL
    line ([ts], [verb], [ok], [us], response [lines]; a successful RUN
    adds its GEMM [seconds] and input [synth_seconds]) through a
    size-rotated {!Exo_ledger.Ledger.Sink} (default cap 1 MiB, rotated to
    [path ^ ".1"]); [None] turns it off. Log-write failures are swallowed
    — the access log must never take a request down. *)
val set_access_log : ?max_bytes:int -> string option -> unit

(** The active access-log path, if any. *)
val access_log_path : unit -> string option

module Client : sig
  (** One round-trip: connect, send the request line, read status +
      payload up to the ["."] terminator. Raises [Unix.Unix_error] when
      the daemon is unreachable. *)
  val request : socket:string -> string -> string * string list

  (** Does a status line report success? *)
  val ok : string -> bool
end
