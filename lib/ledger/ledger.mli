(** The append-only performance run ledger.

    Every bench subcommand and the tuner append one JSONL record per run —
    identity fields (git commit, host cores, pool jobs, ocaml version,
    flambda), string labels, and robust per-metric statistics — and
    [ukrgen report] replays the file to render the performance trajectory,
    flag regressions beyond a noise bound, and print the measured-vs-model
    attribution table. A bench's [BENCH_*.json] is that same record, one
    line, so it is a one-record ledger. Stdlib + [unix] only, like the rest
    of the observability stack.

    {2 Durability contract}

    Appends are one [O_APPEND] write of one complete line under an
    advisory [lockf], so concurrent writers (parallel CI jobs, a bench
    racing a tuner) interleave whole records, never bytes. Loading is
    corruption-tolerant: a line that does not parse — a torn write at the
    tail, a hand-edit gone wrong — is counted and skipped, never fatal.
    The file is never rewritten in place; history is the point. *)

(** {1 Minimal JSON} — parser + printer for the ledger's own lines and the
    daemon access log. Not a general-purpose library: numbers are floats,
    objects are assoc lists in input order. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** Whole-string parse; trailing garbage is an error. *)

  val to_string : t -> string
  (** One line, no newlines; integral floats print without a [.]. *)

  val escape : string -> string
  (** JSON string-body escaping (quotes, backslash, control chars). *)

  (** Accessors, [None] on shape mismatch. *)

  val member : string -> t -> t option
  val str : t -> string option
  val num : t -> float option
  val bool_ : t -> bool option
  val list_ : t -> t list option
end

(** {1 Robust statistics} *)

module Stats : sig
  val median : float list -> float
  (** 0 on the empty list. *)

  val mad : float list -> float
  (** Median absolute deviation from the median; 0 on empty. *)
end

(** {1 Rotating JSONL sink} — the daemon access log. *)

module Sink : sig
  type t

  val create : ?max_bytes:int -> string -> t
  (** A size-rotated JSONL sink at the given path. When an append finds
      the file at or over [max_bytes] (default 1 MiB) it first renames it
      to [path ^ ".1"] (replacing any previous rotation), so the pair
      bounds disk use at roughly [2 * max_bytes]. *)

  val path : t -> string

  val write : t -> string -> unit
  (** Append one line (a ['\n'] is added). Serialized by an internal
      mutex across domains; write failures are swallowed — losing an
      access-log line must never take a request down. *)
end

(** {1 Records} *)

type dir =
  | Higher  (** bigger is better — regression = drop below the bound *)
  | Lower  (** smaller is better — regression = rise above the bound *)
  | Info  (** context only (dims, model predictions) — never gated *)

type metric = {
  m_name : string;
  m_value : float;  (** the headline value (best-of-k for sampled runs) *)
  m_median : float;
  m_mad : float;  (** within-run noise; 0 for single-shot metrics *)
  m_n : int;  (** sample count behind the statistics *)
  m_dir : dir;
  m_unit : string;
}

val metric : ?unit_:string -> dir -> string -> float -> metric
(** A single-shot metric: value = median, mad 0, n 1. *)

val metric_of_samples : ?unit_:string -> dir -> string -> float list -> metric
(** Robust statistics over the samples; the headline value is the best
    sample in [dir]'s sense ([Info] reports the median). *)

type record = {
  r_schema : int;
  r_time : float;  (** Unix epoch seconds at record time *)
  r_bench : string;  (** e.g. ["perf-gemm"], ["perf-sim-smoke"], ["tune 784x512x256"] *)
  r_commit : string;
  r_host_cores : int;
  r_pool_jobs : int;
  r_ocaml : string;
  r_flambda : bool option;
  r_labels : (string * string) list;
      (** string facts (host compiler and ISA, kernel name, layer ids);
          [[]] on lines written before labels existed *)
  r_metrics : metric list;
}

val schema_version : int
(** Of the ledger line format, and so of every [BENCH_*.json]. *)

val record :
  ?time:float ->
  ?flambda:bool ->
  ?labels:(string * string) list ->
  pool_jobs:int ->
  bench:string ->
  metric list ->
  record
(** Stamp a record with the ambient identity: current time, short git
    commit of the working tree (["unknown"] outside a checkout), host
    cores, ocaml version. *)

val fingerprint : record -> string
(** The host-comparability key: bench, host cores, pool jobs, ocaml
    version, flambda — and deliberately {e not} the git commit (comparing
    across commits on the same host is the whole point) nor the labels. *)

val to_json : record -> string
(** One line, no trailing newline; [labels] is a JSON object of strings,
    omitted when empty. *)

val of_json : Json.t -> record option

val append : path:string -> record -> unit
(** Append one line atomically (see the durability contract). If the file
    ends mid-line (a writer died mid-write), the new record starts a
    fresh line rather than gluing onto the torn one — the torn line stays
    corrupt, this record survives. Raises [Unix.Unix_error] only if the
    file cannot be opened or written at all. *)

val load : path:string -> record list * int
(** All parseable records in file order, plus the count of corrupt or
    torn lines skipped. A missing file is [([], 0)]. *)

val env_path : unit -> string option
(** [$UKRGEN_LEDGER], the ambient default ledger path. *)

(** {1 Regression detection} *)

type verdict = {
  v_bench : string;
  v_metric : string;
  v_unit : string;
  v_dir : dir;
  v_current : float;
  v_n_baseline : int;  (** 0 = no comparable history, never a regression *)
  v_baseline : float;  (** baseline-window median; [nan] when none *)
  v_noise : float;  (** the tolerated band around the baseline median *)
  v_regressed : bool;
}

val check :
  ?baseline:int -> ?mad_k:float -> ?min_rel:float -> record list -> verdict list
(** For each bench, compare its latest record against the up-to-[baseline]
    (default 5) most recent earlier records with the same {!fingerprint}.
    A gated metric regresses when it falls outside
    [baseline_median ± noise] in its direction, where [noise] is the
    largest of [mad_k * baseline_mad] (default [mad_k] 4), [min_rel *
    |baseline_median|] (default 10%), and [mad_k * current_within_run_mad]
    — so a run that honestly reports high intra-run noise is not flagged
    on that noise. [Info] metrics get no verdict. *)

(** {1 The report} — what [ukrgen report] renders. *)

module Report : sig
  (** The measured-vs-model attribution pulled from the latest record
      carrying [attr.*] metrics (full runs preferred over [-smoke]). *)
  type attribution = {
    at_bench : string;
    at_commit : string;
    at_time : float;
    at_dim : int option;  (** problem size, from [attr.dim] *)
    at_measured : float;  (** measured GFLOPS, [attr.measured_gflops] *)
    at_model : float;  (** analytical-model GFLOPS, [attr.model_gflops] *)
    at_peak : float option;  (** machine peak, [attr.model_peak_gflops] *)
    at_dram_mb : float option;  (** cache-sim DRAM traffic, [attr.sim_dram_mb] *)
    at_efficiency : float;  (** measured / model *)
    at_phases : (string * float) list;  (** [attr.phase.<name>] seconds *)
  }

  type t = {
    rp_path : string;
    rp_records : record list;  (** file order *)
    rp_skipped : int;
    rp_baseline : int;
    rp_gate : float;  (** measured/model efficiency threshold *)
    rp_verdicts : verdict list;
    rp_attribution : attribution option;
  }

  val build :
    ?baseline:int ->
    ?mad_k:float ->
    ?min_rel:float ->
    ?gate:float ->
    ?bench:string ->
    path:string ->
    record list * int ->
    t
  (** [gate] defaults to 0.02 — scalar OCaml against a model that assumes
      full SIMD issue sits near 0.1, so the gate catches collapses, not
      the vectorization gap. [bench] restricts both verdicts and the
      attribution source to one bench. *)

  val regressions : t -> verdict list
  val efficiency_ok : t -> bool
  (** Vacuously true when there is no attribution record. *)

  val ok : t -> bool
  (** No regressions and {!efficiency_ok}. *)

  val render : t -> string
  (** Human-readable trajectory + verdicts + attribution table. *)

  val to_json : t -> string
  (** The [report.json] artifact: ledger summary, verdict list,
      attribution object, overall [ok]. *)
end
