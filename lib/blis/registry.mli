(** The micro-kernel registry: Section IV's three competitors, in numeric
    form (a kernel table for {!Gemm.blis_ba}) and model form (a
    {!Exo_sim.Kernel_model.impl}). Generated kernels are produced on
    demand and cached. *)

(** Generate (or fetch) a specialized kernel. *)
val exo_kernel :
  ?kit:Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> unit -> Exo_ukr_gen.Family.kernel

(** Model impl for a generated kernel. *)
val exo_impl :
  ?kit:Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> unit -> Exo_sim.Kernel_model.impl

(** The 8×12 base kernel proc (whose trace the monolithic models share). *)
val base_8x12 : ?kit:Exo_ukr_gen.Kits.t -> unit -> Exo_ir.Ir.proc

val blis_impl : ?kit:Exo_ukr_gen.Kits.t -> unit -> Exo_sim.Kernel_model.impl
val neon_impl : ?kit:Exo_ukr_gen.Kits.t -> unit -> Exo_sim.Kernel_model.impl

(** {1 The oracle}

    The reference every serving tier is checked against: the tree-walking
    {!Exo_interp.Interp}, run on the scheduled IR of the generated
    kernel. *)

(** Any proc with the micro-kernel signature [(KC, alpha, Ac[KC,mr],
    Bc[KC,nr], beta, C[nr,mr])] through the interpreter, as an executor:
    the Bigarray operands are copied out to float arrays, run over
    buffers of dtype [dt], and the C tile is copied back. Slow,
    definitional, and re-entrant (every call builds its own buffers). *)
val interp_entry :
  dt:Exo_ir.Dtype.t -> Exo_ir.Ir.proc -> mr:int -> nr:int ->
  Exo_interp.Compile.ukr_ba

(** One mr×nr tile of a generated family through {!interp_entry}, as a
    table entry. *)
val oracle_entry :
  ?kit:Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> unit ->
  Exo_interp.Compile.ukr_ba

(** A whole (mr' × nr') table of {!oracle_entry} values in {!exo_bank}'s
    layout — the reference side of GEMM-level cross-checks. Uncounted:
    oracle calls never touch the dispatch counters. *)
val oracle_bank :
  ?kit:Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> unit ->
  unit -> Exo_interp.Compile.ukr_ba array

(** {1 The monomorphized (mr' × nr') kernel table}

    One {!entry} record per (mr', nr') with mr' ∈ 1..mr, nr' ∈ 1..nr,
    flat at index [(mr'-1)·nr + nr'-1]. An entry enters service one way,
    cold or warm: its lowered access summary
    ({!Exo_interp.Compile.Summary.t}) must prove under
    {!Exo_check.Tierlint}, and its Bigarray executor is the one
    {!Exo_interp.Compile.ukr_ba_of_summary} selects from that summary (the
    monomorphized nest for f32, the tape for other dtypes). Each entry
    then serves JIT'd native code where the upgrade certified it and that
    executor elsewhere, so fringe macro-kernel calls dispatch by plain
    array indexing. Built once per (kit, mr, nr) for the whole process and
    shared by every domain — the executors are re-entrant (per-call
    accumulators), so repeated {!exo_table} calls return the physically
    same table from any domain.

    When an {!Exo_cache.Store} is ambient ([UKRGEN_CACHE_DIR] or the CLI's
    [--cache]), an entry's artifact is its summary: a warm entry hydrates
    from it — skipping schedule → certify → lower — after it re-proves,
    and one that no longer proves is dropped and rebuilt cold; cold builds
    persist their summaries for the next process. *)

(** Provenance of a table's native-tier upgrade: whether JIT'd machine
    code is serving, through which lowering and compiler, and — on a
    degraded host (no [cc], [UKRGEN_NATIVE=0], compile or certification
    failure) — why the table serves the Bigarray tier instead. *)
type native_info = {
  ni_enabled : bool;  (** at least one entry serves JIT'd machine code *)
  ni_target : string;  (** ["intrinsics"] | ["portable"] | ["none"] *)
  ni_cc : string;  (** compiler path, or ["none"] *)
  ni_entries : int;  (** entries serving native code (certified) *)
  ni_rejected : int;
      (** entries (and the two-tile entry) that failed certification *)
  ni_reason : string;  (** ["ok"], or why the tier is degraded *)
  ni_lanes : int;
      (** f32 lanes the bank's portable nests were emitted for
          ({!Exo_codegen.C_emit.portable_body}): the host's
          {!Exo_native.Host.f32_lanes}, or 1 when the host [cc] rejected
          the vector form; 0 without a native bank *)
  ni_pair : bool;
      (** the bank serves its full tile's two-tile entry
          ({!Exo_codegen.C_emit.pair_body}): the portable paired body
          serves that tile and the pair certified against two calls of its
          [e_base]. A pair that fails certification is not served and
          counts in [ni_rejected]. *)
}

type tier =
  | Native  (** JIT'd machine code, certified bit-exact against [e_base] *)
  | Bigarray
      (** the proved summary's Bigarray executor: the monomorphized nest
          for f32, the tape executor for other dtypes *)

type entry = {
  e_mr : int;
  e_nr : int;
  e_tier : tier;  (** the tier [e_exec] serves from *)
  e_base : Exo_interp.Compile.ukr_ba;
      (** the Bigarray executor: the native tier's certification oracle.
          Uncounted. *)
  e_exec : Exo_interp.Compile.ukr_ba;
      (** the serving executor, uncounted; [e_base] unless [Native] *)
}

type table = {
  t_kit : Exo_ukr_gen.Kits.t;
  t_mr : int;
  t_nr : int;
  t_entries : entry array;
  t_bank : Exo_interp.Compile.ukr_ba array;
      (** each entry's [e_exec] wrapped by its tier's dispatch counter —
          the array {!exo_bank} hands {!Gemm.blis_ba} — and, when
          [ni_pair], the two-tile entry as a trailing slot at index
          mr·nr, counted as two native dispatches per call *)
  t_native_info : native_info;
}

(** Build (or fetch) the process-wide table for a family. Raises
    [Invalid_argument] naming the kit, the entry and the Tierlint reason
    when an entry's freshly lowered summary does not prove or has no
    Bigarray executor: a table serves every entry proved, or does not
    build. *)
val exo_table :
  ?kit:Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> unit -> table

(** Bounds-checked entry lookup. *)
val entry : table -> mr:int -> nr:int -> entry

(** Bounds-checked lookup into the counted bank (the GEMM driver indexes
    the flat array). *)
val table_entry : table -> mr:int -> nr:int -> Exo_interp.Compile.ukr_ba

(** The {!Gemm.blis_ba} [kernels] thunk: resolves the shared table
    (building on first use) and returns its counted bank. *)
val exo_bank :
  ?kit:Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> unit ->
  unit -> Exo_interp.Compile.ukr_ba array

(** The same table's [e_base] (Bigarray) executors — the baseline side of the bench's
    native-vs-Bigarray A-B comparison. Uncounted, like {!oracle_bank}. *)
val exo_bank_ba :
  ?kit:Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> unit ->
  unit -> Exo_interp.Compile.ukr_ba array

(** Which native lowering this host gives a kit: intrinsics when the
    machine executes the kit's ISA, the portable autovectorizable nest
    otherwise, [None] for non-f32 kits (the JIT ABI is float32). *)
val native_target_for :
  Exo_ukr_gen.Kits.t -> Exo_codegen.C_emit.native_target option

(** Whether a bank emitted for [target] at [lanes] exports its full
    (mr, nr) tile's two-tile entry {!Exo_codegen.C_emit.pair_sym}: only
    where the portable paired body serves that tile
    ({!Exo_codegen.C_emit.paired_form} under [Nat_portable]); a full tile
    served by the kit's intrinsics keeps its one entry. *)
val serves_pair :
  target:Exo_codegen.C_emit.native_target -> lanes:int -> mr:int -> nr:int ->
  bool

(** The native ABI's version tag, the first part of every {!native_key}.
    Bumped whenever the exported signature, the eligibility rule or symbol
    naming changes meaning. *)
val native_abi : string

(** The store key a bank's shared object is filed under: the ABI tag
    {!native_abi}, kit content, table shape, target, compiler identity and
    tuning flags, plus a digest of the portable nests the emitter renders
    for the bank at [lanes] (the lane count included, and the full tile's
    two-tile body where that tile is paired) — so a .so built by an older
    emitter, for an older ABI or for another lane count is never loaded as
    this one's. *)
val native_key :
  Exo_ukr_gen.Kits.t -> mr:int -> nr:int ->
  target:Exo_codegen.C_emit.native_target -> lanes:int -> string

(** The store key a table entry's lowered artifact is filed under: the
    entry ABI tag, the OCaml version, the kit's name and
    {!Exo_ukr_gen.Kits.digest}, its declared step count, the shape and the
    pipeline variant. *)
val entry_key : Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> string

(** The access summary the ambient store holds for a table entry — the
    one a warm {!exo_table} re-proves with {!Exo_check.Tierlint} before
    the entry may serve. [None] without a store or on a miss. *)
val stored_summary :
  Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> Exo_interp.Compile.Summary.t option

(** The native-ABI C source for a whole bank, with the target this host
    would pick, its portable nests at the host's
    {!Exo_native.Host.f32_lanes} (a [// lanes=] line in the header
    comment says so) and, where the portable paired body serves the full
    tile, its two-tile [exo_ukr_<mr>x<nr>_x2] entry — [ukrgen native]'s
    artifact, [None] for non-f32 kits. *)
val native_emit :
  ?kit:Exo_ukr_gen.Kits.t -> mr:int -> nr:int -> unit ->
  (Exo_codegen.C_emit.native_target * string) option

(** Forget every memoized kernel and table so the next {!exo_table}
    exercises the cold path — for the bench's cold/warm A-B harness and
    the cache tests only. *)
val clear_memos_for_bench : unit -> unit

(** {1 Dispatch counters}

    Counts per {!tier}, bumped by the published bank ({!exo_bank},
    {!table_entry}) and by nothing else: build-time probes and native
    certification call the bare executors, so the counts are dispatches
    only. Each domain bumps its own padded cell, so a kernel call writes no
    memory another domain writes; every domain that ever dispatched keeps
    its cell, and the totals sum them all. They are exact between GEMMs,
    since {!Gemm.blis_ba} joins its pool helpers before it returns. Always
    on (the bench's fallbacks-zero gate reads them
    in plain runs), mirrored into the Obs counters
    [gemm.ukr_native_calls] / [gemm.ukr_fast_calls] (Bigarray) when
    tracing is enabled. *)

(** [(native, bigarray, fallback)] totals since start or the last reset.
    [fallback] is always 0 — no table entry is served by the interpreter —
    and stays for the clients that print it. *)
val ukr_tier_counts : unit -> int * int * int

(** Zero the dispatch counters, so repeated in-process bench/test phases
    measure their own dispatches instead of accumulating across tiers. *)
val reset_dispatch_counts : unit -> unit
