(** Micro-kernel family generation (Section III-B).

    The paper's answer to edge cases: instead of one monolithic kernel with
    fringe logic, generate a *collection* of specialized kernels, one per
    (MR, NR) the GEMM driver needs. [generate] picks a schedule template
    from the shape and the target kit's instruction inventory. *)

(** Which schedule template a shape gets. *)
type style =
  | Packed
      (** MR, NR both multiples of the vector length with a lane-indexed FMA:
          the Section III schedule (Figs. 6–11) *)
  | PackedBcast
      (** MR a multiple of the vector length, any NR: vectorize i, broadcast
          the B element (also the AVX-512/AVX2 path, Section III-C) *)
  | Row
      (** MR = 1, NR a multiple of the vector length: vectorize j (unit
          stride because C's leading dimension is 1), broadcast A *)
  | Scalar  (** everything else: specialization by partial evaluation only *)

val style_name : style -> string

type kernel = {
  mr : int;
  nr : int;
  kit : Kits.t;
  style : style;
  proc : Exo_ir.Ir.proc;  (** signature: (KC, alpha, Ac, Bc, beta, C) *)
  provenance : Exo_obs.Obs.Provenance.entry list;
      (** the schedule that made [proc]: one entry per primitive applied
          (cursor pattern, IR node delta, certificate time/outcome) plus one
          marker per macro step — always collected, tracing on or off *)
}

(** The template [generate] would pick for a shape on a kit. *)
val pick_style : Kits.t -> mr:int -> nr:int -> style

(** How many provenance macro steps the (kit, style) schedule declares —
    [generate] fails with [Sched_error] if the recorded log disagrees, and
    CI cross-checks emitted sidecars against the same number. *)
val declared_steps : Kits.t -> style -> int

(** Generate one specialized kernel. Raises [Invalid_argument] on
    non-positive shapes. Every generated kernel is bit-exact against the
    reference semantics (enforced by the property tests) and carries the
    {!certify} bounds certificate plus its full provenance log. *)
val generate : ?kit:Kits.t -> mr:int -> nr:int -> unit -> kernel

(** {!generate} through the ambient {!Exo_cache.Store}: a hit skips the
    schedule+certify pipeline but still re-proves the stored proc's bounds
    certificate (a stale or tampered artifact reads as a miss and is
    regenerated); a miss generates and persists the artifact for the next
    process. Identical to {!generate} when no store is ambient. *)
val generate_cached : ?kit:Kits.t -> mr:int -> nr:int -> unit -> kernel

(** The store key {!generate_cached} files a kernel under: the artifact
    ABI tag, the OCaml version, the kit's name and {!Kits.digest}, its
    declared step count, the shape and the pipeline variant. *)
val artifact_key : Kits.t -> mr:int -> nr:int -> string

(** Demand the static bounds certificate of {!Exo_check.Bounds.check_proc}:
    every access [Proved] in range, zero [Unknown]s. Raises
    [Exo_sched.Sched.Sched_error] naming the failures otherwise; returns the
    procedure unchanged on success. Applied to every kernel [generate]
    emits and to every {!Variants} schedule. *)
val certify : Exo_ir.Ir.proc -> Exo_ir.Ir.proc

(** The individual schedule templates (exposed for benches/ablations). *)

val packed : Kits.t -> mr:int -> nr:int -> Exo_ir.Ir.proc
val packed_bcast : Kits.t -> mr:int -> nr:int -> Exo_ir.Ir.proc
val row : Kits.t -> nr:int -> Exo_ir.Ir.proc
val scalar : Kits.t -> mr:int -> nr:int -> Exo_ir.Ir.proc

(** The kernel sizes the paper's evaluation uses (Section IV):
    8×12, 8×8, 8×4, 4×12, 4×8, 4×4, 1×12, 1×8. *)
val paper_shapes : (int * int) list

val paper_family : ?kit:Kits.t -> unit -> kernel list
