(** The micro-kernel execution tiers built on the tape lowering: the
    lowered tape's auditable {!Summary}, which {!Exo_check.Tierlint}
    proves over, and the executors {!ukr_ba_of_summary} selects from it to
    serve the GEMM driver wherever the native tier does not — the
    monomorphized float32 Bigarray loop nests for the f32 kits, and the
    tape executor for every other dtype. The tree-walking {!Interp} is
    their definitional oracle, and {!probe_ukr_ba} the dynamic cross-check
    of the static proof. *)

(** The auditable access summary of a lowered micro-kernel tape: the exact
    per-statement memory operands (affine addresses [base + kstep·k] over
    the k-loop counter) and read/write/accumulate structure of a generated
    kernel with the signature [(KC: size, alpha: dt[1], Ac: dt[KC,MR],
    Bc: dt[KC,NR], beta: dt[1], C: dt[NR,MR])]. The proc is symbolically
    executed (constant loops unrolled, instruction calls inlined, register
    memory flattened into one scratch slab), so the summary describes
    exactly the computation the proc performs — {!Exo_check.Tierlint}
    decides it at symbolic kc to prove bounds, write-set containment and
    accumulation shape statically. *)
module Summary : sig
  (** The address spaces a tape operand can touch: the packed A and B
      panels, the C tile, and the kernel's private scratch slab. *)
  type space = A | B | C | Slab

  (** Element [base + kstep·k] of [sp], with [k] the k-loop counter;
      [kstep = 0] outside the k loop, where addresses are constants. *)
  type operand = { sp : space; base : int; kstep : int }

  type rhs =
    | Const of float
    | Read of operand
    | Bin of Exo_ir.Ir.binop * rhs * rhs
    | Neg of rhs

  (** One tape statement: [dst = rhs], or [dst += rhs] when [reduce]. *)
  type op = { dst : operand; reduce : bool; rhs : rhs }

  (** A maximal run of statements, either straight-line ([in_loop] false,
      executed once per call) or the k-loop body (executed for
      k = 0 .. kc-1). *)
  type seg = { in_loop : bool; ops : op list }

  type t = {
    mr : int;
    nr : int;
    dt : Exo_ir.Dtype.t;
    slab : int;  (** scratch slab length (register-memory flattening) *)
    kc_pos : bool;  (** tape demands kc ≥ 1 (loop-carried post-loop read) *)
    n_preds : int;  (** residual KC-dependent runtime predicates *)
    segs : seg list;
  }

  val space_name : space -> string
end

(** The access summary of a proc, [None] when the tape lowering refuses
    it (non-affine indices, reads of alpha/beta data, symbolic loop nests,
    unsupported expression shapes) — such procs have no serving executor
    and run only on {!Interp}. *)
val summarize_ukr : Exo_ir.Ir.proc -> Summary.t option

(** A float32 Bigarray: the storage type of the GEMM driver's packed
    panels and C tiles. Loads/stores compile to inline machine
    f32<->f64 conversions — without flambda, the [Int32] bit-twiddling
    that rounds plain float-array stores costs two C calls per flop, and
    moving storage to Bigarray is what removes it from the inner loop. *)
type ba32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A Bigarray-tier micro-kernel: [c += ac·bc] on one packed tile — [ac]
    a kc×mr k-major panel at [ao], [bc] a kc×nr panel at [bo], [c] the
    transposed nr×mr tile at [co]; alpha and beta are fixed at 1 (the
    driver folds them into packing and a beta pre-pass). Operand ranges
    are checked once up front ([Invalid_argument] on violation); the loops
    then run unsafe accesses with a 4-wide k-blocked accumulator chain,
    accumulating each C column in unboxed f64 and rounding once at the f32
    store — exact whenever the data is integer-valued (the repo's
    test/bench domain). *)
type ukr_ba =
  kc:int -> ac:ba32 -> ao:int -> bc:ba32 -> bo:int -> c:ba32 -> co:int ->
  unit

(** The tape executor: the lowered tape itself run over the Bigarray
    operands, for any dtype — the serving executor of the non-f32 kits.
    Built into closures once; a call copies A, B and the C tile out to
    float arrays, runs the straight-line segments once and the loop
    segments for k = 0 .. kc-1 over a fresh scratch slab (so it is
    re-entrant), rounds every store through {!Buffer.round_dtype} exactly
    as {!Interp} does, and copies C back — bit-identical to the
    interpreter on any data. [None] when the summary has runtime
    predicates, needs kc ≥ 1, or has an operand outside the arrays the
    executor allocates for some kc ≥ 0. *)
val tape_ukr_ba : Summary.t -> ukr_ba option

(** The Bigarray executor of an access summary, freshly lowered or read
    back from a store — the one place the executor is selected: for f32, a
    straight-line OCaml loop nest specialized to (mr, nr) by (mr, nr)
    alone (hand-monomorphized with literal constants for 8×12,
    shape-captured for every other pair); {!tape_ukr_ba} for every other
    dtype. Returns [None] when the summary has runtime predicates or needs
    kc ≥ 1. The f32 nests implement the canonical reduction without
    reading the summary's operands, so callers must prove the summary
    with {!Exo_check.Tierlint} first ({!Exo_blis.Registry} admits an
    entry only then). The executor is re-entrant — its scratch is
    allocated per call — so one executor can be shared by every domain of
    a pool. *)
val ukr_ba_of_summary : Summary.t -> ukr_ba option

(** The dynamic cross-check of the static {!Exo_check.Tierlint} verdict,
    run by the [--tiers] lint sweep and the bench; no table entry depends
    on it:
    runs the proc through {!Interp} on integer probes, over buffers of the
    proc's own dtype, and demands the canonical
    [C[j,i] += Σ_k Ac[k,i]·Bc[k,j]] answer bit for bit. *)
val probe_ukr_ba : Exo_ir.Ir.proc -> mr:int -> nr:int -> bool
