(** Compile-once/run-many execution engine.

    [compile] lowers a procedure to nested OCaml closures: symbols become
    integer frame slots (no [Sym.Map] at runtime), expressions split
    statically into unboxed int and float paths, buffer accesses compute
    their flat address directly against the strides, and instruction calls
    run their semantic bodies' compiled closures with preconditions checked
    in a once-per-call prologue.

    Observationally identical to {!Interp.run} — same dtype rounding, bounds
    checks, and precondition failures (it raises {!Interp.Runtime_error} and
    {!Buffer.Bounds} like the interpreter). The tree-walking {!Interp} stays
    as the definitional oracle; a qcheck property pins bit-identical buffers
    between the two. Use this engine anywhere a kernel runs more than once:
    the GEMM oracle and non-f32 kernel entries, tuner sweeps, and
    property-test harnesses.

    The module also holds the micro-kernel tier built on top of the
    engine: the tape lowering whose {!Summary} {!Exo_check.Tierlint}
    proves over, and the monomorphized float32-Bigarray executors that
    serve the GEMM driver wherever the native tier does not. *)

type t

(** Compile a procedure. Instruction callees are compiled once and shared
    across all their call sites. *)
val compile : Exo_ir.Ir.proc -> t

(** The source procedure. *)
val proc : t -> Exo_ir.Ir.proc

(** Run a compiled procedure: [VInt] for size/index/bool arguments, [VBuf]
    for tensors (mutated in place) — the same conventions as {!Interp.run}.
    Preconditions are checked; violations raise {!Interp.Runtime_error}. *)
val run : t -> Interp.value list -> unit

(** The auditable access summary of a lowered micro-kernel tape: the exact
    per-statement memory operands (affine addresses [base + kstep·k] over
    the k-loop counter) and read/write/accumulate structure of a generated
    kernel with the signature [(KC: size, alpha: dt[1], Ac: dt[KC,MR],
    Bc: dt[KC,NR], beta: dt[1], C: dt[NR,MR])]. The proc is symbolically
    executed (constant loops unrolled, instruction calls inlined, register
    memory flattened into one scratch slab), so the summary describes
    exactly the computation the proc performs — {!Exo_check.Tierlint}
    evaluates it in an affine-interval domain to prove bounds, write-set
    containment and accumulation shape statically. *)
module Summary : sig
  type space = A | B | C | Slab

  (** Element [base + kstep·k] of [sp]; [kstep = 0] outside the k loop. *)
  type operand = { sp : space; base : int; kstep : int }

  type rhs =
    | Const of float
    | Read of operand
    | Bin of Exo_ir.Ir.binop * rhs * rhs
    | Neg of rhs

  type op = { dst : operand; reduce : bool; rhs : rhs }
  type seg = { in_loop : bool; ops : op list }

  type t = {
    mr : int;
    nr : int;
    dt : Exo_ir.Dtype.t;
    slab : int;
    kc_pos : bool;
    n_preds : int;
    segs : seg list;
  }

  val space_name : space -> string
end

(** The access summary of a proc, [None] when the tape lowering refuses
    it (non-affine indices, reads of alpha/beta data, symbolic loop nests,
    unsupported expression shapes) — such procs keep the closure engine. *)
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

(** [to_ukr_ba p] — the monomorphized execution tier: for f32 procs the
    tape lowering accepts (with no runtime preconditions), the
    proc's semantics are certified against the canonical GEMM formula on
    integer probes via the compiled closure engine, and the returned
    executor is a straight-line OCaml loop nest specialized to (mr, nr) —
    hand-monomorphized with literal constants for 8×12, shape-captured for
    every other pair. [None] means the proc keeps the earlier tiers.

    [~certified:true] records that the caller holds a static
    {!Exo_check.Tierlint} proof that the tape computes the canonical
    reduction — the dynamic integer probe is then skipped (it would
    establish the same fact). Default [false]: probe as before.

    The returned executor is re-entrant — its unboxed accumulator is
    allocated per call — so one executor can be shared by every domain of
    a pool. *)
val to_ukr_ba :
  ?certified:bool -> Exo_ir.Ir.proc -> (ukr_ba * Summary.t) option

(** Re-materialize the Bigarray executor from a stored access summary — the
    cache-hydration path ({!Exo_blis.Registry}). Returns [None] when the
    summary fails the tier's eligibility gate (non-f32, runtime preds,
    kc>0 requirement). Sound because the executors are selected by
    (mr, nr) alone, so the result is bit-identical to what {!to_ukr_ba}
    returns for the proc the summary was derived from; callers must still
    re-run the {!Exo_check.Tierlint} gate over the summary so a stale or
    tampered artifact never enters service silently. *)
val ukr_ba_of_summary : Summary.t -> ukr_ba option

(** The Bigarray tier's dynamic certificate, exposed so the bench and the
    [--tiers] lint sweep can cross-check it against the static verdicts:
    runs the proc through the compiled closure engine on integer probes
    and demands the canonical [C[j,i] += Σ_k Ac[k,i]·Bc[k,j]] answer bit
    for bit. F32 procs only (the probes are f32 buffers). *)
val probe_ukr_ba : Exo_ir.Ir.proc -> mr:int -> nr:int -> bool
