(** Translation validation for the lowered micro-kernel execution tiers.

    The Bigarray tier ({!Exo_interp.Compile.ukr_ba_of_summary}) runs
    [unsafe] accesses behind one hoisted range check, and a registry table
    admits an entry only when this module proves its summary. It is a
    static validator over the auditable
    {!Exo_interp.Compile.Summary} of each kernel's lowered tape, with the
    k-loop counter ranging over [0, kc-1] and [kc] a symbolic size.

    Every summary address has the form [base + kstep·k], and every
    contract the form [[0, hc·kc + h0)], so bounds and the write set are
    decided in closed form, by integer compares: a loop operand is inside
    for every [kc ≥ 1] iff [0 ≤ kstep ≤ hc] and [0 ≤ base < hc + h0]; a
    store needs [kstep = 0] and a base inside its tile or slab; an operand
    outside the loop needs [kstep = 0] and a constant base in range. These
    are the verdicts the affine-interval substitution of the {!Effects}
    region algebra reaches on this fragment; [test_tierlint] keeps those
    passes as the oracle and checks that the two report alike.

    Three properties, each [Proved] or [Unproved reason] (sound and
    incomplete — a verdict of [Proved] is a proof; an [Unproved] entry
    does not enter a registry table):

    - {b bounds}: every access lies inside the contract the one hoisted
      range check establishes (A within [kc·mr], B within [kc·nr], C within
      [nr·mr], slab within its flattened length) for every admissible
      [kc ≥ 0] — panel accesses outside the k loop are rejected because the
      contract is empty at [kc = 0].
    - {b write-set containment}: stores touch only the entry's own C tile
      and private scratch. Combined with the disjoint C row slices of
      {!Exo_blis.Gemm.blis_ba}'s pool fan-out, this is a static
      race-freedom and width-invariance proof for that fan-out.
    - {b accumulation shape}: symbolic execution of the tape shows each C
      element [C[j,i]] ends as exactly
      [C₀[j,i] + Σ_{k<kc} A[i+k·mr]·B[j+k·nr]] (factors may commute) — the
      canonical reduction the Bigarray tier's f64-accumulate/round-once
      executors implement, so a [Proved] verdict justifies substituting
      them for the tape. *)

type verdict = Proved | Unproved of string

type report = {
  r_mr : int;
  r_nr : int;
  r_bounds : verdict;
  r_writes : verdict;
  r_accshape : verdict;
}

val ok : verdict -> bool

(** All three properties proved. *)
val proved : report -> bool

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit

(** Validate one lowered tape. *)
val check : Exo_interp.Compile.Summary.t -> report

(** The concrete C-tile indices the tape stores to at a given [kc] —
    the statically computed write-set, enumerable because every store
    address is affine in [k] with constant coefficients. The qcheck oracle
    pins this against the touched-index set observed dynamically from the
    interpreter. Sorted, duplicate-free. *)
val c_write_indices : Exo_interp.Compile.Summary.t -> kc:int -> int list
