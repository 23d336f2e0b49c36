(** C code emission — "plain C code with intrinsic instructions" that any
    toolchain compiles, the compiler-independence the paper counts among
    Exo's advantages.

    Tensor arguments become flat pointers with linearized row-major indexing;
    DRAM allocations become stack arrays; register-memory allocations become
    arrays of the ISA's vector type (the lane dimension folds into the type);
    instruction calls render through their [@instr] format strings. Direct
    element access to a register-memory buffer — a kernel that was never
    fully vectorized — is rejected, as is a register parameter still fed by
    a DRAM window (missing [set_memory]). *)

exception Codegen_error of string

(** One procedure as a C definition. *)
val proc_to_c : Exo_ir.Ir.proc -> string

(** A full compilation unit: includes (collected from the instructions used)
    plus the procedures. *)
val compilation_unit : ?header_comment:string -> Exo_ir.Ir.proc list -> string

(** The matching header file with prototypes. *)
val header : ?guard:string -> Exo_ir.Ir.proc list -> string

(** Lowering flavour for the native JIT tier: the kit's intrinsics (when
    the host executes that ISA) or the canonical portable nest the host
    compiler autovectorizes. *)
type native_target = Nat_intrinsics | Nat_portable

val native_target_name : native_target -> string

(** Exported symbol of the (mr, nr) kernel: [exo_ukr_<mr>x<nr>]. *)
val native_sym : mr:int -> nr:int -> string

(** The fixed extern-"C" ABI every JIT'd kernel exports:
    [void sym(int kc, const float *A, const float *B, float *C)],
    computing [C += A·B] over a [kc × mr] packed A panel, a [kc × nr]
    packed B panel, and a contiguous [nr × mr] (transposed) C tile. *)
val native_abi_signature : string -> string

(** The portable nest of an (mr, nr) kernel takes its paired vector
    form at [lanes] f32 lanes per vector: [lanes] ≥ 4, [mr = lanes / 2]
    and [nr] even, so each accumulator vector holds two columns of C.
    Otherwise the loop nest serves (so [~lanes:1] keeps it for every
    shape). *)
val paired_form : lanes:int -> mr:int -> nr:int -> bool

(** Append the portable C nest of one (mr, nr) kernel body under the
    native ABI: f32 accumulators in k order from +0, added to C once at
    the end. Shapes {!paired_form} accepts get GNU C vector types of
    [lanes] lanes ([__builtin_shufflevector]), one FMA per element per k;
    the others get the [k, j, i] loop nest, fully unrolled over j and i
    (register-blocked) when [mr] is a multiple of 4, whose steps are
    fused where the host compiler chooses to. *)
val portable_body : Buffer.t -> lanes:int -> mr:int -> nr:int -> unit

(** Exported symbol of the two-tile entry of an (mr, nr) kernel:
    [exo_ukr_<mr>x<nr>_x2]. *)
val pair_sym : mr:int -> nr:int -> string

(** Append the two-tile body of a {!paired_form} shape under the native
    ABI: one call computes the tile whose A panel is at [A] and C tile at
    [C], and the vertically adjacent one at [A + kc·mr] and [C + mr·nr].
    Accumulator vector j holds column j of both tiles (lanes [0..mr-1]
    the first, [mr..2·mr-1] the second): nr FMA chains where the paired
    body has nr/2. One FMA per element per k, in k order from +0, added
    to C once — bit for bit two calls of the {!portable_body}. *)
val pair_body : Buffer.t -> lanes:int -> mr:int -> nr:int -> unit

(** One native-ABI compilation unit for a whole kernel bank — one exported
    [exo_ukr_<mr>x<nr>] per [(mr, nr, proc)] triple, each with exactly one
    body. Under [Nat_intrinsics], each scheduled proc is emitted [static]
    behind a wrapper that only calls it; procs the emitter rejects (or
    [None]) get the portable nest instead. Under [Nat_portable] the procs
    are ignored. [lanes] is passed to {!portable_body}. [pair] also
    exports {!pair_sym} of that shape with the {!pair_body};
    [Invalid_argument] unless the shape is {!paired_form} at [lanes]. *)
val native_unit :
  ?header_comment:string ->
  ?pair:int * int ->
  target:native_target ->
  lanes:int ->
  kernels:(int * int * Exo_ir.Ir.proc option) list ->
  unit ->
  string
