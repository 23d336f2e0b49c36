(** BLIS packing routines: A blocks into mr-row k-major panels, B blocks
    into nr-column panels (the layouts the generated kernels' [Ac]/[Bc]
    arguments assume); alpha is folded into the B packing (Fig. 4). Edge
    panels pack at their true width — the Exo approach of a dedicated kernel
    per fringe shape.

    Panels are laid out in one caller-owned float32 Bigarray arena at a
    fixed pitch (the full-width panel size, [kcb · mr] or [kcb · nr]);
    fringe panels occupy a prefix of their slot, k-major at their true
    width. The store into the arena is the f32 rounding. The packers are build-time C behind a single
    up-front range check; they read [Matrix.data] in place and allocate
    nothing. *)

type ba32 = Exo_interp.Compile.ba32

(** Arena elements needed to pack an mcb×kcb A block / kcb×ncb B block. *)
val a_arena_size : mcb:int -> kcb:int -> mr:int -> int

val b_arena_size : ncb:int -> kcb:int -> nr:int -> int

(** Pack A(ic .. ic+mcb-1, pc .. pc+kcb-1) into mr-row panels at the
    start of the arena. [Invalid_argument] when [mr < 1], the block leaves
    the matrix or its storage, or the arena is shorter than
    {!a_arena_size}. *)
val pack_a :
  ba32 -> Matrix.t -> ic:int -> pc:int -> mcb:int -> kcb:int -> mr:int -> unit

(** Pack alpha·B(pc .. pc+kcb-1, jc .. jc+ncb-1) into nr-column panels of
    the arena from offset [off] on, with the same checks ([off] >= 0 and
    {!b_arena_size} elements from it). *)
val pack_b :
  alpha:float ->
  ba32 ->
  off:int ->
  Matrix.t -> pc:int -> jc:int -> kcb:int -> ncb:int -> nr:int -> unit
