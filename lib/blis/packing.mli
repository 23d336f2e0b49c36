(** BLIS packing routines: A blocks into mr-row k-major panels, B blocks
    into nr-column panels (the layouts the generated kernels' [Ac]/[Bc]
    arguments assume); alpha is folded into the B packing (Fig. 4). Edge
    panels pack at their true width — the Exo approach of a dedicated kernel
    per fringe shape.

    Panels are laid out in one caller-owned float32 Bigarray arena at a
    fixed pitch (the full-width panel size): [panel_off] gives panel starts,
    fringe panels occupy a prefix of their slot. The store into the arena
    is the f32 rounding. The packers are build-time C behind a single
    up-front range check; they read [Matrix.data] in place and allocate
    nothing. *)

type ba32 = Exo_interp.Compile.ba32

type packed = {
  data : ba32;  (** the arena the panels were packed into *)
  pitch : int;  (** elements between consecutive panel starts *)
  num_panels : int;
  depth : int;  (** kc of this packing *)
  full : int;  (** full panel width: mr (A) or nr (B) *)
  block : int;  (** packed block extent: mcb (A) or ncb (B) *)
}

(** Flat start of panel [i] in [data]. *)
val panel_off : packed -> int -> int

(** Rows (A) / columns (B) of panel [i] — [full] except on the fringe. *)
val panel_width : packed -> int -> int

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

(** {!pack_a}, described as a {!packed} value. *)
val pack_a_ba_into :
  ba32 ->
  Matrix.t -> ic:int -> pc:int -> mcb:int -> kcb:int -> mr:int -> packed

(** {!pack_b} at offset 0, described as a {!packed} value. *)
val pack_b_ba_into :
  ?alpha:float ->
  ba32 ->
  Matrix.t -> pc:int -> jc:int -> kcb:int -> ncb:int -> nr:int -> packed
