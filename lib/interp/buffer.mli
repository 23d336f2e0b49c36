(** Runtime buffers for the reference interpreter.

    Values are stored as OCaml floats but every write rounds through the
    buffer's dtype, so f32 and f16 kernels compute bit-faithful results.
    Views (windows) share the underlying storage, matching Exo's window
    semantics. *)

type t = {
  data : float array;
  dtype : Exo_ir.Dtype.t;
  dims : int array;
  strides : int array;  (** in elements *)
  offset : int;
}

exception Bounds of string

(** Row-major strides (in elements) of the given extents. *)
val row_major_strides : int array -> int array

(** Fresh buffer; default init is NaN so a read of a never-written element
    poisons the result and tests catch missing stores. *)
val create : ?init:float -> Exo_ir.Dtype.t -> int list -> t

(** Wrap an existing array (shared storage, row-major, no copy). *)
val of_array : Exo_ir.Dtype.t -> int list -> float array -> t

val rank : t -> int
val size : t -> int

(** Round a value through a dtype (f32 via bit truncation, f16 via
    {!F16.round}, integers with C cast semantics). *)
val round_dtype : Exo_ir.Dtype.t -> float -> float

val get : t -> int array -> float

(** Write, rounding through the buffer's dtype. *)
val set : t -> int array -> float -> unit

(** [+=], rounding through the buffer's dtype. *)
val reduce : t -> int array -> float -> unit

(** A window view: [`Pt i] drops a dimension, [`Iv (lo, len)] keeps it. *)
val view : t -> [ `Pt of int | `Iv of int * int ] list -> t

(** Innermost-dimension stride (what [stride(b, last)] preconditions see). *)
val last_stride : t -> int

val fill : t -> (int array -> float) -> unit
val iteri : t -> (int array -> float -> unit) -> unit

(** Deep copy (fresh, compacted storage). *)
val copy : t -> t

(** Exact element-wise equality (NaNs equal to NaNs). *)
val equal : t -> t -> bool

val max_abs_diff : t -> t -> float
val pp : Format.formatter -> t -> unit
