(** Dense row-major matrices over [float array] — the numeric substrate for
    the macro-kernel, packing, and DNN workloads. *)

type t = { rows : int; cols : int; data : float array }

val create : ?init:float -> int -> int -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val init : int -> int -> (int -> int -> float) -> t
val copy : t -> t

(** Small-integer random matrix: sums of products stay exactly representable
    in binary32, so differently-blocked GEMMs compare for exact equality. *)
val random_int : ?bound:int -> int -> int -> Random.State.t -> t

(** [fill_random_int ?bound t st] makes the draws {!random_int} makes for a
    [t.rows × t.cols] matrix — one [Random.State.int st (2·bound+1) − bound]
    per element, row-major — into the first [rows·cols] entries of
    [t.data], in place; the rest of the storage is untouched. The values
    and the state left in [st] are exactly those of that OCaml loop; the
    loop runs in C. Raises [Invalid_argument] when the storage is shorter
    than [rows·cols], or when [2·bound+1] is not a legal
    [Random.State.int] bound ([0 <= bound <= 2{^29} - 1]). *)
val fill_random_int : ?bound:int -> t -> Random.State.t -> unit

val random : int -> int -> Random.State.t -> t
val equal : t -> t -> bool
val max_abs_diff : t -> t -> float
val frobenius : t -> float
val pp : Format.formatter -> t -> unit
