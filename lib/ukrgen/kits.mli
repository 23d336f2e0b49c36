(** Target kits: the bundle of instruction definitions a schedule plugs into
    its [replace] calls — the paper's Section III-C portability mechanism,
    packaged ("changing the third argument in the replace statements").
    Kits without a lane-indexed FMA drive the broadcast-style pipeline. *)

type t = {
  name : string;
  dt : Exo_ir.Dtype.t;
  lanes : int;
  mem : Exo_ir.Mem.t;
  vld : Exo_ir.Ir.proc;
  vst : Exo_ir.Ir.proc;
  fma_lane : Exo_ir.Ir.proc option;  (** dst[i] += lhs[i] * rhs[l] *)
  fma_vv : Exo_ir.Ir.proc;  (** dst[i] += lhs[i] * rhs[i] *)
  fma_scalar : Exo_ir.Ir.proc option;  (** dst[i] += s[0] * rhs[i] *)
  fma_scalar_r : Exo_ir.Ir.proc option;  (** dst[i] += lhs[i] * s[0] *)
  bcast : Exo_ir.Ir.proc;  (** dst[i] = src[0] *)
  vregs : int;
      (** architectural vector-register budget — the ISA descriptor the
          lint sweep's pressure bound reads (agrees with the kit's
          {!Exo_isa.Memories} entry; pinned by a test) *)
  sched_steps : int;  (** declared packed-pipeline macro-step count *)
}

(** The paper's target: ARM Neon FP32, 4 lanes. *)
val neon_f32 : t

(** The contributed feature (Section III-D): Neon FP16, 8 lanes, [Neon8f]. *)
val neon_f16 : t

(** 32-bit integer multiply-accumulate — the integer-arithmetic case the
    paper's limitations discussion raises. *)
val neon_i32 : t

(** No lane-indexed FMA → set1 + element-wise FMA (Section III-C). *)
val avx512_f32 : t

(** 8 lanes, 16-entry register file. *)
val avx2_f32 : t

(** Future-work target; [vfmacc.vf] needs no broadcast at all. *)
val rvv_f32 : t

val all : t list
val by_name : string -> t option

(** Content digest over the descriptor scalars and the printed form of every
    instruction proc — the cache-key ingredient ({!Exo_cache.Store}) that
    invalidates persisted kernel/tuner artifacts when a kit changes. Stable
    across processes (keyed on printed names, not symbol ids). Computed
    once per kit value and process, memoized by physical identity: a
    [{ k with ... }] copy is a new value with its own digest. *)
val digest : t -> string
