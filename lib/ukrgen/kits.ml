(** Target kits: the bundle of instruction definitions a schedule plugs into
    its [replace] calls.

    The paper's portability claim (Section III-C) is that retargeting the
    generator is only "changing the third argument in the replace
    statements" — a kit is exactly that third argument, packaged. Kits that
    lack a lane-indexed FMA ([fma_lane = None], e.g. AVX-512) drive the
    broadcast-style pipeline instead. *)

open Exo_ir

type t = {
  name : string;
  dt : Dtype.t;
  lanes : int;
  mem : Mem.t;
  vld : Ir.proc;
  vst : Ir.proc;
  fma_lane : Ir.proc option;  (** dst\[i\] += lhs\[i\] * rhs\[l\] *)
  fma_vv : Ir.proc;  (** dst\[i\] += lhs\[i\] * rhs\[i\] *)
  fma_scalar : Ir.proc option;  (** dst\[i\] += s\[0\] * rhs\[i\] *)
  fma_scalar_r : Ir.proc option;  (** dst\[i\] += lhs\[i\] * s\[0\] *)
  bcast : Ir.proc;  (** dst\[i\] = src\[0\] *)
  vregs : int;
      (** architectural vector-register budget of the kit's ISA — the lint
          sweep's pressure bound comes from here, not from hardcoded Carmel
          numbers (it must agree with the kit's {!Exo_isa.Memories} entry) *)
  sched_steps : int;
      (** declared schedule macro-step count for the packed pipeline; the
          generator's provenance log must agree ([Family.generate] checks) *)
}

let neon_f32 =
  {
    name = "neon-f32";
    dt = Dtype.F32;
    lanes = 4;
    mem = Exo_isa.Neon.mem;
    vld = Exo_isa.Neon.vld_4xf32;
    vst = Exo_isa.Neon.vst_4xf32;
    fma_lane = Some Exo_isa.Neon.vfmla_4xf32_4xf32;
    fma_vv = Exo_isa.Neon.vfmadd_4xf32_4xf32;
    fma_scalar = Some Exo_isa.Neon.vfmacc_scalar_4xf32;
    fma_scalar_r = Some Exo_isa.Neon.vfmacc_scalar_r_4xf32;
    bcast = Exo_isa.Neon.vdup_4xf32;
    vregs = 32;
    sched_steps = 6;
  }

(** The f16 kit the paper contributed to Exo (Section III-D): 8 lanes,
    [Neon8f] memory. *)
let neon_f16 =
  {
    name = "neon-f16";
    dt = Dtype.F16;
    lanes = 8;
    mem = Exo_isa.Neon.mem8f;
    vld = Exo_isa.Neon.vld_8xf16;
    vst = Exo_isa.Neon.vst_8xf16;
    fma_lane = Some Exo_isa.Neon.vfmla_8xf16_8xf16;
    fma_vv = Exo_isa.Neon.vfmadd_8xf16_8xf16;
    fma_scalar = None;
    fma_scalar_r = None;
    bcast = Exo_isa.Neon.vdup_8xf16;
    vregs = 32;
    sched_steps = 6;
  }

(** AVX-512: no lane-indexed FMA, so schedules go through
    [bind_expr_bcast] + [set1] + element-wise FMA. *)
let avx512_f32 =
  {
    name = "avx512-f32";
    dt = Dtype.F32;
    lanes = 16;
    mem = Exo_isa.Avx512.mem;
    vld = Exo_isa.Avx512.loadu_16xf32;
    vst = Exo_isa.Avx512.storeu_16xf32;
    fma_lane = None;
    fma_vv = Exo_isa.Avx512.fmadd_16xf32;
    fma_scalar = None;
    fma_scalar_r = None;
    bcast = Exo_isa.Avx512.set1_16xf32;
    vregs = 32;
    sched_steps = 6;
  }

(** Integer kernels (the HPC libraries' missing case, limitations point 5):
    32-bit integer multiply-accumulate, 4 lanes. *)
let neon_i32 =
  {
    name = "neon-i32";
    dt = Dtype.I32;
    lanes = 4;
    mem = Exo_isa.Neon.mem;
    vld = Exo_isa.Neon.vld_4xi32;
    vst = Exo_isa.Neon.vst_4xi32;
    fma_lane = Some Exo_isa.Neon.vmla_4xi32_4xi32;
    fma_vv = Exo_isa.Neon.vmlad_4xi32_4xi32;
    fma_scalar = None;
    fma_scalar_r = None;
    bcast = Exo_isa.Neon.vdup_4xi32;
    vregs = 32;
    sched_steps = 6;
  }

(** AVX2: 8 lanes, a 16-entry register file (the tuner's feasibility check
    matters here), broadcast + element-wise FMA. *)
let avx2_f32 =
  {
    name = "avx2-f32";
    dt = Dtype.F32;
    lanes = 8;
    mem = Exo_isa.Avx2.mem;
    vld = Exo_isa.Avx2.loadu_8xf32;
    vst = Exo_isa.Avx2.storeu_8xf32;
    fma_lane = None;
    fma_vv = Exo_isa.Avx2.fmadd_8xf32;
    fma_scalar = None;
    fma_scalar_r = None;
    bcast = Exo_isa.Avx2.broadcast_8xf32;
    vregs = 16;
    sched_steps = 6;
  }

(** RISC-V vector (VLEN = 128): scalar-times-vector FMA maps the broadcast
    pipeline with no dup at all. *)
let rvv_f32 =
  {
    name = "rvv-f32";
    dt = Dtype.F32;
    lanes = 4;
    mem = Exo_isa.Rvv.mem;
    vld = Exo_isa.Rvv.vle_4xf32;
    vst = Exo_isa.Rvv.vse_4xf32;
    fma_lane = None;
    fma_vv = Exo_isa.Rvv.vfmacc_vv_4xf32;
    fma_scalar = Some Exo_isa.Rvv.vfmacc_vf_4xf32;
    fma_scalar_r = Some Exo_isa.Rvv.vfmacc_vf_r_4xf32;
    bcast = Exo_isa.Rvv.vfmv_4xf32;
    vregs = 32;
    sched_steps = 6;
  }

let all = [ neon_f32; neon_f16; neon_i32; avx512_f32; avx2_f32; rvv_f32 ]

let by_name n = List.find_opt (fun k -> String.equal k.name n) all

(* Content digest of a kit — the cache-key ingredient that invalidates
   every persisted artifact when the kit changes. Covers the descriptor
   scalars and the printed form of every instruction proc (names, preds,
   bodies; [Pp.proc_to_string] prints names rather than internal ids, so
   the digest is stable across processes). *)
let compute_digest (k : t) : string =
  let b = Buffer.create 1024 in
  let part s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  part k.name;
  part (Dtype.exo_name k.dt);
  part (string_of_int k.lanes);
  part (Mem.name k.mem);
  part (string_of_int k.vregs);
  part (string_of_int k.sched_steps);
  let proc p = part (Pp.proc_to_string p) in
  let opt tag p =
    match p with
    | None -> part (tag ^ "=none")
    | Some p ->
        part (tag ^ "=some");
        proc p
  in
  proc k.vld;
  proc k.vst;
  opt "fma_lane" k.fma_lane;
  proc k.fma_vv;
  opt "fma_scalar" k.fma_scalar;
  opt "fma_scalar_r" k.fma_scalar_r;
  proc k.bcast;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digests already computed, by physical identity of the kit value. A kit
   is immutable, so its digest is fixed for the value's lifetime; a
   [{ k with ... }] copy is another value and gets its own entry. A domain
   that loses the CAS to a racing one starts over, so each value gets one
   entry. The list holds the kits this process keys with: the six of
   {!all}, plus any copies tests make. *)
let digests : (t * string) list Atomic.t = Atomic.make []

let rec digest (k : t) : string =
  let seen = Atomic.get digests in
  match List.assq_opt k seen with
  | Some d -> d
  | None ->
      let d = compute_digest k in
      if Atomic.compare_and_set digests seen ((k, d) :: seen) then d
      else digest k
