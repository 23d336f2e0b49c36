(** BLIS packing routines.

    [pack_a] re-lays an mc×kc block of A into micro-panels of [mr] rows,
    each panel k-major ([kc × mr], unit stride across the rows) — exactly
    the layout the generated micro-kernels' [Ac: f32[KC, MR]] argument
    assumes. [pack_b] does the same for kc×nc blocks of B in [nr]-column
    panels ([kc × nr]). Edge panels are packed at their true width (the Exo
    approach: a dedicated kernel per fringe shape).

    Panels live in one contiguous caller-provided float32 Bigarray arena
    (the store is the f32 rounding) at a fixed pitch (the full-width panel
    size: panel [i] starts at [i · kcb · mr] for A, [off + i · kcb · nr]
    for B), so a steady-state GEMM driver reuses one buffer per operand
    instead of allocating per (jc, pc, ic) block; fringe panels occupy a
    prefix of their slot. The packing loops are build-time C
    ([blis_stubs.c], noalloc, default C flags) behind a single up-front
    range check (block within the matrix and its storage, arena large
    enough); the OCaml loops they replaced live on in [test/test_blis.ml]
    as the oracle they are checked against. Packing allocates nothing.

    Packing is also where alpha is applied ([Bc = alpha · B], the paper's
    Fig. 4), so the micro-kernels run the simplified alpha = beta = 1
    code. *)

type ba32 = Exo_interp.Compile.ba32

(** Arena sizes for a maximal block: full-width panels at full pitch. *)
let a_arena_size ~(mcb : int) ~(kcb : int) ~(mr : int) : int =
  (mcb + mr - 1) / mr * kcb * mr

let b_arena_size ~(ncb : int) ~(kcb : int) ~(nr : int) : int =
  (ncb + nr - 1) / nr * kcb * nr

module BA1 = Bigarray.Array1

(* The loops are build-time C (blis_stubs.c), reading Matrix.data in place
   and rounding with a C (float) conversion, the same rounding as a
   Bigarray float32 store. They trust their ranges: every call below runs
   behind the up-front checks. *)
external pack_a_stub :
  float array -> int -> int -> int -> int -> int -> int -> ba32 -> unit
  = "exo_blis_pack_a_bytecode" "exo_blis_pack_a"
[@@noalloc]

external pack_b_stub :
  float array -> int -> int -> int -> int -> int -> int ->
  (float[@unboxed]) -> ba32 -> int -> unit
  = "exo_blis_pack_b_bytecode" "exo_blis_pack_b"
[@@noalloc]

let short_storage (x : Matrix.t) =
  Array.length x.Matrix.data < x.Matrix.rows * x.Matrix.cols

let pack_a (dst : ba32) (a : Matrix.t) ~(ic : int) ~(pc : int) ~(mcb : int)
    ~(kcb : int) ~(mr : int) : unit =
  if mr < 1 || mcb < 0 || kcb < 0 || ic < 0 || pc < 0
     || ic + mcb > a.Matrix.rows || pc + kcb > a.Matrix.cols || short_storage a
  then invalid_arg "pack_a_ba: block out of range";
  if BA1.dim dst < a_arena_size ~mcb ~kcb ~mr then
    invalid_arg "pack_a_ba: arena too small";
  pack_a_stub a.Matrix.data a.Matrix.cols ic pc mcb kcb mr dst

let pack_b ~(alpha : float) (dst : ba32) ~(off : int) (b : Matrix.t) ~(pc : int)
    ~(jc : int) ~(kcb : int) ~(ncb : int) ~(nr : int) : unit =
  if nr < 1 || ncb < 0 || kcb < 0 || pc < 0 || jc < 0
     || pc + kcb > b.Matrix.rows || jc + ncb > b.Matrix.cols || short_storage b
  then invalid_arg "pack_b_ba: block out of range";
  if off < 0 || BA1.dim dst - off < b_arena_size ~ncb ~kcb ~nr then
    invalid_arg "pack_b_ba: arena too small";
  pack_b_stub b.Matrix.data b.Matrix.cols pc jc kcb ncb nr alpha dst off
