(** BLIS packing routines.

    [pack_a_ba_into] re-lays an mc×kc block of A into micro-panels of [mr]
    rows, each panel k-major ([kc × mr], unit stride across the rows) —
    exactly the layout the generated micro-kernels' [Ac: f32[KC, MR]]
    argument assumes. [pack_b_ba_into] does the same for kc×nc blocks of B in
    [nr]-column panels ([kc × nr]). Edge panels are packed at their true
    width (the Exo approach: a dedicated kernel per fringe shape) —
    [panel_width] reports it.

    Panels live in one contiguous caller-provided float32 Bigarray arena
    (the store is the f32 rounding) at a fixed pitch (the full-width panel
    size), so a steady-state GEMM driver reuses one buffer per operand
    instead of allocating per (jc, pc, ic) block:
    [panel_off] gives each panel's start, fringe panels occupy a prefix of
    their slot. The packing loops run unsafe accesses behind a single
    up-front range check (block within the matrix, arena large enough).

    Packing is also where alpha is applied ([Bc = alpha · B], the paper's
    Fig. 4), so the micro-kernels run the simplified alpha = beta = 1
    code. *)

type ba32 = Exo_interp.Compile.ba32

type packed = {
  data : ba32;  (** the arena the panels were packed into *)
  pitch : int;  (** elements between consecutive panel starts *)
  num_panels : int;
  depth : int;  (** kc of this packing *)
  full : int;  (** full panel width: mr (A) or nr (B) *)
  block : int;  (** packed block extent: mcb (A) or ncb (B) *)
}

let panel_off (p : packed) (i : int) : int = i * p.pitch

let panel_width (p : packed) (i : int) : int =
  min p.full (p.block - (i * p.full))

(** Arena sizes for a maximal block: full-width panels at full pitch. *)
let a_arena_size ~(mcb : int) ~(kcb : int) ~(mr : int) : int =
  (mcb + mr - 1) / mr * kcb * mr

let b_arena_size ~(ncb : int) ~(kcb : int) ~(nr : int) : int =
  (ncb + nr - 1) / nr * kcb * nr

module BA1 = Bigarray.Array1

(** Pack A(ic .. ic+mcb-1, pc .. pc+kcb-1) into mr-row panels in [dst].
    The store itself performs the f32 rounding the kernels' [Ac] operand
    carries. One up-front range check, then unsafe accesses: source indices
    stay within the block, destinations within the checked arena prefix. *)
let pack_a_ba_into (dst : ba32) (a : Matrix.t) ~(ic : int) ~(pc : int)
    ~(mcb : int) ~(kcb : int) ~(mr : int) : packed =
  if mcb < 0 || kcb < 0 || ic < 0 || pc < 0 || ic + mcb > a.Matrix.rows
     || pc + kcb > a.Matrix.cols
  then invalid_arg "pack_a_ba: block out of range";
  if BA1.dim dst < a_arena_size ~mcb ~kcb ~mr then
    invalid_arg "pack_a_ba: arena too small";
  let num_panels = (mcb + mr - 1) / mr in
  let lda = a.Matrix.cols and src = a.Matrix.data in
  for ir = 0 to num_panels - 1 do
    let w = min mr (mcb - (ir * mr)) in
    let po = ir * kcb * mr in
    let rbase = ((ic + (ir * mr)) * lda) + pc in
    for kk = 0 to kcb - 1 do
      let db = po + (kk * w) and sb = rbase + kk in
      for i = 0 to w - 1 do
        BA1.unsafe_set dst (db + i) (Array.unsafe_get src (sb + (i * lda)))
      done
    done
  done;
  { data = dst; pitch = kcb * mr; num_panels; depth = kcb; full = mr; block = mcb }

(** Pack B(pc .. pc+kcb-1, jc .. jc+ncb-1) into nr-column panels in [dst],
    scaled by [alpha]. *)
let pack_b_ba_into ?(alpha = 1.0) (dst : ba32) (b : Matrix.t) ~(pc : int)
    ~(jc : int) ~(kcb : int) ~(ncb : int) ~(nr : int) : packed =
  if ncb < 0 || kcb < 0 || pc < 0 || jc < 0 || pc + kcb > b.Matrix.rows
     || jc + ncb > b.Matrix.cols
  then invalid_arg "pack_b_ba: block out of range";
  if BA1.dim dst < b_arena_size ~ncb ~kcb ~nr then
    invalid_arg "pack_b_ba: arena too small";
  let num_panels = (ncb + nr - 1) / nr in
  let ldb = b.Matrix.cols and src = b.Matrix.data in
  if Float.equal alpha 1.0 then
    for jr = 0 to num_panels - 1 do
      let w = min nr (ncb - (jr * nr)) in
      let po = jr * kcb * nr in
      let cbase = jc + (jr * nr) in
      for kk = 0 to kcb - 1 do
        let db = po + (kk * w) and sb = ((pc + kk) * ldb) + cbase in
        for j = 0 to w - 1 do
          BA1.unsafe_set dst (db + j) (Array.unsafe_get src (sb + j))
        done
      done
    done
  else
    for jr = 0 to num_panels - 1 do
      let w = min nr (ncb - (jr * nr)) in
      let po = jr * kcb * nr in
      let cbase = jc + (jr * nr) in
      for kk = 0 to kcb - 1 do
        let db = po + (kk * w) and sb = ((pc + kk) * ldb) + cbase in
        for j = 0 to w - 1 do
          BA1.unsafe_set dst (db + j) (alpha *. Array.unsafe_get src (sb + j))
        done
      done
    done;
  { data = dst; pitch = kcb * nr; num_panels; depth = kcb; full = nr; block = ncb }
