/* The GEMM driver's data movement: packing A and B from the f64
 * row-major Matrix.t storage into the f32 panel arenas, and copying one C
 * tile between Matrix.t and its transposed slot of the f32 accumulator.
 *
 * Matrix.data is a flat float array (OCaml is configured with
 * flat_float_array), so its elements are consecutive doubles at the value
 * itself. Every store into the f32 arenas is a C (float) conversion of a
 * double: round to nearest, exactly as a Bigarray float32 store from OCaml.
 * The expressions are written so that no multiply and add can be
 * contracted: each stored value is one product or one copy.
 *
 * All four are [@@noalloc] and raise nothing. Ranges are the OCaml
 * caller's contract: Exo_blis.Packing checks the block and the arena
 * before it calls a packer, and Exo_blis.Gemm checks the matrix storage and
 * sizes the accumulator before any tile is copied. No loop body runs on an
 * empty block, so an empty array is never dereferenced. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define F32(v) ((float *)Caml_ba_data_val(v))

/* A(ic .. ic+mcb-1, pc .. pc+kcb-1) into mr-row panels at pitch kcb*mr:
 * panel ir is k-major, element (kk, i) at ir*kcb*mr + kk*w + i, where w is
 * the panel's true width. */
static void pack_a(const double *src, intnat lda, intnat ic, intnat pc,
                   intnat mcb, intnat kcb, intnat mr, float *dst)
{
  for (intnat ir = 0; ir * mr < mcb; ir++) {
    intnat w = mcb - ir * mr < mr ? mcb - ir * mr : mr;
    float *d = dst + ir * kcb * mr;
    const double *s = src + (ic + ir * mr) * lda + pc;
    for (intnat kk = 0; kk < kcb; kk++)
      for (intnat i = 0; i < w; i++)
        d[kk * w + i] = (float)s[i * lda + kk];
  }
}

CAMLprim value exo_blis_pack_a(value vsrc, value vlda, value vic, value vpc,
                               value vmcb, value vkcb, value vmr, value vdst)
{
  pack_a((const double *)vsrc, Long_val(vlda), Long_val(vic), Long_val(vpc),
         Long_val(vmcb), Long_val(vkcb), Long_val(vmr), F32(vdst));
  return Val_unit;
}

CAMLprim value exo_blis_pack_a_bytecode(value *argv, int argn)
{
  (void)argn;
  return exo_blis_pack_a(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6], argv[7]);
}

/* alpha·B(pc .. pc+kcb-1, jc .. jc+ncb-1) into nr-column panels at pitch
 * kcb*nr, starting at dst + off: element (kk, j) of panel jr at
 * off + jr*kcb*nr + kk*w + j. */
static void pack_b(const double *src, intnat ldb, intnat pc, intnat jc,
                   intnat kcb, intnat ncb, intnat nr, double alpha,
                   float *dst)
{
  for (intnat jr = 0; jr * nr < ncb; jr++) {
    intnat w = ncb - jr * nr < nr ? ncb - jr * nr : nr;
    float *d = dst + jr * kcb * nr;
    const double *s = src + pc * ldb + jc + jr * nr;
    for (intnat kk = 0; kk < kcb; kk++)
      for (intnat j = 0; j < w; j++)
        d[kk * w + j] = (float)(alpha * s[kk * ldb + j]);
  }
}

CAMLprim value exo_blis_pack_b(value vsrc, value vldb, value vpc, value vjc,
                               value vkcb, value vncb, value vnr,
                               double alpha, value vdst, value voff)
{
  pack_b((const double *)vsrc, Long_val(vldb), Long_val(vpc), Long_val(vjc),
         Long_val(vkcb), Long_val(vncb), Long_val(vnr), alpha,
         F32(vdst) + Long_val(voff));
  return Val_unit;
}

CAMLprim value exo_blis_pack_b_bytecode(value *argv, int argn)
{
  (void)argn;
  return exo_blis_pack_b(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6], Double_val(argv[7]), argv[8],
                         argv[9]);
}

/* C tile (mrb rows, nrb columns at flat cbase, row stride ldc) into the
 * transposed accumulator slot at co as beta·C. At beta = 0 C is not read:
 * the slot is zero-filled, so a NaN or Inf in C does not reach the result. */
CAMLprim value exo_blis_gather(value vc, value vcbase, value vldc, value vcw,
                               value vco, value vmrb, value vnrb, double beta)
{
  const double *c = (const double *)vc + Long_val(vcbase);
  float *t = F32(vcw) + Long_val(vco);
  intnat ldc = Long_val(vldc), mrb = Long_val(vmrb), nrb = Long_val(vnrb);
  if (beta == 0.0) {
    for (intnat x = 0; x < mrb * nrb; x++)
      t[x] = 0.0f;
  } else {
    for (intnat i = 0; i < mrb; i++)
      for (intnat j = 0; j < nrb; j++)
        t[j * mrb + i] = (float)(beta * c[i * ldc + j]);
  }
  return Val_unit;
}

CAMLprim value exo_blis_gather_bytecode(value *argv, int argn)
{
  (void)argn;
  return exo_blis_gather(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6], Double_val(argv[7]));
}

/* The accumulator slot at co back into the C tile. */
CAMLprim value exo_blis_scatter(value vc, value vcbase, value vldc, value vcw,
                                value vco, value vmrb, value vnrb)
{
  double *c = (double *)vc + Long_val(vcbase);
  const float *t = F32(vcw) + Long_val(vco);
  intnat ldc = Long_val(vldc), mrb = Long_val(vmrb), nrb = Long_val(vnrb);
  for (intnat i = 0; i < mrb; i++)
    for (intnat j = 0; j < nrb; j++)
      c[i * ldc + j] = (double)t[j * mrb + i];
  return Val_unit;
}

CAMLprim value exo_blis_scatter_bytecode(value *argv, int argn)
{
  (void)argn;
  return exo_blis_scatter(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6]);
}
