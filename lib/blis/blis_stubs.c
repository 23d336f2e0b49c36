/* The GEMM driver's data movement: packing A and B from the f64
 * row-major Matrix.t storage into the f32 panel arenas, and copying one C
 * tile between Matrix.t and its transposed slot of the f32 accumulator.
 * Also Matrix.fill_random_int's draw loop, which synthesizes GEMM inputs.
 *
 * Matrix.data is a flat float array (OCaml is configured with
 * flat_float_array), so its elements are consecutive doubles at the value
 * itself. Every store into the f32 arenas is a C (float) conversion of a
 * double: round to nearest, exactly as a Bigarray float32 store from OCaml.
 * The expressions are written so that no multiply and add can be
 * contracted: each stored value is one product or one copy.
 *
 * All five are [@@noalloc] and raise nothing. Ranges are the OCaml
 * caller's contract: Exo_blis.Packing checks the block and the arena
 * before it calls a packer, Exo_blis.Gemm checks the matrix storage and
 * sizes the accumulator before any tile is copied, and Exo_blis.Matrix
 * checks the storage and the bound before it fills. No loop body runs on
 * an empty block, so an empty array is never dereferenced. */

#include <stdint.h>
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

/* Matrix.fill_random_int: d[0 .. n-1] <- Random.State.int st (2*bound+1)
 * - bound, drawn in index order, and the advanced state stored back.
 *
 * Random.State.t is OCaml 5's LXM generator (L64X128, serialized as
 * "lxm1:"): an int64 Bigarray of four words {a; s; x0; x1}. One draw is the
 * runtime's caml_lxm_next (mix of s + x0; the LCG step of s; the
 * xoroshiro128 step of x0, x1), masked to 30 bits as Random.State.bits
 * does, then reduced by Random.State.int's rule: r mod span, redrawn when
 * r - v > 2^30 - span, which keeps every residue equally likely. So the
 * values and the state afterwards are those of the OCaml loop it replaced
 * (test_blis checks them against it). r < 2^30 and 1 <= span < 2^30, so
 * the reduction is exact in 32 bits. */
static inline uint64_t rotl64(uint64_t x, int k)
{
  return (x << k) | (x >> (64 - k));
}

CAMLprim value exo_blis_fill_random_int(value vst, value vd, value vn,
                                        value vbound)
{
  uint64_t *st = (uint64_t *)Caml_ba_data_val(vst);
  uint64_t a = st[0], s = st[1], x0 = st[2], x1 = st[3];
  double *d = (double *)vd;
  intnat n = Long_val(vn), bound = Long_val(vbound);
  uint32_t span = (uint32_t)(2 * bound + 1);
  uint32_t limit = 0x40000000u - span;
  for (intnat i = 0; i < n;) {
    uint64_t z = s + x0;
    z = (z ^ (z >> 32)) * 0xdaba0b6eb09322e3ull;
    z = (z ^ (z >> 32)) * 0xdaba0b6eb09322e3ull;
    z ^= z >> 32;
    s = s * 0xd1342543de82ef95ull + a;
    x1 ^= x0;
    x0 = rotl64(x0, 24) ^ x1 ^ (x1 << 16);
    x1 = rotl64(x1, 37);
    uint32_t r = (uint32_t)z & 0x3FFFFFFFu;
    uint32_t v = r % span;
    if (r - v <= limit)
      d[i++] = (double)((intnat)v - bound);
  }
  st[1] = s;
  st[2] = x0;
  st[3] = x1;
  return Val_unit;
}
