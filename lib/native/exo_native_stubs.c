/* dlopen/dlsym loader and call stub for the native JIT execution tier.
 *
 * A slot is an index into a process-global table of micro-kernel function
 * pointers with the fixed extern-"C" ABI every JIT'd kernel exports:
 *
 *   void ukr(int kc, const float *A, const float *B, float *C);
 *
 * C is the contiguous transposed nr x mr tile.
 *
 * Registration happens at table-build time under a mutex (several OCaml
 * domains may build different kernel tables concurrently); the table is a
 * fixed-size static array, so a published slot is never moved by a later
 * registration and the hot call reads it without synchronization — the
 * OCaml side publishes tables through Exo_par.Memo before sharing them.
 * Handles are never dlclose()d: a bound kernel lives for the process (the
 * registry memoizes one table per family). */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <dlfcn.h>
#include <pthread.h>

typedef void (*exo_ukr_fn)(int kc, const float *A, const float *B, float *C);

#define EXO_NATIVE_MAX_SLOTS 16384

static exo_ukr_fn exo_slots[EXO_NATIVE_MAX_SLOTS];
static int exo_slot_len = 0;
static pthread_mutex_t exo_slot_mutex = PTHREAD_MUTEX_INITIALIZER;

CAMLprim value exo_native_dlopen(value vpath)
{
  void *h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *e = dlerror();
    caml_failwith(e ? e : "dlopen failed");
  }
  return caml_copy_nativeint((intnat)h);
}

CAMLprim value exo_native_dlsym(value vhandle, value vsym)
{
  void *h = (void *)Nativeint_val(vhandle);
  void *fn = dlsym(h, String_val(vsym));
  int slot;
  if (fn == NULL) {
    const char *e = dlerror();
    caml_failwith(e ? e : "dlsym failed");
  }
  pthread_mutex_lock(&exo_slot_mutex);
  if (exo_slot_len >= EXO_NATIVE_MAX_SLOTS) {
    pthread_mutex_unlock(&exo_slot_mutex);
    caml_failwith("exo_native: slot table full");
  }
  slot = exo_slot_len;
  exo_slots[slot] = (exo_ukr_fn)fn;
  exo_slot_len++;
  pthread_mutex_unlock(&exo_slot_mutex);
  return Val_int(slot);
}

/* The hot call: no allocation, no exceptions. Operand bounds and slot
 * validity are the OCaml caller's contract (Exo_blis.Registry checks the
 * ukr_ba operand ranges before entering, and slots are only minted by
 * exo_native_dlsym above). */
CAMLprim value exo_native_call_native(value vslot, value vkc, value va,
                                      value vao, value vb, value vbo,
                                      value vc, value vco)
{
  exo_ukr_fn f = exo_slots[Int_val(vslot)];
  const float *a = (const float *)Caml_ba_data_val(va) + Int_val(vao);
  const float *b = (const float *)Caml_ba_data_val(vb) + Int_val(vbo);
  float *c = (float *)Caml_ba_data_val(vc) + Int_val(vco);
  f(Int_val(vkc), a, b, c);
  return Val_unit;
}

/* The address of a Bigarray's data, so OCaml can place arenas on a
 * 64-byte boundary. */
CAMLprim value exo_native_ba_address(value vba)
{
  return Val_long((intnat)Caml_ba_data_val(vba));
}

CAMLprim value exo_native_call_bytecode(value *argv, int argn)
{
  (void)argn;
  return exo_native_call_native(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5], argv[6], argv[7]);
}
