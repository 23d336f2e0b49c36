(** Runtime C compilation and binding for the native execution tier:
    content-addressed shared objects in {!Exo_cache.Store}, host-[cc]
    compilation on miss, [dlopen]/[dlsym] binding into a process-global
    slot table, and the no-alloc call stub. Certification is the caller's
    job ({!Exo_blis.Registry} bit-compares every bound kernel against the
    Bigarray tier before service). *)

type ba32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Invoke a bound kernel: [C += A·B] on one packed tile through the fixed
    extern-"C" ABI [void ukr(int kc, const float *A, const float *B,
    float *C)], with [A]/[B]/[C] addressed at [ao]/[bo]/[co] elements into
    the Bigarrays; C is the contiguous transposed [nr × mr] tile. No bounds
    checks here — callers enforce the {!Exo_interp.Compile.ukr_ba} operand
    contract first. *)
external call :
  slot:int ->
  kc:int ->
  a:ba32 ->
  ao:int ->
  b:ba32 ->
  bo:int ->
  c:ba32 ->
  co:int ->
  unit = "exo_native_call_bytecode" "exo_native_call_native"
[@@noalloc]

(** The address of a Bigarray's first element (to align arenas). *)
external address : ba32 -> int = "exo_native_ba_address" [@@noalloc]

(** The {!Exo_cache.Store} kind shared-object bytes are filed under. *)
val so_kind : string

(** Compile one C translation unit ([-O3 -fPIC -shared] + host tuning
    flags): the shared object's bytes, or the compiler's diagnostics. *)
val compile_c : src:string -> (string, string) result

(** Bind symbols from shared-object bytes; slots in symbol order. *)
val load_bytes : so:string -> syms:string list -> (int array, string) result

(** Cache lookup → compile-on-miss → bind: slots in symbol order plus
    whether the bytes came from the store. A corrupted or unloadable
    cached artifact is dropped and recompiled (never served). *)
val get_or_compile :
  store:Exo_cache.Store.t option ->
  key:string ->
  src:(unit -> string) ->
  syms:string list ->
  (int array * bool, string) result

(** [(compiles, so_cache_hits, dlopens, errors)] — always-on process
    totals, mirrored to the Obs counters [native.*] while tracing. *)
val counts : unit -> int * int * int * int

val reset_counts : unit -> unit
