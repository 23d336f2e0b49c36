(** Host capability probe for the native JIT tier: C-compiler presence and
    the machine's vector ISAs, detected once and consulted by the registry
    to pick an emit target (intrinsics on a matching host, the portable
    lowering otherwise) — and by [ukrgen explain] and the bench records'
    [host_cc] / [host_isa] labels, so every measurement records what the
    host could actually execute. *)

type isa = Neon | Avx2 | Avx512 | Rvv

val isa_name : isa -> string

(** [UKRGEN_NATIVE]: set to [0]/[false]/[no]/[off] to disable the native
    tier (the registry then serves the Bigarray tier everywhere). *)
val env_native : string

(** [UKRGEN_CC]: an explicit compiler path or name; empty/unset falls back
    to searching [PATH] for [cc], [gcc], [clang]. A set-but-missing value
    masks the compiler entirely (the graceful-degradation tests use this). *)
val env_cc : string

(** The tier is not disabled by {!env_native}. *)
val enabled : unit -> bool

(** The C compiler the JIT would invoke: [None] when the tier is disabled,
    the compiler is masked, or no candidate is executable. Re-reads the
    environment on every call (cheap — a few [stat]s). *)
val cc : unit -> string option

(** First [--version] line of {!cc} (memoized per path), or ["none"] — a
    content-address key part for cached shared objects. *)
val cc_identity : unit -> string

(** [with_identity_prefetch f] starts {!cc}'s [--version] subprocess in
    the background when a compiler is found and its banner is not memoized
    yet, then runs [f]. A {!cc_identity} call inside [f] reads that
    subprocess's output instead of starting its own. The subprocess is
    reaped before this returns, even when [f] raises or never asks. *)
val with_identity_prefetch : (unit -> 'a) -> 'a

(** Vector ISAs this machine executes (from [/proc/cpuinfo], read once). *)
val isas : unit -> isa list

val supports : isa -> bool

(** f32 lanes in the widest vector register the host executes: 16 with
    AVX-512, 8 with AVX2, 4 otherwise (Neon, SSE, RVV at its 128-bit
    minimum) — the width the portable nest's vector form fills. *)
val f32_lanes : unit -> int

(** Host-tuning flags in the host compiler's spelling ([-march=native] on
    x86, [-mcpu=native] on AArch64, none where unsupported). *)
val march_flags : unit -> string list

(** Key/value capability report for [ukrgen explain] and the bench meta. *)
val describe : unit -> (string * string) list
