(** Runtime C compilation and binding for the native execution tier.

    [get_or_compile] is the whole pipeline: a content-addressed lookup of
    the compiled shared object in {!Exo_cache.Store} (kind
    {!so_kind} — raw bytes, so a corrupted artifact reads as a miss and is
    recompiled), a [cc -O3 -shared -fPIC] invocation on miss, and a
    [dlopen]/[dlsym] bind of every requested symbol into the process-global
    slot table the {!call} stub indexes.

    Nothing here certifies anything: the caller ({!Exo_blis.Registry})
    bit-compares every bound kernel against the Bigarray tier before it may
    serve — JIT'd code is certified-then-trusted, never trusted-on-load. *)

module Store = Exo_cache.Store
module Obs = Exo_obs.Obs

type ba32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

external dlopen_so : string -> nativeint = "exo_native_dlopen"
external dlsym_slot : nativeint -> string -> int = "exo_native_dlsym"

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

external address : ba32 -> int = "exo_native_ba_address" [@@noalloc]

let so_kind = "native_so"

(* ------------------------------------------------------------------ *)
(* Counters: always-on atomics (BENCH_gemm.json and the corrupted-cache
   tests read them in plain runs), mirrored into Obs while tracing.     *)

let compiles = Atomic.make 0
let so_hits = Atomic.make 0
let dlopens = Atomic.make 0
let errors = Atomic.make 0
let obs_compiles = Obs.counter "native.compiles"
let obs_so_hits = Obs.counter "native.so_cache_hits"
let obs_dlopens = Obs.counter "native.dlopens"
let obs_errors = Obs.counter "native.errors"

let count cell obs =
  Atomic.incr cell;
  if Obs.enabled () then Obs.incr obs

let counts () =
  (Atomic.get compiles, Atomic.get so_hits, Atomic.get dlopens, Atomic.get errors)

let reset_counts () =
  Atomic.set compiles 0;
  Atomic.set so_hits 0;
  Atomic.set dlopens 0;
  Atomic.set errors 0

(* ------------------------------------------------------------------ *)
(* Compile                                                             *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let temp_dir () =
  let f = Filename.temp_file "ukrnative" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let cflags () = [ "-O3"; "-fPIC"; "-shared" ] @ Host.march_flags ()

(** Compile one C translation unit with the host compiler; the shared
    object's bytes on success, the compiler's stderr (truncated) on
    failure. *)
let compile_c ~(src : string) : (string, string) result =
  match Host.cc () with
  | None -> Error "no C compiler (install cc or set UKRGEN_CC)"
  | Some cc ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let c_file = Filename.concat dir "kernels.c" in
          let so_file = Filename.concat dir "kernels.so" in
          let log_file = Filename.concat dir "cc.log" in
          write_file c_file src;
          let cmd =
            String.concat " "
              (Filename.quote cc :: cflags ()
              @ [
                  "-o";
                  Filename.quote so_file;
                  Filename.quote c_file;
                  "2>" ^ Filename.quote log_file;
                ])
          in
          match Sys.command cmd with
          | 0 ->
              count compiles obs_compiles;
              Ok (read_file so_file)
          | n ->
              count errors obs_errors;
              let log = try read_file log_file with _ -> "" in
              let log =
                if String.length log > 500 then String.sub log 0 500 ^ "..."
                else log
              in
              Error (Printf.sprintf "%s exited %d: %s" cc n (String.trim log)))

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

(** Bind [syms] from shared-object bytes: the bytes go to a private temp
    file, [dlopen] maps it, the file is unlinked (the mapping survives),
    and each symbol is registered as a fresh slot for {!call}. *)
let load_bytes ~(so : string) ~(syms : string list) : (int array, string) result
    =
  let tmp = Filename.temp_file "ukrnative" ".so" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      write_file tmp so;
      match dlopen_so tmp with
      | exception Failure e ->
          count errors obs_errors;
          Error e
      | handle -> (
          match List.map (dlsym_slot handle) syms with
          | slots ->
              count dlopens obs_dlopens;
              Ok (Array.of_list slots)
          | exception Failure e ->
              count errors obs_errors;
              Error e))

(** The read-through pipeline: cached .so bytes when [store] holds them
    under [key] (a corrupt or unloadable artifact is dropped and falls
    through to a fresh compile), else [src ()] is rendered, compiled and
    published. Returns the bound slots, one per symbol in order, and
    whether the bytes came from the cache. *)
let get_or_compile ~(store : Store.t option) ~(key : string)
    ~(src : unit -> string) ~(syms : string list) :
    (int array * bool, string) result =
  let cached =
    match store with
    | None -> None
    | Some st -> (
        match (Store.get st ~kind:so_kind ~key : string option) with
        | None -> None
        | Some bytes -> (
            match load_bytes ~so:bytes ~syms with
            | Ok slots ->
                count so_hits obs_so_hits;
                Some (slots, true)
            | Error _ ->
                (* cached bytes that no longer load (e.g. foreign-arch
                   artifact): drop the entry and recompile *)
                Store.remove st ~kind:so_kind ~key;
                None))
  in
  match cached with
  | Some r -> Ok r
  | None -> (
      match compile_c ~src:(src ()) with
      | Error e -> Error e
      | Ok bytes -> (
          (match store with
          | Some st -> ignore (Store.put st ~kind:so_kind ~key bytes)
          | None -> ());
          match load_bytes ~so:bytes ~syms with
          | Ok slots -> Ok (slots, false)
          | Error e -> Error e))
