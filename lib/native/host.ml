(** Host capability probe for the native JIT tier.

    Answers, once per question, the three things the registry needs before
    it may lower a kernel table to machine code: is the tier enabled, is
    there a working C compiler, and which vector ISAs does this machine
    actually execute — replacing the repo's historical silent assumption
    that every host is Carmel/Neon.

    The ISA census is read from [/proc/cpuinfo] at module init (single
    domain, so no [Lazy] races later); the compiler resolution re-reads the
    environment on every call so tests can mask [cc] from one process
    ([UKRGEN_CC=/nonexistent]) or disable the tier ([UKRGEN_NATIVE=0])
    without rebuilding, and only the [--version] banner is memoized. A
    caller about to need the banner can start its subprocess early
    ({!with_identity_prefetch}) and do other work while it runs. *)

type isa = Neon | Avx2 | Avx512 | Rvv

let isa_name = function
  | Neon -> "neon"
  | Avx2 -> "avx2"
  | Avx512 -> "avx512"
  | Rvv -> "rvv"

let env_native = "UKRGEN_NATIVE"
let env_cc = "UKRGEN_CC"

let enabled () =
  match Sys.getenv_opt env_native with
  | Some ("0" | "false" | "no" | "off") -> false
  | _ -> true

(* ------------------------------------------------------------------ *)
(* ISA census (computed once at init; hardware does not hot-swap)      *)

let cpuinfo_tokens =
  let text =
    try In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
    with _ -> ""
  in
  String.split_on_char '\n' text
  |> List.concat_map (fun line ->
         String.split_on_char ':' line
         |> List.concat_map (String.split_on_char '\t')
         |> List.concat_map (String.split_on_char ' '))
  |> List.filter (fun t -> t <> "")

let has_token t = List.mem t cpuinfo_tokens

(* RISC-V reports one "isa" string (e.g. rv64imafdcv): the 'v' extension
   after the base letters is the vector unit *)
let has_rvv =
  List.exists
    (fun t ->
      String.length t > 4
      && (String.sub t 0 4 = "rv64" || String.sub t 0 4 = "rv32")
      && String.contains_from t 4 'v')
    cpuinfo_tokens

let isas_v =
  List.filter_map Fun.id
    [
      (if has_token "asimd" || has_token "neon" then Some Neon else None);
      (if has_token "avx2" then Some Avx2 else None);
      (if has_token "avx512f" then Some Avx512 else None);
      (if has_rvv then Some Rvv else None);
    ]

let isas () = isas_v
let supports isa = List.mem isa isas_v

let f32_lanes () =
  if supports Avx512 then 16 else if supports Avx2 then 8 else 4

(* Architecture family, for the native-tuning flag spelling: x86 compilers
   take -march=native, AArch64 takes -mcpu=native. Inferred from the same
   cpuinfo census (sse2 is baseline on every x86-64). *)
let arch =
  if has_token "sse2" || has_token "avx" || has_token "GenuineIntel"
     || has_token "AuthenticAMD"
  then `X86
  else if has_token "asimd" || has_token "neon" || has_token "aarch64" then `Arm
  else if has_rvv then `Riscv
  else `Unknown

let march_flags () =
  match arch with
  | `X86 -> [ "-march=native" ]
  | `Arm -> [ "-mcpu=native" ]
  | `Riscv | `Unknown -> []

(* ------------------------------------------------------------------ *)
(* C compiler resolution                                               *)

let is_executable p =
  Sys.file_exists p
  && (not (Sys.is_directory p))
  &&
  try
    Unix.access p [ Unix.X_OK ];
    true
  with Unix.Unix_error _ -> false

let search_path name =
  if String.contains name '/' then if is_executable name then Some name else None
  else
    let path = Option.value ~default:"" (Sys.getenv_opt "PATH") in
    List.find_map
      (fun dir ->
        if dir = "" then None
        else
          let p = Filename.concat dir name in
          if is_executable p then Some p else None)
      (String.split_on_char ':' path)

let cc () =
  if not (enabled ()) then None
  else
    match Sys.getenv_opt env_cc with
    | None | Some "" -> List.find_map search_path [ "cc"; "gcc"; "clang" ]
    | Some p -> search_path p

(* The --version banner identifies the binary that produced a cached .so
   (a cache-key part): memoized per compiler path — one subprocess per
   distinct compiler per process. A banner is [Pending] between
   {!with_identity_prefetch} starting that subprocess and the first reader
   reaping it. *)
type banner = Known of string | Pending of int * Unix.file_descr

let identity_memo : (string, banner) Hashtbl.t = Hashtbl.create 4
let identity_mutex = Mutex.create ()

(* Start [path --version] (through the shell, stderr discarded) without
   waiting for it: its pid and the read end of its stdout. *)
let spawn_banner path =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match
    Fun.protect
      ~finally:(fun () -> Unix.close wr)
      (fun () ->
        Unix.create_process "/bin/sh"
          [| "/bin/sh"; "-c"; Filename.quote path ^ " --version 2>/dev/null" |]
          Unix.stdin wr Unix.stderr)
  with
  | pid -> (pid, rd)
  | exception e ->
      Unix.close rd;
      raise e

(* Drain and reap a started [--version]: the first line of its output, or
   the compiler's basename when it prints nothing or fails. *)
let finish_banner path ~pid ~rd =
  let ic = Unix.in_channel_of_descr rd in
  let out = try In_channel.input_all ic with Sys_error _ -> "" in
  close_in_noerr ic;
  let rec reap () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  let line = List.hd (String.split_on_char '\n' out) in
  match reap () with
  | Unix.WEXITED 0 when line <> "" -> line
  | _ -> Filename.basename path

(* Under [identity_mutex]: the memoized banner of [path], finishing a
   pending subprocess or running one now. *)
let resolve path =
  match Hashtbl.find_opt identity_memo path with
  | Some (Known id) -> id
  | memo ->
      let id =
        try
          let pid, rd =
            match memo with
            | Some (Pending (pid, rd)) -> (pid, rd)
            | _ -> spawn_banner path
          in
          finish_banner path ~pid ~rd
        with _ -> Filename.basename path
      in
      Hashtbl.replace identity_memo path (Known id);
      id

let cc_identity () =
  match cc () with
  | None -> "none"
  | Some path -> Mutex.protect identity_mutex (fun () -> resolve path)

let with_identity_prefetch f =
  (match cc () with
  | Some path ->
      Mutex.protect identity_mutex (fun () ->
          if not (Hashtbl.mem identity_memo path) then
            match spawn_banner path with
            | pid, rd -> Hashtbl.replace identity_memo path (Pending (pid, rd))
            | exception _ -> ())
  | None -> ());
  let settle () =
    Mutex.protect identity_mutex (fun () ->
        Hashtbl.fold
          (fun path b acc ->
            match b with Pending _ -> path :: acc | Known _ -> acc)
          identity_memo []
        |> List.iter (fun path -> ignore (resolve path)))
  in
  Fun.protect ~finally:settle f

let describe () =
  [
    ("native_tier", if enabled () then "enabled" else "disabled (UKRGEN_NATIVE=0)");
    ("cc", match cc () with Some p -> p | None -> "none");
    ("cc_identity", cc_identity ());
    ( "isa",
      match isas_v with
      | [] -> "generic"
      | l -> String.concat "," (List.map isa_name l) );
    ("f32_lanes", string_of_int (f32_lanes ()));
    ( "tuning_flags",
      match march_flags () with [] -> "-" | l -> String.concat " " l );
  ]
