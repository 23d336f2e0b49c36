(** Content-addressed persistent artifact store.

    The cold-start eliminator's disk half: compiled-kernel artifacts and
    tuner rankings are keyed by a stable digest over everything that could
    change their meaning (kit name + kit content digest, shape, variant,
    declared schedule steps, compiler/ABI version) and written once, then
    answered from disk by every later process — the daemon, the one-shot
    CLI, and the bench all read the same entries.

    Durability contract:
    - {b atomic writes}: an entry is serialized to a temp file in the entry's
      own directory and published with a hard link (falling back to rename),
      so a reader never observes a half-written entry;
    - {b first writer wins}: publishing is create-if-absent ([Unix.link]
      fails with [EEXIST]); when several domains or processes race to fill
      the same key, exactly one body survives and the losers' bytes are
      dropped — mirroring {!Exo_par.Memo}'s in-memory contract;
    - {b corruption-tolerant reads}: every entry carries a magic tag, a
      format version and an MD5 over the payload; a truncated, corrupted or
      zero-length file (or one written by an incompatible build) reads as
      [None] and is unlinked so the next writer can replace it — a bad cache
      can cost a recompute, never a crash;
    - {b invalidation by keying}: nothing is ever edited in place. Changing
      a kit (its digest is a key part) or the artifact ABI simply keys new
      entries; stale ones become unreachable garbage.

    Values go through [Marshal] and must be pure data — no closures, no
    custom blocks with [Abstract] semantics. Each caller guards its own
    payload type with a distinct [kind] and an ABI-version key part. *)

type t = { root : string }

let root t = t.root

(* ------------------------------------------------------------------ *)
(* Counters: always-on atomics (the serve STATS verb and the bench's
   hit/miss section must see traffic in plain runs), mirrored into Obs
   counters for the profile exporter when tracing is enabled. *)

module Obs = Exo_obs.Obs

let hits = Atomic.make 0
let misses = Atomic.make 0
let writes = Atomic.make 0
let corrupt = Atomic.make 0
let obs_hits = Obs.counter "cache.hits"
let obs_misses = Obs.counter "cache.misses"
let obs_writes = Obs.counter "cache.writes"
let obs_corrupt = Obs.counter "cache.corrupt"

let count cell obs =
  Atomic.incr cell;
  if Obs.enabled () then Obs.incr obs

let hit_miss_counts () = (Atomic.get hits, Atomic.get misses)
let write_counts () = (Atomic.get writes, Atomic.get corrupt)

let reset_counts () =
  Atomic.set hits 0;
  Atomic.set misses 0;
  Atomic.set writes 0;
  Atomic.set corrupt 0

(* ------------------------------------------------------------------ *)
(* Store construction and the ambient (process-default) store           *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let of_dir dir =
  mkdir_p dir;
  { root = dir }

let env_var = "UKRGEN_CACHE_DIR"

(* The ambient store is what Registry/Family/Tuner consult when the caller
   does not thread a store explicitly: unset (the default — [dune runtest]
   must not write outside the build tree) unless [UKRGEN_CACHE_DIR] is set
   or the CLI's [--cache] installed one. [None] in the cell means "not yet
   resolved"; [Some None] means "resolved: disabled". *)
let ambient_cell : t option option Atomic.t = Atomic.make None

let set_ambient = function
  | None -> Atomic.set ambient_cell (Some None)
  | Some dir -> Atomic.set ambient_cell (Some (Some (of_dir dir)))

let ambient () =
  match Atomic.get ambient_cell with
  | Some v -> v
  | None ->
      let v =
        match Sys.getenv_opt env_var with
        | Some dir when dir <> "" -> ( try Some (of_dir dir) with _ -> None)
        | _ -> None
      in
      (* first resolver wins; races only ever resolve to the same value *)
      ignore (Atomic.compare_and_set ambient_cell None (Some v));
      (match Atomic.get ambient_cell with Some v -> v | None -> v)

(* ------------------------------------------------------------------ *)
(* Keys: hex MD5 over a length-prefixed part encoding, so part contents
   can never run into each other ("ab"+"c" vs "a"+"bc").                *)

let key (parts : string list) : string =
  let b = Buffer.create 128 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Entries live at <root>/<kind>/<first-two-hex>/<digest>, the usual
   fan-out so one kind never piles thousands of files in one directory. *)
let path t ~kind ~key:k =
  if String.length k < 3 then invalid_arg "Store.path: key too short";
  Filename.concat (Filename.concat (Filename.concat t.root kind) (String.sub k 0 2)) k

(* ------------------------------------------------------------------ *)
(* Entry file format: magic+version line, payload digest line, payload
   length line, then the marshaled payload.                             *)

let magic = "EXOCACHE1"

let encode (v : 'a) : string =
  let payload = Marshal.to_string v [] in
  String.concat ""
    [
      magic; "\n";
      Digest.to_hex (Digest.string payload); "\n";
      string_of_int (String.length payload); "\n";
      payload;
    ]

let decode (s : string) : 'a option =
  try
    let nl1 = String.index s '\n' in
    let nl2 = String.index_from s (nl1 + 1) '\n' in
    let nl3 = String.index_from s (nl2 + 1) '\n' in
    if String.sub s 0 nl1 <> magic then None
    else
      let digest = String.sub s (nl1 + 1) (nl2 - nl1 - 1) in
      let len = int_of_string (String.sub s (nl2 + 1) (nl3 - nl2 - 1)) in
      if String.length s - nl3 - 1 <> len then None
      else
        let payload = String.sub s (nl3 + 1) len in
        if Digest.to_hex (Digest.string payload) <> digest then None
        else Some (Marshal.from_string payload 0)
  with _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let remove t ~kind ~key:k =
  try Sys.remove (path t ~kind ~key:k) with Sys_error _ -> ()

let get (t : t) ~(kind : string) ~(key : string) : 'a option =
  let p = path t ~kind ~key in
  if not (Sys.file_exists p) then begin
    count misses obs_misses;
    None
  end
  else
    match decode (read_file p) with
    | Some v ->
        count hits obs_hits;
        Some v
    | None | (exception _) ->
        (* bad entry: drop it so a later put can heal the slot, and report
           a miss — the caller recomputes exactly as on a cold key *)
        count corrupt obs_corrupt;
        count misses obs_misses;
        (try Sys.remove p with Sys_error _ -> ());
        None

(** [put t ~kind ~key v] — publish [v] unless the key is already present.
    Returns [true] when this call's bytes became the entry, [false] when an
    earlier writer (this or any other process) won. *)
let put (t : t) ~(kind : string) ~(key : string) (v : 'a) : bool =
  let target = path t ~kind ~key in
  mkdir_p (Filename.dirname target);
  if Sys.file_exists target then false
  else
    let dir = Filename.dirname target in
    let tmp =
      Filename.temp_file ~temp_dir:dir ".wr" ".tmp"
    in
    let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (encode v));
      (* create-if-absent publish: link fails with EEXIST when another
         writer got there first *)
      (try
         Unix.link tmp target;
         true
       with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> false
      | Unix.Unix_error ((Unix.EPERM | Unix.ENOSYS | Unix.EOPNOTSUPP), _, _) ->
          (* no hard links on this filesystem: fall back to the atomic (but
             last-writer-wins) rename, guarded by the existence check above *)
          if Sys.file_exists target then false
          else begin
            Sys.rename tmp target;
            true
          end)
    with
    | won ->
        cleanup ();
        if won then count writes obs_writes;
        won
    | exception e ->
        cleanup ();
        raise e

(** Memoized read-through: the disk-backed analogue of
    {!Exo_par.Memo.find_or_add}. A miss (or corrupt entry) computes and
    publishes; a call that loses the publish race re-reads and returns the
    winner's value, so every racer converges on the one published entry.
    Only when that re-read misses too (the winner's entry vanished or is
    unreadable) does the call fall back to its own value. *)
let find_or_add (t : t) ~(kind : string) ~(key : string) (compute : unit -> 'a) : 'a =
  match get t ~kind ~key with
  | Some v -> v
  | None ->
      let v = compute () in
      if put t ~kind ~key v then v
      else Option.value (get t ~kind ~key) ~default:v

type gc_stats = {
  gc_scanned : int;
  gc_deleted : int;
  gc_kept_bytes : int;
  gc_freed_bytes : int;
}

(** LRU-by-mtime sweep over every kind: keep the most recently touched
    entries whose cumulative size fits [max_bytes], delete the rest.
    In-flight temp files ([.wr*.tmp], not yet published) are left alone —
    racing writers keep their atomic-publish contract. *)
let gc (t : t) ~(max_bytes : int) : gc_stats =
  if max_bytes < 0 then invalid_arg "Store.gc: max_bytes must be >= 0";
  let entries = ref [] in
  let scan_dir dir f =
    if Sys.file_exists dir && Sys.is_directory dir then
      Array.iter f (Sys.readdir dir)
  in
  scan_dir t.root (fun kind ->
      let kdir = Filename.concat t.root kind in
      scan_dir kdir (fun sub ->
          let sdir = Filename.concat kdir sub in
          scan_dir sdir (fun file ->
              if not (String.starts_with ~prefix:".wr" file) then
                let p = Filename.concat sdir file in
                match Unix.stat p with
                | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
                    entries := (p, st_mtime, st_size) :: !entries
                | _ -> ()
                | exception Unix.Unix_error _ -> ())));
  let newest_first =
    List.sort (fun (_, m1, _) (_, m2, _) -> compare (m2 : float) m1) !entries
  in
  let kept_bytes = ref 0 and deleted = ref 0 and freed = ref 0 in
  List.iter
    (fun (p, _, size) ->
      if !kept_bytes + size <= max_bytes then kept_bytes := !kept_bytes + size
      else begin
        (try Sys.remove p with Sys_error _ -> ());
        incr deleted;
        freed := !freed + size
      end)
    newest_first;
  {
    gc_scanned = List.length newest_first;
    gc_deleted = !deleted;
    gc_kept_bytes = !kept_bytes;
    gc_freed_bytes = !freed;
  }

(** Number of entries of [kind] on disk (tests and the bench report). *)
let entry_count (t : t) ~(kind : string) : int =
  let dir = Filename.concat t.root kind in
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun n sub ->
        let d = Filename.concat dir sub in
        if Sys.is_directory d then n + Array.length (Sys.readdir d) else n)
      0 (Sys.readdir dir)
