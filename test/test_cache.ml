(* The content-addressed persistent store: Exo_cache.Store and its
   consumers (Registry table hydration, Family.generate_cached, the tuner
   ranking).

   The load-bearing contracts pinned here:

   1. Robustness — a zero-length, truncated or bit-flipped entry reads as
      a miss (counted corrupt, unlinked) and is recomputed, never a crash
      or a wrong value; a store full of corrupted kernel artifacts still
      rebuilds a complete table, and a decodable summary that no longer
      proves is dropped and rebuilt cold, never served.

   2. First-writer-wins — concurrent writers (domains of pool widths
      1/2/4, and a second process) converge on one published value; a
      late [put] against an existing entry reports [false].

   3. Invalidation by keying — the kit digest is stable across calls and
      moves whenever the kit (schedule steps, instruction procs) moves,
      so stale artifacts are never served, just stranded.

   4. Hydration fidelity — a table rebuilt from disk is bit-identical to
      the freshly compiled one: the same tier on every entry of every kit,
      and the same C tile from every executor (qcheck, all 6 kits). *)

module Store = Exo_cache.Store
module R = Exo_blis.Registry
module F = Exo_ukr_gen.Family
module K = Exo_ukr_gen.Kits

let temp_dir () =
  let f = Filename.temp_file "exo-cache-test" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_temp_store f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Store.of_dir dir))

(* ambient-store scope for the consumer-facing tests; always restored so
   later cases (and the default no-cache behaviour) are unaffected *)
let with_ambient f =
  let dir = temp_dir () in
  Store.set_ambient (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Store.set_ambient None;
      rm_rf dir)
    (fun () -> f dir)

(* --- the store itself ---------------------------------------------------- *)

let test_roundtrip () =
  with_temp_store @@ fun st ->
  Store.reset_counts ();
  let key = Store.key [ "abi-v1"; "roundtrip" ] in
  Alcotest.(check (option (list int)))
    "missing entry" None
    (Store.get st ~kind:"t" ~key);
  Alcotest.(check bool) "first put wins" true (Store.put st ~kind:"t" ~key [ 1; 2; 3 ]);
  Alcotest.(check (option (list int)))
    "roundtrip" (Some [ 1; 2; 3 ])
    (Store.get st ~kind:"t" ~key);
  Alcotest.(check bool)
    "late put loses" false
    (Store.put st ~kind:"t" ~key [ 9 ]);
  Alcotest.(check (option (list int)))
    "first writer's value survives" (Some [ 1; 2; 3 ])
    (Store.get st ~kind:"t" ~key);
  let hits, misses = Store.hit_miss_counts () in
  let writes, corrupt = Store.write_counts () in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "writes" 1 writes;
  Alcotest.(check int) "corrupt" 0 corrupt;
  Alcotest.(check int) "one entry of the kind" 1 (Store.entry_count st ~kind:"t")

let corrupt_file path mode =
  match mode with
  | `Zero ->
      let oc = open_out path in
      close_out oc
  | `Truncate ->
      let n = (Unix.stat path).Unix.st_size in
      Unix.truncate path (max 1 (n / 2))
  | `Flip ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      close_in ic;
      let i = n - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc

let test_corruption_reads_as_miss () =
  with_temp_store @@ fun st ->
  List.iter
    (fun (name, mode) ->
      Store.reset_counts ();
      let key = Store.key [ "abi-v1"; "corrupt"; name ] in
      Alcotest.(check bool)
        (name ^ ": put") true
        (Store.put st ~kind:"c" ~key (name, [| 1.5; 2.5 |]));
      corrupt_file (Store.path st ~kind:"c" ~key) mode;
      Alcotest.(check (option (pair string (array (float 0.0)))))
        (name ^ ": corrupt entry reads as a miss")
        None
        (Store.get st ~kind:"c" ~key);
      Alcotest.(check bool)
        (name ^ ": bad entry dropped from disk")
        false
        (Sys.file_exists (Store.path st ~kind:"c" ~key));
      let _, corrupt = Store.write_counts () in
      Alcotest.(check int) (name ^ ": counted corrupt") 1 corrupt;
      (* the recompute path republishes cleanly *)
      Alcotest.(check (pair string (array (float 0.0))))
        (name ^ ": find_or_add recomputes")
        (name, [| 1.5; 2.5 |])
        (Store.find_or_add st ~kind:"c" ~key (fun () -> (name, [| 1.5; 2.5 |])));
      Alcotest.(check (option (pair string (array (float 0.0)))))
        (name ^ ": republished")
        (Some (name, [| 1.5; 2.5 |]))
        (Store.get st ~kind:"c" ~key))
    [ ("zero-length", `Zero); ("truncated", `Truncate); ("bit-flipped", `Flip) ]

let test_concurrent_domains_first_writer_wins () =
  with_temp_store @@ fun st ->
  List.iter
    (fun jobs ->
      let key = Store.key [ "abi-v1"; "race"; string_of_int jobs ] in
      let pool = Exo_par.Pool.create ~jobs () in
      (* every worker proposes its own value; all must come back with the
         single published one *)
      let got =
        Exo_par.Pool.map pool
          (fun i -> Store.find_or_add st ~kind:"r" ~key (fun () -> i))
          [ 10; 20; 30; 40; 50; 60; 70; 80 ]
      in
      let winner = Option.get (Store.get st ~kind:"r" ~key) in
      Alcotest.(check bool)
        (Fmt.str "width %d: winner is one of the proposals" jobs)
        true
        (List.mem winner [ 10; 20; 30; 40; 50; 60; 70; 80 ]);
      List.iter
        (fun v ->
          Alcotest.(check int)
            (Fmt.str "width %d: every domain converged" jobs)
            winner v)
        got)
    [ 1; 2; 4 ]

let test_two_processes_first_writer_wins () =
  with_temp_store @@ fun st ->
  let key = Store.key [ "abi-v1"; "process-race" ] in
  (match Unix.fork () with
  | 0 ->
      (* the child is the first writer *)
      ignore (Store.put st ~kind:"p" ~key "child");
      Unix._exit 0
  | pid -> ignore (Unix.waitpid [] pid));
  Alcotest.(check bool)
    "second process's put loses" false
    (Store.put st ~kind:"p" ~key "parent");
  Alcotest.(check (option string))
    "both processes see the first writer's value" (Some "child")
    (Store.get st ~kind:"p" ~key)

let test_gc_lru_sweep () =
  with_temp_store @@ fun st ->
  (* five same-sized entries with staggered mtimes, entry i older than
     entry i+1 — the sweep must keep exactly the newest ones that fit *)
  let keyed = List.init 5 (fun i -> (i, Store.key [ "abi-v1"; "gc"; string_of_int i ])) in
  let now = Unix.time () in
  List.iter
    (fun (i, key) ->
      Alcotest.(check bool) "published" true
        (Store.put st ~kind:"g" ~key (String.make 64 'x'));
      let t = now -. float_of_int (3600 * (5 - i)) in
      Unix.utimes (Store.path st ~kind:"g" ~key) t t)
    keyed;
  let size = (Unix.stat (Store.path st ~kind:"g" ~key:(snd (List.hd keyed)))).Unix.st_size in
  (* an unpublished in-flight temp file must survive any sweep *)
  let tmp = Filename.concat (Filename.dirname (Store.path st ~kind:"g" ~key:(snd (List.hd keyed)))) ".wr0.tmp" in
  let oc = open_out tmp in
  output_string oc "in-flight";
  close_out oc;
  let s = Store.gc st ~max_bytes:(2 * size) in
  Alcotest.(check int) "scanned all entries (temp file excluded)" 5 s.Store.gc_scanned;
  Alcotest.(check int) "deleted the three oldest" 3 s.Store.gc_deleted;
  Alcotest.(check int) "kept two entries' bytes" (2 * size) s.Store.gc_kept_bytes;
  Alcotest.(check int) "freed three entries' bytes" (3 * size) s.Store.gc_freed_bytes;
  List.iter
    (fun (i, key) ->
      Alcotest.(check bool)
        (Fmt.str "entry %d %s" i (if i >= 3 then "survives" else "swept"))
        (i >= 3)
        (Store.get st ~kind:"g" ~key <> None))
    keyed;
  Alcotest.(check bool) "in-flight temp file untouched" true (Sys.file_exists tmp);
  (* a zero budget empties the store *)
  let s0 = Store.gc st ~max_bytes:0 in
  Alcotest.(check int) "zero budget sweeps the rest" 2 s0.Store.gc_deleted;
  Alcotest.(check int) "nothing kept" 0 s0.Store.gc_kept_bytes;
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Store.gc: max_bytes must be >= 0") (fun () ->
      ignore (Store.gc st ~max_bytes:(-1)))

let test_kit_digest_stable_and_sensitive () =
  let d1 = K.digest K.neon_f32 and d2 = K.digest K.neon_f32 in
  Alcotest.(check string) "digest is stable" d1 d2;
  List.iter
    (fun kit ->
      if kit.K.name <> K.neon_f32.K.name then
        Alcotest.(check bool)
          (Fmt.str "digest separates %s from neon-f32" kit.K.name)
          false
          (K.digest kit = d1))
    K.all;
  (* the invalidation mechanism: a kit whose declared schedule moved keys
     different artifact paths, so stale entries are stranded, not served *)
  let moved = { K.neon_f32 with K.sched_steps = K.neon_f32.K.sched_steps + 1 } in
  Alcotest.(check bool) "digest moves with the schedule" false (K.digest moved = d1);
  let entry_key kit =
    Store.key
      [ "regtable-v3"; Sys.ocaml_version; kit.K.name; K.digest kit;
        string_of_int kit.K.sched_steps; "8"; "12"; "simple" ]
  in
  Alcotest.(check bool)
    "table-artifact keys move with the digest" false
    (entry_key moved = entry_key K.neon_f32)

(* The digest is memoized per kit value (physical identity): a fresh copy
   of a kit is a new key that digests to the same content, a changed copy
   made after the original was memoized gets its own digest, and domains
   racing on one unmemoized value all read the same one. *)
let test_kit_digest_memo () =
  List.iter
    (fun k ->
      let d = K.digest k in
      Alcotest.(check string)
        (Fmt.str "%s: a fresh copy digests the same" k.K.name)
        d
        (K.digest { k with K.name = k.K.name });
      let moved = { k with K.sched_steps = k.K.sched_steps + 1 } in
      Alcotest.(check bool)
        (Fmt.str "%s: a changed copy digests differently" k.K.name)
        false
        (K.digest moved = d);
      Alcotest.(check string)
        (Fmt.str "%s: the original keeps its digest" k.K.name)
        d (K.digest k))
    K.all;
  let pool = Exo_par.Pool.create ~jobs:4 () in
  List.iter
    (fun k ->
      let fresh = { k with K.name = k.K.name } in
      let got = Exo_par.Pool.map pool K.digest [ fresh; fresh; fresh; fresh ] in
      List.iter
        (Alcotest.(check string)
           (Fmt.str "%s: four racing domains agree" k.K.name)
           (K.digest k))
        got)
    K.all

(* The keys a fixed kit and shape file artifacts under are byte-identical
   to the ones stores were primed with before the digest was memoized:
   the neon-f32 digest as it was computed then, in the key formulas. *)
let test_keys_unchanged () =
  let kit = K.neon_f32 and mr = 8 and nr = 12 in
  let digest = "bb17611a7cca5d070eb64268cc2d6776" in
  Alcotest.(check string) "neon-f32 digest" digest (K.digest kit);
  let parts abi =
    [ abi; Sys.ocaml_version; "neon-f32"; digest; "6"; "8"; "12"; "simple" ]
  in
  Alcotest.(check string) "Registry.entry_key"
    (Store.key (parts "regtable-v3"))
    (R.entry_key kit ~mr ~nr);
  Alcotest.(check string) "Family.artifact_key"
    (Store.key (parts "family-v1"))
    (F.artifact_key kit ~mr ~nr)

(* --- the consumers ------------------------------------------------------- *)

let test_family_generate_cached_hydrates () =
  with_ambient @@ fun _dir ->
  let st = Option.get (Store.ambient ()) in
  let k1 = F.generate_cached ~mr:6 ~nr:10 () in
  Alcotest.(check int) "one family artifact" 1 (Store.entry_count st ~kind:"family");
  Store.reset_counts ();
  let k2 = F.generate_cached ~mr:6 ~nr:10 () in
  let hits, misses = Store.hit_miss_counts () in
  Alcotest.(check int) "hydration hit" 1 hits;
  Alcotest.(check int) "no miss" 0 misses;
  Alcotest.(check bool) "same style" true (k1.F.style = k2.F.style);
  Alcotest.(check string) "identical printed kernel"
    (Exo_ir.Pp.proc_to_string k1.F.proc)
    (Exo_ir.Pp.proc_to_string k2.F.proc);
  (* the unmarshaled proc's symbol ids must not poison later generation:
     a fresh kernel after hydration still certifies *)
  let fresh = F.generate ~mr:5 ~nr:7 () in
  let r = Exo_check.Bounds.check_proc fresh.F.proc in
  Alcotest.(check bool) "fresh kernel after hydration certifies" true
    (r.Exo_check.Bounds.violations = [] && r.Exo_check.Bounds.unknowns = [])

(* per entry: the tier serving it, and whether that is native code or the
   proved summary's Bigarray executor *)
let native_flags (t : R.table) = Array.map (fun e -> e.R.e_tier = R.Native) t.R.t_entries

let all_served (t : R.table) =
  Array.for_all
    (fun e -> match e.R.e_tier with R.Bigarray | R.Native -> true)
    t.R.t_entries

let test_corrupted_kernel_artifacts_rebuild () =
  with_ambient @@ fun dir ->
  let t1 = R.exo_table ~mr:8 ~nr:12 () in
  (* wreck every kernel artifact on disk, then force a rebuild: the store
     must shrug (recompute + republish), not crash or serve garbage *)
  let kernel_dir = Filename.concat dir "kernel" in
  let rec wreck path =
    if Sys.is_directory path then
      Array.iter (fun f -> wreck (Filename.concat path f)) (Sys.readdir path)
    else corrupt_file path `Truncate
  in
  wreck kernel_dir;
  R.clear_memos_for_bench ();
  Store.reset_counts ();
  let t2 = R.exo_table ~mr:8 ~nr:12 () in
  let _, corrupt = Store.write_counts () in
  Alcotest.(check bool) "corruption detected" true (corrupt > 0);
  Alcotest.(check int) "rebuilt table complete" 96 (Array.length t2.R.t_entries);
  Alcotest.(check bool) "every entry Bigarray or Native" true (all_served t2);
  Alcotest.(check (array bool)) "same tiers as the pristine build"
    (native_flags t1) (native_flags t2)

(* --- hydration fidelity (qcheck, all kits) ------------------------------- *)

let exec (u : Exo_interp.Compile.ukr_ba) ~mr ~nr ~kc ~seed =
  let st = Random.State.make [| mr; nr; kc; seed |] in
  let mk n =
    let b = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      Bigarray.Array1.set b i (float_of_int (Random.State.int st 7 - 3))
    done;
    b
  in
  let ac = mk (kc * mr) and bc = mk (kc * nr) in
  let c = mk (mr * nr) in
  u ~kc ~ac ~ao:0 ~bc ~bo:0 ~c ~co:0;
  Array.init (mr * nr) (Bigarray.Array1.get c)

let test_hydrated_tables_bit_identical () =
  with_ambient @@ fun _dir ->
  (* cold-build every kit's table (publishing artifacts), wipe the
     in-memory memos, rebuild from disk, and compare *)
  let cold = List.map (fun kit -> (kit, R.exo_table ~kit ~mr:8 ~nr:12 ())) K.all in
  R.clear_memos_for_bench ();
  Store.reset_counts ();
  let warm = List.map (fun kit -> (kit, R.exo_table ~kit ~mr:8 ~nr:12 ())) K.all in
  let hits, _ = Store.hit_miss_counts () in
  Alcotest.(check bool) "rebuild hydrated from disk" true (hits > 0);
  List.iter2
    (fun (kit, (tc : R.table)) (_, (tw : R.table)) ->
      Alcotest.(check (array bool))
        (kit.K.name ^ ": tiers survive hydration")
        (native_flags tc) (native_flags tw);
      Alcotest.(check bool)
        (kit.K.name ^ ": every hydrated entry Bigarray or Native")
        true (all_served tw))
    cold warm;
  (* executable fidelity on every kit: each hydrated executor (the
     monomorphized nest for f32, the tape for f16 and i32) computes the
     same C tile as the one built from scratch *)
  let pairs = List.map2 (fun (_, tc) (_, tw) -> (tc, tw)) cold warm in
  let q =
    QCheck2.Test.make ~count:60
      ~name:"hydrated executor = fresh executor on random tiles"
      QCheck2.Gen.(
        pair
          (pair (int_bound 20) (int_range 1 8))
          (pair (int_range 1 12) (pair (int_range 1 24) (int_bound 1000))))
      (fun ((ki, mr'), (nr', (kc, seed))) ->
        let tc, tw = List.nth pairs (ki mod List.length pairs) in
        exec (R.table_entry tc ~mr:mr' ~nr:nr') ~mr:mr' ~nr:nr' ~kc ~seed
        = exec (R.table_entry tw ~mr:mr' ~nr:nr') ~mr:mr' ~nr:nr' ~kc ~seed)
  in
  QCheck2.Test.check_exn q

(* --- the hydration gate ------------------------------------------------- *)

module S = Exo_interp.Compile.Summary

let map_ops f (s : S.t) =
  { s with S.segs = List.map (fun g -> { g with S.ops = List.map f g.S.ops }) s.S.segs }

(* The first C store moved one element past the tile. *)
let store_past_tile (s : S.t) =
  let moved = ref false in
  map_ops
    (fun (o : S.op) ->
      if !moved || o.S.dst.S.sp <> S.C then o
      else begin
        moved := true;
        { o with S.dst = { o.S.dst with S.base = s.S.mr * s.S.nr } }
      end)
    s

(* Every A read moved one panel row on, past the panel's end. *)
let read_past_panel (s : S.t) =
  let rec rhs = function
    | S.Read ({ S.sp = S.A; _ } as o) -> S.Read { o with S.base = o.S.base + s.S.mr }
    | S.Bin (b, x, y) -> S.Bin (b, rhs x, rhs y)
    | S.Neg x -> S.Neg (rhs x)
    | r -> r
  in
  map_ops (fun (o : S.op) -> { o with S.rhs = rhs o.S.rhs }) s

let proves s = Exo_check.Tierlint.(proved (check s))

(* A stored summary that decodes but no longer proves is never served: the
   warm build drops it, rebuilds that entry cold, serves the cold build's
   executor and leaves a proving summary in the store. On f32 the executor
   is selected by shape alone, so only the store shows whether the planted
   summary was re-proved. *)
let test_unprovable_summary_rebuilds () =
  with_ambient @@ fun _dir ->
  let st = Option.get (Store.ambient ()) in
  let kit = K.neon_f32 and mr = 2 and nr = 3 in
  R.clear_memos_for_bench ();
  let cold = R.exo_table ~kit ~mr ~nr () in
  let plants = [ ((2, 3), store_past_tile); ((1, 3), read_past_panel) ] in
  let originals =
    List.map
      (fun (ij, _) ->
        (ij, Option.get (R.stored_summary kit ~mr:(fst ij) ~nr:(snd ij))))
      plants
  in
  List.iter2
    (fun ((i, j), tamper) (_, s) ->
      let bad = tamper s in
      Alcotest.(check bool) (Fmt.str "%dx%d: stored summary proves" i j) true (proves s);
      Alcotest.(check bool) (Fmt.str "%dx%d: planted summary does not" i j) false
        (proves bad);
      let key = R.entry_key kit ~mr:i ~nr:j in
      Store.remove st ~kind:"kernel" ~key;
      Alcotest.(check bool) (Fmt.str "%dx%d: planted" i j) true
        (Store.put st ~kind:"kernel" ~key bad))
    plants originals;
  R.clear_memos_for_bench ();
  Store.reset_counts ();
  let warm = R.exo_table ~kit ~mr ~nr () in
  List.iter
    (fun ((i, j), s) ->
      let stored = Option.get (R.stored_summary kit ~mr:i ~nr:j) in
      Alcotest.(check bool) (Fmt.str "%dx%d: store holds a proving summary" i j)
        true (proves stored);
      Alcotest.(check bool) (Fmt.str "%dx%d: the cold build's summary" i j) true
        (stored = s))
    originals;
  for i = 1 to mr do
    for j = 1 to nr do
      List.iter
        (fun (kc, seed) ->
          Alcotest.(check (array (float 0.0)))
            (Fmt.str "%dx%d kc=%d: warm = cold" i j kc)
            (exec (R.table_entry cold ~mr:i ~nr:j) ~mr:i ~nr:j ~kc ~seed)
            (exec (R.table_entry warm ~mr:i ~nr:j) ~mr:i ~nr:j ~kc ~seed))
        [ (0, 1); (1, 2); (7, 3); (16, 4) ]
    done
  done

let () =
  Alcotest.run "cache"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip, counters, first-writer-wins" `Quick
            test_roundtrip;
          Alcotest.test_case "corrupt entries read as misses and recompute"
            `Quick test_corruption_reads_as_miss;
          (* before any test that spawns a domain: OCaml 5 forbids fork
             once other domains have run *)
          Alcotest.test_case "two processes converge" `Quick
            test_two_processes_first_writer_wins;
          Alcotest.test_case "concurrent domains converge (widths 1/2/4)"
            `Quick test_concurrent_domains_first_writer_wins;
          Alcotest.test_case "gc: LRU sweep within a byte budget" `Quick
            test_gc_lru_sweep;
        ] );
      ( "keying",
        [
          Alcotest.test_case "kit digest stable and schedule-sensitive" `Quick
            test_kit_digest_stable_and_sensitive;
          Alcotest.test_case "kit digest memoized per kit value" `Quick
            test_kit_digest_memo;
          Alcotest.test_case "entry and artifact keys unchanged" `Quick
            test_keys_unchanged;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "Family.generate_cached hydrates" `Quick
            test_family_generate_cached_hydrates;
          Alcotest.test_case "corrupted kernel artifacts rebuild cleanly"
            `Quick test_corrupted_kernel_artifacts_rebuild;
          Alcotest.test_case "hydrated tables bit-identical (all kits)" `Slow
            test_hydrated_tables_bit_identical;
          Alcotest.test_case "unprovable stored summary rebuilds cold" `Quick
            test_unprovable_summary_rebuilds;
        ] );
    ]
