(* The domain-parallel sweep engine: Exo_par.Pool and Exo_par.Memo.

   The contract under test is the one every sweep in the repo leans on:
   for a pure function the pool's output is the input-ordered List.map
   result at EVERY width (so `--jobs N` can never change an outcome), a
   raising item re-raises deterministically, and the memo table hands every
   racing domain the same (physically equal) value. The helper domains are
   persistent, so the pool must also stay bounded and reusable: nested and
   concurrent regions run inline instead of deadlocking, and parked helpers
   never keep a process alive. *)

module Pool = Exo_par.Pool
module Memo = Exo_par.Memo

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Pool ---------------------------------------------------------------- *)

let test_map_matches_list_map () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 7 in
  let expect = List.map f xs in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      check_bool
        (Fmt.str "map at %d domains = List.map" jobs)
        true
        (Pool.map pool f xs = expect))
    [ 1; 2; 3; 8 ]

let test_map_array_matches () =
  let xs = Array.init 64 (fun i -> i) in
  let expect = Array.map succ xs in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      check_bool
        (Fmt.str "map_array at %d domains" jobs)
        true
        (Pool.map_array pool succ xs = expect))
    [ 1; 4 ]

let test_edge_inputs () =
  let pool = Pool.create ~jobs:4 () in
  check_bool "empty list" true (Pool.map pool succ [] = []);
  check_bool "single item" true (Pool.map pool succ [ 41 ] = [ 42 ]);
  check_int "width clamped to >= 1" 1 (Pool.jobs (Pool.create ~jobs:0 ()))

let test_iter_covers_every_index () =
  let n = 200 in
  let slots = Array.make n 0 in
  let pool = Pool.create ~jobs:3 () in
  (* index-addressed writes: each item owns its slot, so the unordered
     iter is still racefree and must touch every slot exactly once *)
  Pool.iter pool (fun i -> slots.(i) <- slots.(i) + 1) (List.init n (fun i -> i));
  check_bool "every slot written once" true (Array.for_all (( = ) 1) slots)

let test_exception_deterministic () =
  let f x = if x mod 7 = 3 then failwith (Fmt.str "boom %d" x) else x in
  let xs = List.init 50 (fun i -> i) in
  (* the lowest-indexed failing item (x = 3) wins at every width *)
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      match Pool.map pool f xs with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          Alcotest.(check string)
            (Fmt.str "lowest failing item at %d domains" jobs)
            "boom 3" msg)
    [ 1; 2; 8 ]

let test_default_jobs_override () =
  let before = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs before)
    (fun () ->
      Pool.set_default_jobs 3;
      check_int "set_default_jobs sticks" 3 (Pool.default_jobs ());
      check_int "global pool follows" 3 (Pool.jobs (Pool.global ()));
      check_int "create () follows" 3 (Pool.jobs (Pool.create ())))

(* --- persistent helpers ---------------------------------------------------- *)

(* Run [f] on a fresh domain and fail the test if it has not returned
   within [seconds]: a pool bug here shows up as a deadlock, which must
   fail the suite rather than hang it. *)
let within ~seconds name f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  match Atomic.get result with
  | None -> Alcotest.fail (Fmt.str "%s: no result after %.0f s" name seconds)
  | Some r -> (
      Domain.join d;
      match r with Ok v -> v | Error e -> raise e)

let test_nested_map_inline () =
  let pool = Pool.create ~jobs:2 () in
  let xs = List.init 8 (fun i -> i) in
  let expect = List.map (fun i -> List.map (fun j -> (10 * i) + j) xs) xs in
  (* every task opens its own region while the outer one owns the
     helpers: the inner maps must run inline and still be List.map *)
  let all_equal =
    within ~seconds:30.0 "nested maps" (fun () ->
        List.for_all Fun.id
          (List.init 200 (fun _ ->
               Pool.map pool
                 (fun i -> Pool.map pool (fun j -> (10 * i) + j) xs)
                 xs
               = expect)))
  in
  check_bool "nested map = nested List.map, 200 times" true all_equal

let test_concurrent_callers () =
  let pool = Pool.create ~jobs:2 () in
  let xs = List.init 500 (fun i -> i) in
  let f x = (x * 3) + 1 in
  let expect = List.map f xs in
  (* two domains hammer the shared helpers at once: whichever loses the
     race for a region runs it inline, both always see List.map *)
  let caller () = List.init 50 (fun _ -> Pool.map pool f xs = expect) in
  let mine, theirs =
    within ~seconds:30.0 "concurrent callers" (fun () ->
        let d = Domain.spawn caller in
        let mine = caller () in
        (mine, Domain.join d))
  in
  check_bool "first caller always got List.map" true (List.for_all Fun.id mine);
  check_bool "second caller always got List.map" true
    (List.for_all Fun.id theirs)

let test_helpers_bounded () =
  let before = Pool.helpers () in
  let pool = Pool.create ~jobs:3 () in
  for r = 1 to 200 do
    ignore (Pool.map pool (fun x -> x + r) (List.init 16 Fun.id))
  done;
  let after = Pool.helpers () in
  (* helpers are spawned up to the widest region ever asked for (width - 1
     here, or a wider earlier test) and then reused, never re-spawned *)
  check_bool
    (Fmt.str "helpers after 200 regions (%d) <= max(%d, width - 1)" after before)
    true
    (after <= max before 2);
  check_bool "a width-3 region has its two helpers" true (after >= 2)

let test_exception_releases_pool () =
  let pool = Pool.create ~jobs:2 () in
  let f x =
    if x = 9 then failwith "late";
    if x = 4 then begin
      (* the lower-indexed failure finishes last *)
      Unix.sleepf 0.02;
      failwith "early"
    end;
    x
  in
  for _ = 1 to 3 do
    match Pool.map pool f (List.init 16 Fun.id) with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure msg ->
        Alcotest.(check string) "lowest failing index wins" "early" msg
  done;
  (* a failed region hands the helpers back *)
  check_bool "next region runs" true
    (Pool.map pool succ [ 1; 2; 3 ] = [ 2; 3; 4 ])

(* the CLI's binary is a dune dep of this test: under [dune runtest] the
   cwd is the test directory, under [dune exec] the workspace root *)
let ukrgen_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/ukrgen.exe"; "_build/default/bin/ukrgen.exe" ]

let test_cli_exits_promptly () =
  match ukrgen_exe () with
  | None -> Alcotest.fail "ukrgen.exe not built"
  | Some exe ->
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process exe
          [| exe; "lint"; "--jobs"; "2" |]
          Unix.stdin null null
      in
      Unix.close null;
      (* parked helpers must not keep the process alive after main returns *)
      let deadline = Unix.gettimeofday () +. 60.0 in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.01;
            wait ()
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Alcotest.fail "ukrgen lint --jobs 2 still running after 60 s"
        | _, status -> status
      in
      check_bool "ukrgen lint --jobs 2 exits 0" true (wait () = Unix.WEXITED 0)

(* --- Memo ---------------------------------------------------------------- *)

let test_memo_caches () =
  let m : (int, int ref) Memo.t = Memo.create () in
  let computes = ref 0 in
  let get () =
    Memo.find_or_add m 17 (fun () ->
        incr computes;
        ref 99)
  in
  let a = get () in
  let b = get () in
  check_bool "repeated lookups physically equal" true (a == b);
  check_int "compute ran once" 1 !computes;
  check_bool "mem" true (Memo.mem m 17);
  check_bool "find_opt" true (Memo.find_opt m 17 = Some a);
  check_int "length" 1 (Memo.length m);
  Memo.clear m;
  check_bool "cleared" false (Memo.mem m 17)

let test_memo_first_writer_wins () =
  (* racing domains hammering one key must all get the same boxed value —
     physical equality is the observable of the first-writer-wins rule *)
  let m : (string, int ref) Memo.t = Memo.create () in
  let pool = Pool.create ~jobs:4 () in
  let results =
    Pool.map pool (fun i -> Memo.find_or_add m "key" (fun () -> ref i))
      (List.init 32 (fun i -> i))
  in
  let first = List.hd results in
  check_bool "every domain sees one value" true
    (List.for_all (fun r -> r == first) results);
  check_int "table holds one entry" 1 (Memo.length m)

let test_memo_distinct_keys_parallel () =
  let m : (int, int) Memo.t = Memo.create () in
  let pool = Pool.create ~jobs:4 () in
  let xs = List.init 100 (fun i -> i) in
  let r = Pool.map pool (fun i -> Memo.find_or_add m i (fun () -> i * i)) xs in
  check_bool "values correct" true (r = List.map (fun i -> i * i) xs);
  check_int "one entry per key" 100 (Memo.length m)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map = List.map at every width" `Quick
            test_map_matches_list_map;
          Alcotest.test_case "map_array" `Quick test_map_array_matches;
          Alcotest.test_case "edge inputs" `Quick test_edge_inputs;
          Alcotest.test_case "iter covers every index" `Quick
            test_iter_covers_every_index;
          Alcotest.test_case "deterministic exception" `Quick
            test_exception_deterministic;
          Alcotest.test_case "default width override" `Quick
            test_default_jobs_override;
        ] );
      ( "persistent helpers",
        [
          Alcotest.test_case "nested map runs inline" `Quick
            test_nested_map_inline;
          Alcotest.test_case "two calling domains both get List.map" `Quick
            test_concurrent_callers;
          Alcotest.test_case "helper count bounded over 200 regions" `Quick
            test_helpers_bounded;
          Alcotest.test_case "failed region: lowest index, pool released"
            `Quick test_exception_releases_pool;
          Alcotest.test_case "CLI using the pool exits promptly" `Quick
            test_cli_exits_promptly;
        ] );
      ( "memo",
        [
          Alcotest.test_case "caches and clears" `Quick test_memo_caches;
          Alcotest.test_case "first writer wins under race" `Quick
            test_memo_first_writer_wins;
          Alcotest.test_case "distinct keys in parallel" `Quick
            test_memo_distinct_keys_parallel;
        ] );
    ]
