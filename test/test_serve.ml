(* The ukrgen-serve daemon: line protocol, request counters, and a full
   socket round trip with graceful shutdown.

   handle_request is exercised directly for the protocol contract (it
   never raises — malformed input becomes an ERR response and an error
   count, not a dead worker), then a real daemon is started on a temp
   socket and driven through the Client to pin the wire format, the warm
   second-request cache hit, and SHUTDOWN draining. *)

module Serve = Exo_serve.Serve
module Store = Exo_cache.Store
module Pool = Exo_par.Pool

let req line = Serve.handle_request (Atomic.make false) line

let status line =
  match req line with [] -> Alcotest.fail "empty response" | s :: _ -> s

let test_ping () =
  Alcotest.(check (list string)) "pong" [ "OK pong" ] (req "PING");
  Alcotest.(check (list string)) "case-insensitive verb" [ "OK pong" ] (req "ping")

let test_protocol_errors () =
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Fmt.str "%S answers ERR" line)
        true
        (String.length (status line) >= 3
        && String.sub (status line) 0 3 = "ERR"))
    [
      "";
      "   ";
      "BOGUS";
      "GENERATE";
      "GENERATE neon-f32";
      "GENERATE no-such-kit 8x12";
      "GENERATE neon-f32 8by12";
      "GENERATE neon-f32 0x12";
      "TUNE 1 2";
      "TUNE a b c";
      "RUN 99999 4 4";
    ]

let test_generate () =
  match req "GENERATE neon-f32 8x12" with
  | s :: payload ->
      Alcotest.(check string) "status" "OK generated neon-f32 8x12" s;
      List.iter
        (fun want ->
          Alcotest.(check bool) (want ^ " reported") true (List.mem want payload))
        [ "kit neon-f32"; "shape 8x12"; "style packed"; "fast true"; "proved true" ]
  | [] -> Alcotest.fail "empty response"

let test_lint_and_tune () =
  (match req "LINT neon-f32 4x4" with
  | s :: payload ->
      Alcotest.(check string) "lint status" "OK lint neon-f32 4x4" s;
      Alcotest.(check bool) "proved" true (List.mem "proved true" payload)
  | [] -> Alcotest.fail "empty response");
  match req "TUNE 96 96 96" with
  | s :: payload ->
      Alcotest.(check bool) "tune status" true
        (String.length s >= 8 && String.sub s 0 8 = "OK tuned");
      Alcotest.(check bool) "a ranking line per shape" true (List.length payload > 0)
  | [] -> Alcotest.fail "empty response"

let test_shutdown_sets_stop () =
  let stop = Atomic.make false in
  Alcotest.(check (list string))
    "bye" [ "OK bye" ]
    (Serve.handle_request stop "SHUTDOWN");
  Alcotest.(check bool) "stop flag raised" true (Atomic.get stop)

let test_request_counters () =
  Serve.reset_request_counts ();
  ignore (req "PING");
  ignore (req "PING");
  ignore (req "NOPE");
  let total, errors, verbs = Serve.request_counts () in
  Alcotest.(check int) "total" 3 total;
  Alcotest.(check int) "errors" 1 errors;
  Alcotest.(check (option int)) "ping count" (Some 2) (List.assoc_opt "PING" verbs)

(* --- latency histograms, STATS lines, METRICS exposition ------------------ *)

let payload line =
  match req line with [] -> Alcotest.fail "empty response" | _ :: p -> p

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let find_line ~prefix lines =
  match List.find_opt (starts_with ~prefix) lines with
  | Some l -> l
  | None -> Alcotest.fail (Fmt.str "no line starting with %S" prefix)

let test_stats_latency_lines () =
  Serve.reset_request_counts ();
  ignore (req "PING");
  ignore (req "PING");
  ignore (req "GENERATE");
  (* malformed but a known verb: the per-verb error counter must move *)
  let p = payload "STATS" in
  Alcotest.(check string) "per-verb request count" "requests_ping 2"
    (find_line ~prefix:"requests_ping" p);
  Alcotest.(check string) "per-verb error count" "errors_generate 1"
    (find_line ~prefix:"errors_generate" p);
  Alcotest.(check string) "a healthy verb reports zero errors" "errors_ping 0"
    (find_line ~prefix:"errors_ping" p);
  (* latency_ping_us count 2 p50 F p95 F p99 F — quantiles in microseconds,
     nonnegative, and monotone p50 <= p95 <= p99 *)
  let l = find_line ~prefix:"latency_ping_us " p in
  (match String.split_on_char ' ' l with
  | [ _; "count"; "2"; "p50"; a; "p95"; b; "p99"; c ] ->
      let a = float_of_string a
      and b = float_of_string b
      and c = float_of_string c in
      Alcotest.(check bool) "quantiles nonnegative" true (a >= 0.0);
      Alcotest.(check bool) "quantiles monotone" true (a <= b && b <= c)
  | _ -> Alcotest.fail (Fmt.str "unexpected latency line %S" l))

let test_metrics_exposition () =
  Serve.reset_request_counts ();
  ignore (req "PING");
  ignore (req "PING");
  ignore (req "GENERATE");
  let p = payload "METRICS" in
  let has affix = List.exists (starts_with ~prefix:affix) p in
  Alcotest.(check bool) "histogram TYPE line" true
    (List.mem "# TYPE ukrgen_request_latency_us histogram" p);
  Alcotest.(check bool) "a ping bucket series" true
    (has "ukrgen_request_latency_us_bucket{verb=\"ping\",le=\"");
  Alcotest.(check bool) "+Inf closes the ping series" true
    (List.mem "ukrgen_request_latency_us_bucket{verb=\"ping\",le=\"+Inf\"} 2" p);
  Alcotest.(check bool) "count matches observations" true
    (List.mem "ukrgen_request_latency_us_count{verb=\"ping\"} 2" p);
  Alcotest.(check bool) "per-verb error counter" true
    (List.mem "ukrgen_request_errors{verb=\"generate\"} 1" p);
  Alcotest.(check bool) "cache counters exposed" true
    (has "ukrgen_cache_hits ");
  (* cumulative buckets never decrease along the le bounds *)
  let cums =
    List.filter_map
      (fun l ->
        if starts_with ~prefix:"ukrgen_request_latency_us_bucket{verb=\"ping\"" l
        then
          match String.rindex_opt l ' ' with
          | Some i ->
              Some
                (int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      p
  in
  Alcotest.(check bool) "cumulative series is monotone" true
    (fst
       (List.fold_left
          (fun (ok, prev) n -> (ok && n >= prev, n))
          (true, 0) cums))

(* --- RUN: checksums, draw order, memory ------------------------------------ *)

module Matrix = Exo_blis.Matrix

(* The inputs of problem [i] of [RUN m n k]: one state per problem, B drawn
   before A. *)
let run_inputs ~m ~n ~k i =
  let st = Random.State.make [| 0x5e12e; m; n; k; i |] in
  let b = Matrix.random_int k n st in
  let a = Matrix.random_int m k st in
  (a, b)

(* Σᵢ Σₚ colsum(Aᵢ)ₚ · rowsumₚ(Bᵢ): the sum of every C entry of every
   problem, without forming any product (exact on these integer inputs) *)
let expected_checksum ~m ~n ~k count =
  let acc = ref 0.0 in
  for i = 0 to count - 1 do
    let a, b = run_inputs ~m ~n ~k i in
    for p = 0 to k - 1 do
      let col = ref 0.0 and row = ref 0.0 in
      for r = 0 to m - 1 do
        col := !col +. Matrix.get a r p
      done;
      for j = 0 to n - 1 do
        row := !row +. Matrix.get b p j
      done;
      acc := !acc +. (!col *. !row)
    done
  done;
  !acc

let run_field name line =
  let prefix = name ^ " " in
  let l = find_line ~prefix (payload line) in
  float_of_string
    (String.sub l (String.length prefix) (String.length l - String.length prefix))

let check_run ~m ~n ~k count literal =
  let line = Fmt.str "RUN %d %d %d %d" m n k count in
  let got = run_field "checksum" line in
  Alcotest.(check (float 0.0))
    (line ^ " checksum is the colsum·rowsum identity")
    (expected_checksum ~m ~n ~k count)
    got;
  Alcotest.(check (float 0.0)) (line ^ " checksum pinned") literal got

let test_run_checksums () =
  check_run ~m:49 ~n:64 ~k:40 1 713.0;
  check_run ~m:33 ~n:20 ~k:17 3 53.0;
  (* a larger request leaves its data in the buffers' tails; the smaller
     one after it must not read any of it *)
  check_run ~m:256 ~n:256 ~k:256 4 60179.0;
  check_run ~m:33 ~n:20 ~k:17 3 53.0;
  Alcotest.(check (float 0.0)) "no interpreter fallback" 0.0
    (run_field "fallback_calls" "RUN 33 20 17 3")

let test_run_open_loop_shapes () =
  (* the RUN shapes of perfbench's serve_open mix, pinned: the inputs the
     daemon synthesizes for them do not change *)
  List.iter
    (fun (m, n, k, literal) -> check_run ~m ~n ~k 1 literal)
    [
      (784, 128, 512, -53450.0);
      (196, 256, 1024, -18718.0);
      (49, 512, 2048, -1541.0);
      (784, 512, 128, 3171.0);
      (196, 1024, 256, 32191.0);
      (49, 2048, 512, 47465.0);
    ];
  (* the same-work ResNet50 layers with m = 3136 exceed the dimension cap,
     so the mix leaves them out and the daemon refuses them; their inputs
     are pinned through the identity alone *)
  List.iter
    (fun (m, n, k, literal) ->
      Alcotest.(check (float 0.0))
        (Fmt.str "%dx%dx%d inputs pinned" m n k)
        literal
        (expected_checksum ~m ~n ~k 1);
      Alcotest.(check bool)
        (Fmt.str "RUN %d %d %d refused" m n k)
        true
        (starts_with ~prefix:"ERR" (status (Fmt.str "RUN %d %d %d" m n k))))
    [ (3136, 64, 256, -14528.0); (3136, 256, 64, 2446.0) ]

(* Words this domain allocated while [line] is served: minor plus major,
   less the words a minor collection promoted, which [major_words] counts
   again. The minor part is [Gc.minor_words], which reads the allocation
   pointer; the minor figure of [Gc.counters] lags it until the next
   minor collection. So the count does not depend on whether a collection
   lands inside the window ([collect] forces one at its end). A collection
   first leaves nothing earlier to fold in. *)
let run_words ?(collect = false) line =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  ignore (req line);
  if collect then Gc.minor ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

let test_run_allocation_free () =
  let line = "RUN 196 256 1024" in
  ignore (req line);
  let words = run_words line in
  Alcotest.(check bool)
    (Fmt.str "a warm %s allocates under 10k words (got %.0f)" line words)
    true (words < 10_000.0)

(* The same RUN at width 1: the pool then runs every task on the calling
   domain, so the counters see all a RUN allocates, the words the pool's
   other domain would allocate at the default width included — and read
   the same whether or not a minor collection ends the window. Measured:
   2310 words on the native tier, both ways. The Bigarray tier
   (UKRGEN_NATIVE=0) allocates each call's accumulator and reads about
   12k words, over the bound. *)
let test_run_allocation_width_1 () =
  let line = "RUN 196 256 1024" in
  let before = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs before)
    (fun () ->
      Pool.set_default_jobs 1;
      ignore (req line);
      let words = run_words line in
      let collected = run_words ~collect:true line in
      Alcotest.(check (float 64.0))
        "the same count with a collection at the end" words collected;
      Alcotest.(check bool)
        (Fmt.str "a warm %s at width 1 allocates under 4k words (got %.0f)"
           line words)
        true (words < 4096.0))

let test_run_memory_flat_in_count () =
  ignore (req "RUN 128 128 128 16");
  let one = run_words "RUN 128 128 128 1" in
  let sixteen = run_words "RUN 128 128 128 16" in
  Alcotest.(check bool)
    (Fmt.str "16 problems allocate %.0f words, 1 problem %.0f" sixteen one)
    true
    (sixteen <= one +. 4096.0)

(* --- the JSONL access log -------------------------------------------------- *)

module Ledger = Exo_ledger.Ledger

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let with_access_log ?max_bytes f =
  let path = Filename.temp_file "exo-serve-access" ".jsonl" in
  Sys.remove path;
  Serve.set_access_log ?max_bytes (Some path);
  Fun.protect
    ~finally:(fun () ->
      Serve.set_access_log None;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".1" ])
  @@ fun () -> f path

let test_access_log_lines () =
  with_access_log @@ fun path ->
  Alcotest.(check (option string))
    "path queryable" (Some path)
    (Serve.access_log_path ());
  ignore (req "PING");
  ignore (req "NOPE");
  ignore (req "RUN 9 8 7");
  let lines = read_lines path in
  Alcotest.(check int) "one line per request" 3 (List.length lines);
  List.iter
    (fun l ->
      match Ledger.Json.parse l with
      | Error e -> Alcotest.fail (Fmt.str "unparseable access line %S: %s" l e)
      | Ok j ->
          Alcotest.(check bool) "ts present" true
            (Option.is_some Ledger.Json.(Option.bind (member "ts" j) num));
          Alcotest.(check bool) "us present" true
            (Option.is_some Ledger.Json.(Option.bind (member "us" j) num)))
    lines;
  let verb_ok l =
    Ledger.Json.(
      match parse l with
      | Ok j ->
          ( Option.bind (member "verb" j) str,
            Option.bind (member "ok" j) bool_ )
      | Error _ -> (None, None))
  in
  let has_field name l =
    Ledger.Json.(
      match parse l with
      | Ok j -> Option.is_some (Option.bind (member name j) num)
      | Error _ -> false)
  in
  (match lines with
  | [ a; b; c ] ->
      Alcotest.(check (pair (option string) (option bool)))
        "ping succeeds" (Some "PING", Some true) (verb_ok a);
      Alcotest.(check (pair (option string) (option bool)))
        "unknown verb logged as failed" (Some "NOPE", Some false) (verb_ok b);
      Alcotest.(check (pair (option string) (option bool)))
        "run succeeds" (Some "RUN", Some true) (verb_ok c);
      List.iter
        (fun name ->
          Alcotest.(check bool) ("RUN line carries " ^ name) true
            (has_field name c);
          Alcotest.(check bool) ("PING line has no " ^ name) false
            (has_field name a))
        [ "seconds"; "synth_seconds" ]
  | _ -> Alcotest.fail "expected exactly three lines")

let test_access_log_rotation () =
  with_access_log ~max_bytes:256 @@ fun path ->
  for _ = 1 to 40 do
    ignore (req "PING")
  done;
  Alcotest.(check bool) "live file present" true (Sys.file_exists path);
  Alcotest.(check bool) "rotated file present" true
    (Sys.file_exists (path ^ ".1"));
  (* rotation bounds each file near max_bytes (one line of slack) and
     every surviving line is whole — rename never tears a record *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Fmt.str "%s bounded" (Filename.basename p))
        true
        ((Unix.stat p).Unix.st_size <= 256 + 128);
      List.iter
        (fun l ->
          match Ledger.Json.parse l with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Fmt.str "torn line %S: %s" l e))
        (read_lines p))
    [ path; path ^ ".1" ]

(* --- the socket ---------------------------------------------------------- *)

let temp_dir () =
  let f = Filename.temp_file "exo-serve-test" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let test_socket_round_trip () =
  let dir = temp_dir () in
  Store.set_ambient (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Store.set_ambient None;
      rm_rf dir)
  @@ fun () ->
  let socket = Filename.temp_file "exo-serve-test" ".sock" in
  let t = Serve.start ~workers:2 ~socket () in
  Fun.protect ~finally:(fun () ->
      Serve.stop t;
      Serve.wait t)
  @@ fun () ->
  let s, _ = Serve.Client.request ~socket "PING" in
  Alcotest.(check string) "ping over the wire" "OK pong" s;
  (* identical requests: the first warms the in-memory memo (the daemon
     start already built the table, so the ambient store reports hits) *)
  let s1, p1 = Serve.Client.request ~socket "GENERATE neon-f32 8x12" in
  let s2, p2 = Serve.Client.request ~socket "GENERATE neon-f32 8x12" in
  Alcotest.(check string) "generate ok" "OK generated neon-f32 8x12" s1;
  Alcotest.(check string) "repeat identical status" s1 s2;
  Alcotest.(check (list string)) "repeat identical payload" p1 p2;
  (* a concurrent pair of clients (the daemon has two accept workers) *)
  let d1 = Domain.spawn (fun () -> Serve.Client.request ~socket "STATS") in
  let d2 = Domain.spawn (fun () -> Serve.Client.request ~socket "PING") in
  let st1, _ = Domain.join d1 and st2, _ = Domain.join d2 in
  Alcotest.(check bool) "concurrent stats ok" true (Serve.Client.ok st1);
  Alcotest.(check string) "concurrent ping ok" "OK pong" st2;
  (* graceful shutdown over the wire: the daemon answers, then drains *)
  let s, _ = Serve.Client.request ~socket "SHUTDOWN" in
  Alcotest.(check string) "shutdown acknowledged" "OK bye" s;
  Serve.wait t;
  Alcotest.(check bool) "socket unlinked after drain" false (Sys.file_exists socket)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "malformed requests answer ERR" `Quick
            test_protocol_errors;
          Alcotest.test_case "generate payload" `Quick test_generate;
          Alcotest.test_case "lint and tune payloads" `Quick test_lint_and_tune;
          Alcotest.test_case "shutdown raises the stop flag" `Quick
            test_shutdown_sets_stop;
          Alcotest.test_case "request counters" `Quick test_request_counters;
        ] );
      ( "run",
        [
          Alcotest.test_case "checksums and stale buffer tails" `Quick
            test_run_checksums;
          Alcotest.test_case "serve_open RUN shapes pinned" `Quick
            test_run_open_loop_shapes;
          Alcotest.test_case "a warm RUN allocates almost nothing" `Quick
            test_run_allocation_free;
          Alcotest.test_case "a warm RUN at width 1 allocates almost nothing"
            `Quick test_run_allocation_width_1;
          Alcotest.test_case "RUN memory does not grow with count" `Quick
            test_run_memory_flat_in_count;
        ] );
      ( "observability",
        [
          Alcotest.test_case "STATS latency and per-verb error lines" `Quick
            test_stats_latency_lines;
          Alcotest.test_case "METRICS Prometheus exposition" `Quick
            test_metrics_exposition;
          Alcotest.test_case "access log lines" `Quick test_access_log_lines;
          Alcotest.test_case "access log rotation" `Quick
            test_access_log_rotation;
        ] );
      ( "socket",
        [
          Alcotest.test_case "round trip, concurrency, graceful drain" `Quick
            test_socket_round_trip;
        ] );
    ]
