(* The run ledger: Exo_ledger.Ledger.

   The load-bearing contracts pinned here:

   1. Durability — an append is one O_APPEND write of one complete line
      under an advisory lock, so concurrent writers (domains here, CI
      jobs in the wild) interleave whole records, never bytes.

   2. Corruption tolerance — a line that does not parse (torn tail,
      hand-edit) is counted and skipped; every parseable record before
      and after it still loads. A load must never be fatal.

   3. Regression detection — the baseline window is the same-fingerprint
      history only, the noise bound is max(mad_k * MAD, min_rel * |med|,
      mad_k * within-run MAD), direction-aware, and Info metrics are
      never gated.

   Plus the JSON round-trip, the robust statistics, the rotating access
   sink, and the report document (attribution + ok verdict). *)

module L = Exo_ledger.Ledger

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let with_tmp f =
  let path = Filename.temp_file "exo-ledger-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"))
    (fun () -> f path)

(* --- JSON ------------------------------------------------------------------ *)

let test_json_parse () =
  let j =
    match
      L.Json.parse
        {|{"a": 1.5, "n": -3, "b": [true, null, "xA\t"], "o": {"d": 2}}|}
    with
    | Ok j -> j
    | Error e -> Alcotest.fail ("parse failed: " ^ e)
  in
  let num k = Option.bind (L.Json.member k j) L.Json.num in
  check_bool "float member" true (num "a" = Some 1.5);
  check_bool "negative int member" true (num "n" = Some (-3.0));
  (match Option.bind (L.Json.member "b" j) L.Json.list_ with
  | Some [ b; n; s ] ->
      check_bool "bool element" true (L.Json.bool_ b = Some true);
      check_bool "null element" true (n = L.Json.Null);
      check_bool "escapes decoded" true (L.Json.str s = Some "xA\t")
  | _ -> Alcotest.fail "array member lost its shape");
  check_bool "nested object" true
    (Option.bind (L.Json.member "o" j) (L.Json.member "d")
     |> Fun.flip Option.bind L.Json.num
    = Some 2.0);
  check_bool "trailing garbage rejected" true
    (match L.Json.parse "{} trailing" with Error _ -> true | Ok _ -> false);
  check_bool "truncated input rejected" true
    (match L.Json.parse {|{"a": [1, 2|} with Error _ -> true | Ok _ -> false)

let test_json_print_parse_roundtrip () =
  let j =
    L.Json.Obj
      [
        ("s", L.Json.Str "quote \" backslash \\ newline \n");
        ("i", L.Json.Num 42.0);
        ("f", L.Json.Num 1.25);
        ("a", L.Json.Arr [ L.Json.Bool false; L.Json.Null ]);
      ]
  in
  let s = L.Json.to_string j in
  check_bool "one line" true (not (String.contains s '\n'));
  check_bool "integral floats print bare" true (contains ~affix:"42" s);
  (match L.Json.parse s with
  | Ok j' -> check_bool "print/parse round-trip" true (j = j')
  | Error e -> Alcotest.fail ("reparse failed: " ^ e))

(* --- robust statistics ----------------------------------------------------- *)

let test_stats () =
  check_bool "median of empty is 0" true (L.Stats.median [] = 0.0);
  check_bool "median odd" true (L.Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check_bool "median even averages" true
    (L.Stats.median [ 4.0; 1.0; 2.0; 3.0 ] = 2.5);
  check_bool "mad of empty is 0" true (L.Stats.mad [] = 0.0);
  check_bool "mad of constants is 0" true (L.Stats.mad [ 5.0; 5.0; 5.0 ] = 0.0);
  (* samples 1..5: median 3, |x - 3| = [2;1;0;1;2], median of that = 1 *)
  check_bool "mad pins" true
    (L.Stats.mad [ 1.0; 2.0; 3.0; 4.0; 5.0 ] = 1.0)

let test_metric_of_samples () =
  let m = L.metric_of_samples ~unit_:"ms" L.Lower "t" [ 3.0; 1.0; 2.0 ] in
  check_bool "Lower keeps the min as headline" true (m.L.m_value = 1.0);
  check_bool "median recorded" true (m.L.m_median = 2.0);
  check_int "sample count" 3 m.L.m_n;
  let m = L.metric_of_samples L.Higher "g" [ 3.0; 1.0; 2.0 ] in
  check_bool "Higher keeps the max" true (m.L.m_value = 3.0);
  let m = L.metric_of_samples L.Info "i" [ 3.0; 1.0; 2.0 ] in
  check_bool "Info reports the median" true (m.L.m_value = 2.0)

(* --- records: round-trip, append, load ------------------------------------- *)

let record ?time ?(bench = "unit") v =
  L.record ?time ~flambda:false ~pool_jobs:2 ~bench
    [
      L.metric ~unit_:"x" L.Higher "m.gated" v;
      L.metric L.Info "m.info" 7.0;
    ]

let test_record_roundtrip () =
  let r = record ~time:1700000000.25 3.5 in
  check_int "schema version stamped" L.schema_version r.L.r_schema;
  match L.Json.parse (L.to_json r) with
  | Error e -> Alcotest.fail ("to_json does not reparse: " ^ e)
  | Ok j -> (
      match L.of_json j with
      | Some r' -> check_bool "to_json/of_json round-trip" true (r = r')
      | None -> Alcotest.fail "of_json rejected its own to_json")

let test_labels_roundtrip () =
  let r =
    L.record ~time:1700000000.5 ~flambda:false ~pool_jobs:2 ~bench:"unit"
      ~labels:[ ("host_cc", "/usr/bin/cc"); ("layers", "2:3136x64x64,4:\"q\"") ]
      [ L.metric L.Info "m.info" 7.0 ]
  in
  let line = L.to_json r in
  check_bool "labels serialised as an object" true
    (contains ~affix:{|"labels":{"host_cc":"/usr/bin/cc",|} line);
  match L.Json.parse line with
  | Error e -> Alcotest.fail ("to_json does not reparse: " ^ e)
  | Ok j -> (
      match L.of_json j with
      | Some r' -> check_bool "labels survive the round-trip" true (r = r')
      | None -> Alcotest.fail "of_json rejected a labelled record")

let test_no_labels_loads () =
  (* a line as written before records carried labels *)
  let line =
    {|{"schema":1,"time":1700000000,"bench":"perf","git_commit":"abc1234","host_cores":2,"pool_jobs":2,"ocaml_version":"5.1.1","flambda":false,"metrics":[{"name":"interp.speedup","value":9.5,"median":9.5,"mad":0,"n":1,"dir":"higher","unit":"x"}]}|}
  in
  match Result.to_option (L.Json.parse line) |> Fun.flip Option.bind L.of_json with
  | Some r ->
      check_bool "labels default to empty" true (r.L.r_labels = []);
      check_int "metrics intact" 1 (List.length r.L.r_metrics);
      check_bool "unlabelled record prints without a labels key" true
        (not (contains ~affix:"labels" (L.to_json r)))
  | None -> Alcotest.fail "a line without labels no longer loads"

let test_fingerprint_ignores_labels () =
  let with_labels labels =
    L.record ~flambda:false ~labels ~pool_jobs:2 ~bench:"unit" []
  in
  check_bool "labels are not part of the host fingerprint" true
    (L.fingerprint (with_labels [])
    = L.fingerprint (with_labels [ ("host_isa", "avx2,avx512") ]))

let test_append_load () =
  with_tmp @@ fun path ->
  L.append ~path (record 1.0);
  L.append ~path (record 2.0);
  let records, skipped = L.load ~path in
  check_int "two records" 2 (List.length records);
  check_int "nothing skipped" 0 skipped;
  check_bool "file order preserved" true
    (List.map
       (fun (r : L.record) -> (List.hd r.L.r_metrics).L.m_value)
       records
    = [ 1.0; 2.0 ])

let test_corrupt_lines_skipped () =
  with_tmp @@ fun path ->
  L.append ~path (record 1.0);
  (* a hand-edit gone wrong in the middle, then a good record, then a
     torn final line (no trailing newline = interrupted write) *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"schema\": not json\n";
  close_out oc;
  L.append ~path (record 2.0);
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"schema\":1,\"time\":12";
  (* torn: no '\n' *)
  close_out oc;
  let records, skipped = L.load ~path in
  check_int "both good records survive" 2 (List.length records);
  check_int "corrupt middle + torn tail counted" 2 skipped;
  (* load is non-destructive: a later append then load still works *)
  L.append ~path (record 3.0);
  let records, _ = L.load ~path in
  (* the torn tail now has a record glued after it on the same line; that
     line stays corrupt, the fresh append is intact on its own line *)
  check_bool "appends after corruption still load" true
    (List.exists
       (fun (r : L.record) -> (List.hd r.L.r_metrics).L.m_value = 3.0)
       records)

let test_concurrent_append () =
  with_tmp @@ fun path ->
  let writers = 4 and per_writer = 25 in
  let domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to per_writer do
              L.append ~path (record (float_of_int ((w * 1000) + i)))
            done))
  in
  List.iter Domain.join domains;
  let records, skipped = L.load ~path in
  check_int "every record intact, none torn" (writers * per_writer)
    (List.length records);
  check_int "no interleaved garbage" 0 skipped;
  (* every (writer, i) value present exactly once *)
  let values =
    List.map (fun (r : L.record) -> (List.hd r.L.r_metrics).L.m_value) records
  in
  let sorted = List.sort compare values in
  let expected =
    List.concat_map
      (fun w ->
        List.init per_writer (fun i -> float_of_int ((w * 1000) + i + 1)))
      [ 0; 1; 2; 3 ]
    |> List.sort compare
  in
  check_bool "no duplicated or lost records" true (sorted = expected)

(* --- regression detection --------------------------------------------------- *)

let test_regression_detection () =
  (* 5 stable baseline runs then a collapse: the Higher metric regresses *)
  let history = List.map record [ 100.0; 101.0; 99.0; 100.0; 100.5 ] in
  let good = L.check (history @ [ record 100.2 ]) in
  check_bool "steady run passes" true
    (List.for_all (fun (v : L.verdict) -> not v.L.v_regressed) good);
  let bad = L.check (history @ [ record 50.0 ]) in
  (match
     List.find_opt (fun (v : L.verdict) -> v.L.v_metric = "m.gated") bad
   with
  | Some v ->
      check_bool "collapse flagged" true v.L.v_regressed;
      check_int "baseline window size" 5 v.L.v_n_baseline
  | None -> Alcotest.fail "gated metric got no verdict");
  check_bool "Info metrics never gated" true
    (List.for_all (fun (v : L.verdict) -> v.L.v_metric <> "m.info") bad);
  (* direction-aware: a Higher metric going UP is fine *)
  let up = L.check (history @ [ record 200.0 ]) in
  check_bool "improvement is not a regression" true
    (List.for_all (fun (v : L.verdict) -> not v.L.v_regressed) up)

let test_fingerprint_filtering () =
  (* same bench, different pool width: not comparable history *)
  let other_host =
    L.record ~flambda:false ~pool_jobs:64 ~bench:"unit"
      [ L.metric ~unit_:"x" L.Higher "m.gated" 1000.0 ]
  in
  check_bool "fingerprints differ" true
    (L.fingerprint other_host <> L.fingerprint (record 100.0));
  let vs = L.check [ other_host; record 100.0 ] in
  (match
     List.find_opt (fun (v : L.verdict) -> v.L.v_metric = "m.gated") vs
   with
  | Some v ->
      check_int "cross-fingerprint history excluded" 0 v.L.v_n_baseline;
      check_bool "no comparable history = no regression" false v.L.v_regressed
  | None -> Alcotest.fail "gated metric got no verdict");
  (* distinct bench names never share a window either *)
  let vs =
    L.check [ record ~bench:"unit-smoke" 1000.0; record ~bench:"unit" 10.0 ]
  in
  check_bool "smoke and full benches do not mix" true
    (List.for_all (fun (v : L.verdict) -> v.L.v_n_baseline = 0) vs)

let test_noisy_run_not_flagged () =
  (* a current run that honestly reports huge within-run noise widens its
     own band: mad_k * current MAD dominates *)
  let noisy =
    L.record ~flambda:false ~pool_jobs:2 ~bench:"unit"
      [ L.metric_of_samples ~unit_:"x" L.Higher "m.gated"
          [ 80.0; 100.0; 120.0 ];
      ]
  in
  let history = List.map record [ 100.0; 100.0; 100.0 ] in
  let vs = L.check (history @ [ noisy ]) in
  check_bool "self-reported noise widens the band" true
    (List.for_all (fun (v : L.verdict) -> not v.L.v_regressed) vs)

(* --- the rotating sink ------------------------------------------------------ *)

let test_sink_rotation () =
  with_tmp @@ fun path ->
  Sys.remove path;
  let sink = L.Sink.create ~max_bytes:256 path in
  let line = String.make 63 'x' in
  for _ = 1 to 12 do
    L.Sink.write sink line
  done;
  check_bool "live file exists" true (Sys.file_exists path);
  check_bool "rotated file exists" true (Sys.file_exists (path ^ ".1"));
  let size p = (Unix.stat p).Unix.st_size in
  check_bool "live file under the cap + one line" true (size path <= 320);
  check_bool "rotation bounds total disk" true
    (size path + size (path ^ ".1") <= 2 * 320);
  (* every surviving line is whole *)
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let ls = lines [] in
  close_in ic;
  check_bool "no torn lines after rotation" true
    (List.for_all (fun l -> l = line) ls && ls <> [])

(* --- the report ------------------------------------------------------------- *)

let attr_record ~measured ~model =
  L.record ~flambda:false ~pool_jobs:2 ~bench:"perf-unit"
    [
      L.metric ~unit_:"GFLOPS" L.Higher "gemm.gflops" measured;
      L.metric ~unit_:"GFLOPS" L.Info "attr.measured_gflops" measured;
      L.metric ~unit_:"GFLOPS" L.Info "attr.model_gflops" model;
      L.metric L.Info "attr.dim" 1008.0;
      L.metric ~unit_:"MB" L.Info "attr.sim_dram_mb" 55.0;
      L.metric ~unit_:"s" L.Info "attr.phase.pack_a" 0.1;
      L.metric ~unit_:"s" L.Info "attr.phase.ukr" 0.8;
    ]

let test_report_document () =
  with_tmp @@ fun path ->
  L.append ~path (attr_record ~measured:3.0 ~model:36.0);
  L.append ~path (attr_record ~measured:3.1 ~model:36.0);
  let r = L.Report.build ~path (L.load ~path) in
  check_bool "clean report ok" true (L.Report.ok r);
  (match r.L.Report.rp_attribution with
  | Some a ->
      check_bool "efficiency = measured / model" true
        (Float.abs (a.L.Report.at_efficiency -. (3.1 /. 36.0)) < 1e-9);
      check_bool "dim picked up" true (a.L.Report.at_dim = Some 1008);
      check_bool "phases picked up" true
        (List.mem_assoc "ukr" a.L.Report.at_phases)
  | None -> Alcotest.fail "no attribution extracted");
  let js = L.Report.to_json r in
  check_bool "json carries measured" true
    (contains ~affix:"\"measured_gflops\"" js);
  check_bool "json carries model" true (contains ~affix:"\"model_gflops\"" js);
  check_bool "json carries dram" true (contains ~affix:"\"sim_dram_mb\"" js);
  check_bool "json says ok" true (contains ~affix:"\"ok\":true" js);
  let txt = L.Report.render r in
  check_bool "render shows the attribution table" true
    (contains ~affix:"attribution" txt);
  (* an efficiency collapse below the gate flips ok without any metric
     regression *)
  L.append ~path (attr_record ~measured:0.1 ~model:36.0);
  let r =
    L.Report.build ~min_rel:10.0 ~mad_k:1000.0 ~path (L.load ~path)
  in
  check_bool "efficiency below gate flips ok" false (L.Report.efficiency_ok r)

let () =
  Alcotest.run "ledger"
    [
      ( "json",
        [
          Alcotest.test_case "parse shapes and escapes" `Quick test_json_parse;
          Alcotest.test_case "print/parse round-trip" `Quick
            test_json_print_parse_roundtrip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median and mad pins" `Quick test_stats;
          Alcotest.test_case "metric_of_samples directions" `Quick
            test_metric_of_samples;
        ] );
      ( "durability",
        [
          Alcotest.test_case "record JSON round-trip" `Quick
            test_record_roundtrip;
          Alcotest.test_case "append then load in order" `Quick test_append_load;
          Alcotest.test_case "corrupt and torn lines skipped" `Quick
            test_corrupt_lines_skipped;
          Alcotest.test_case "4 concurrent writer domains" `Quick
            test_concurrent_append;
        ] );
      ( "labels",
        [
          Alcotest.test_case "labels round-trip" `Quick test_labels_roundtrip;
          Alcotest.test_case "line without labels loads" `Quick
            test_no_labels_loads;
          Alcotest.test_case "fingerprint ignores labels" `Quick
            test_fingerprint_ignores_labels;
        ] );
      ( "regression",
        [
          Alcotest.test_case "collapse flagged, improvement not" `Quick
            test_regression_detection;
          Alcotest.test_case "host fingerprint scopes the baseline" `Quick
            test_fingerprint_filtering;
          Alcotest.test_case "within-run noise widens the band" `Quick
            test_noisy_run_not_flagged;
        ] );
      ( "sink",
        [ Alcotest.test_case "size rotation" `Quick test_sink_rotation ] );
      ( "report",
        [
          Alcotest.test_case "attribution and ok verdict" `Quick
            test_report_document;
        ] );
    ]
