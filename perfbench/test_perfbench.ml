(* The benchmark's own checks: order statistics, the RUN checksum
   identity the daemon workloads validate against, the seeded request
   stream and its class shares, and open-loop due-time accounting. *)

open Perfbench_lib
module Matrix = Exo_blis.Matrix
module Gemm = Exo_blis.Gemm
module Serve = Exo_serve.Serve

let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got
let check_bool = Alcotest.(check bool)

(* --- Stats -------------------------------------------------------------- *)

let test_percentiles () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  check_float "p0 is the minimum" 15. (Stats.percentile xs 0.);
  check_float "p100 is the maximum" 50. (Stats.percentile xs 100.);
  check_float "median of an odd count" 35. (Stats.median xs);
  check_float "p40 interpolates 20..35" 29. (Stats.percentile xs 40.);
  check_float "p90 interpolates 40..50" 46. (Stats.percentile xs 90.);
  check_float "input order is irrelevant" 35.
    (Stats.median [| 50.; 15.; 40.; 35.; 20. |]);
  check_float "median of an even count" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  check_float "one sample is every percentile" 7. (Stats.percentile [| 7. |] 90.);
  check_float "mean" 32. (Stats.mean xs);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.median [||]))

(* --- Output identities ---------------------------------------------------- *)

let test_checksum_identity () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun (m, n, k) ->
      let a = Matrix.random_int m k st and b = Matrix.random_int k n st in
      let c = Matrix.create m n in
      Gemm.naive_f32 a b c;
      check_float
        (Printf.sprintf "sum of C = colsum·rowsum at %dx%dx%d" m n k)
        (Array.fold_left ( +. ) 0.0 c.Matrix.data)
        (Mix.checksum a b))
    [ (1, 1, 1); (7, 5, 3); (49, 64, 147); (33, 17, 200) ]

let test_dot () =
  let st = Random.State.make [| 8 |] in
  let a = Matrix.random_int 9 13 st and b = Matrix.random_int 13 5 st in
  let c = Matrix.create 9 5 in
  Gemm.naive_f32 a b c;
  for i = 0 to 8 do
    for j = 0 to 4 do
      check_float "dot = naive_f32 entry" (Matrix.get c i j) (Mix.dot a b i j)
    done
  done

(* The daemon's RUN checksum is the identity over the inputs Mix.run_inputs
   rebuilds, so the benchmark can validate RUN without the daemon's data. *)
let test_run_checksum_matches_daemon () =
  Unix.putenv "UKRGEN_NATIVE" "0";
  let m, n, k = (49, 64, 40) in
  let resp = Serve.handle_request (Atomic.make false) (Printf.sprintf "RUN %d %d %d" m n k) in
  let got =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "checksum"; v ] -> float_of_string_opt v
        | _ -> None)
      resp
  in
  let a, b = Mix.run_inputs ~m ~n ~k 0 in
  Alcotest.(check (option (float 0.0))) "RUN checksum" (Some (Mix.checksum a b)) got

(* --- Workload inputs ------------------------------------------------------ *)

let test_resnet50_pass () =
  Alcotest.(check int) "53 convs" 53 (List.length Mix.resnet50_pass);
  Alcotest.(check (triple int int int)) "conv1 first" (12544, 64, 147)
    (List.hd Mix.resnet50_pass);
  check_bool "every RUN shape within the daemon's cap" true
    (Mix.run_shapes <> []
    && List.for_all
         (fun (m, n, k) -> max m (max n k) <= Mix.run_dim_cap)
         Mix.run_shapes)

let lines s n = Array.map (fun r -> r.Mix.line) (Mix.stream ~seed:s n)

let test_stream_seeded () =
  check_bool "same seed, same stream" true (lines 3 400 = lines 3 400);
  check_bool "different seeds, different streams" true (lines 3 400 <> lines 4 400);
  check_bool "a prefix is the shorter stream" true
    (Array.sub (lines 5 400) 0 100 = lines 5 100);
  let d s = Mix.schedule ~seed:s ~rate:30.0 300 in
  check_bool "same seed, same schedule" true (d 3 = d 3);
  check_bool "different seeds, different schedules" true (d 3 <> d 4);
  let s = d 9 in
  check_bool "schedule sorted within [0, n/rate)" true
    (Array.for_all (fun t -> t >= 0.0 && t < 10.0) s
    && Array.for_all Fun.id (Array.init 299 (fun i -> s.(i) <= s.(i + 1))))

let test_class_shares () =
  for seed = 0 to 9 do
    let reqs = Mix.stream ~seed 300 in
    let cs = Mix.classes reqs in
    check_bool
      (Printf.sprintf "seed %d: memo hits >= 60%%" seed)
      true
      (Mix.share cs Mix.Memo_hit >= 0.6);
    check_float (Printf.sprintf "seed %d: RUN is 25%%" seed) 0.25
      (Mix.share cs Mix.Run_op);
    (* RUN cycles through every shape: counts differ by at most one *)
    let counts =
      List.map
        (fun (m, n, k) ->
          let l = Printf.sprintf "RUN %d %d %d" m n k in
          Array.fold_left (fun s r -> if r.Mix.line = l then s + 1 else s) 0 reqs)
        Mix.run_shapes
    in
    check_bool "RUN shapes evenly covered" true
      (List.fold_left max 0 counts - List.fold_left min max_int counts <= 1)
  done

(* --- Open-loop accounting ------------------------------------------------- *)

(* A one-connection server that stalls its first request for [stall]
   seconds and answers the rest at once. *)
let stalling_server path ~requests ~stall =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  Domain.spawn (fun () ->
      for i = 1 to requests do
        let c, _ = Unix.accept fd in
        let ic = Unix.in_channel_of_descr c in
        ignore (input_line ic);
        if i = 1 then Unix.sleepf stall;
        let msg = Bytes.of_string "OK done\n.\n" in
        ignore (Unix.write c msg 0 (Bytes.length msg));
        Unix.close c
      done;
      Unix.close fd)

let test_due_time_stall () =
  let path = Filename.temp_file "perfbench" ".sock" in
  Sys.remove path;
  let stall = 0.2 in
  let server = stalling_server path ~requests:3 ~stall in
  let t0 = Unix.gettimeofday () +. 0.02 in
  (* one slot: requests due at +10 ms and +20 ms queue behind the stall *)
  let due = [| t0; t0 +. 0.01; t0 +. 0.02 |] in
  let recs =
    Openloop.run ~socket:path ~cap:1 ~deadline:(t0 +. 5.0)
      [| "A"; "B"; "C" |] due
  in
  Domain.join server;
  Sys.remove path;
  Array.iter
    (fun r ->
      check_bool "complete" true r.Openloop.complete;
      Alcotest.(check (list string)) "response" [ "OK done" ] r.Openloop.response)
    recs;
  let r = recs.(1) in
  check_bool "latency from due time counts the stall" true
    (Openloop.latency r >= stall -. 0.02);
  check_bool "the round trip alone hides it" true (Openloop.rtt r < stall /. 2.0);
  check_bool "the wait shows as queueing" true (Openloop.queued r >= stall -. 0.03);
  check_bool "the generator itself was on time" true
    (not (Openloop.behind ~limit:0.01 recs))

let test_generator_lateness () =
  let late = Openloop.record 1.0 in
  late.Openloop.seen <- 1.05;
  let on_time = Openloop.record 2.0 in
  on_time.Openloop.seen <- 2.0;
  check_float "lateness" 0.05 (Openloop.lateness late);
  check_bool "a late generator is behind" true
    (Openloop.behind ~limit:0.002 (Array.make 10 late));
  check_bool "an on-time generator is not" false
    (Openloop.behind ~limit:0.002 (Array.make 10 on_time))

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentiles" `Quick test_percentiles ]);
      ( "identities",
        [
          Alcotest.test_case "checksum = sum of naive_f32 C" `Quick
            test_checksum_identity;
          Alcotest.test_case "dot = naive_f32 entry" `Quick test_dot;
          Alcotest.test_case "RUN checksum matches the daemon" `Quick
            test_run_checksum_matches_daemon;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "resnet50 pass" `Quick test_resnet50_pass;
          Alcotest.test_case "stream and schedule are seeded" `Quick
            test_stream_seeded;
          Alcotest.test_case "class shares" `Quick test_class_shares;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "due-time accounting on a stall" `Quick
            test_due_time_stall;
          Alcotest.test_case "generator lateness" `Quick test_generator_lateness;
        ] );
    ]
