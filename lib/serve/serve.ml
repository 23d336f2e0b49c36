(** The `ukrgen serve` kernel-compilation daemon.

    A long-running line-protocol server over a Unix-domain socket
    (stdlib/unix only): clients send one request per line and read one
    response — a status line ([OK ...] / [ERR ...]), zero or more payload
    lines, and a lone ["."] terminator. The daemon answers generate / lint
    / tune requests from the warm in-memory {!Exo_blis.Registry} table
    (hydrated from the ambient {!Exo_cache.Store} when one is configured,
    so restarts are cheap) — cold-start elimination for every client
    that would otherwise pay the schedule → certify → lower pipeline per
    invocation. A run request streams its problems one at a time through
    {!Exo_blis.Gemm.blis_ba}: each problem's inputs are synthesized in
    place into per-domain buffers, so a warm RUN allocates almost nothing
    and its memory does not grow with [count]. The buffers are kept and
    grow to the largest request a worker domain has served — at most
    3 × 2048² f64 = 96 MiB per worker domain at the dimension caps.

    Verbs:
    - [PING] — liveness.
    - [GENERATE <kit> <MR>x<NR>] — kernel descriptor: style, schedule
      steps, table tier and Tierlint verdict.
    - [LINT <kit> <MR>x<NR>] — the static translation-validation report of
      the lowered tape.
    - [TUNE <m> <n> <k>] — the {!Exo_blis.Tuner} ranking for one problem
      (persisted across restarts via the ambient store).
    - [RUN <m> <n> <k> [count]] — execute [count] GEMMs, one after the
      other, through the monomorphized table; replies with a checksum, the
      GEMMs' summed wall seconds ([seconds]) and the inputs' summed
      synthesis wall seconds ([synth_seconds]), which the access log
      records too.
    - [STATS] — request/cache counters, per-verb latency quantiles, uptime.
    - [METRICS] — Prometheus-style text exposition (counters + per-verb
      request-latency histograms).
    - [SHUTDOWN] — graceful stop: in-flight work drains, workers join.

    Concurrency: [workers] domains share the listening socket; each
    handles whole connections (several requests per connection allowed).
    Every request runs under an Obs span ([serve.request]) and bumps
    always-on per-verb atomics. Shutdown sets a stop flag; workers finish
    their current connection, observe the flag within the accept poll
    interval, and exit — {!wait} then joins them and unlinks the socket. *)

module Obs = Exo_obs.Obs
module Ledger = Exo_ledger.Ledger
module Store = Exo_cache.Store
module Kits = Exo_ukr_gen.Kits
module Family = Exo_ukr_gen.Family
module R = Exo_blis.Registry
module Tuner = Exo_blis.Tuner
module Gemm = Exo_blis.Gemm
module Matrix = Exo_blis.Matrix
module Analytical = Exo_blis.Analytical
module C = Exo_interp.Compile
module Tierlint = Exo_check.Tierlint
module Machine = Exo_isa.Machine

(* ------------------------------------------------------------------ *)
(* Request counters: always-on atomics (STATS reads them in plain runs),
   mirrored to Obs counters for the profile exporter when tracing.       *)

let req_total = Atomic.make 0
let req_errors = Atomic.make 0

let verb_counters =
  [
    ("PING", Atomic.make 0);
    ("GENERATE", Atomic.make 0);
    ("LINT", Atomic.make 0);
    ("TUNE", Atomic.make 0);
    ("RUN", Atomic.make 0);
    ("STATS", Atomic.make 0);
    ("METRICS", Atomic.make 0);
    ("SHUTDOWN", Atomic.make 0);
  ]

(* per-verb error counts and request-latency histograms: always on, like
   the verb counters (observe_always skips the Obs master switch) *)
let verb_errors = List.map (fun (v, _) -> (v, Atomic.make 0)) verb_counters

let verb_latency =
  List.map
    (fun (v, _) ->
      (v, Obs.histogram ("serve.latency_us." ^ String.lowercase_ascii v)))
    verb_counters

let obs_requests = Obs.counter "serve.requests"
let obs_errors = Obs.counter "serve.errors"

let request_counts () =
  ( Atomic.get req_total,
    Atomic.get req_errors,
    List.map (fun (v, c) -> (v, Atomic.get c)) verb_counters )

let reset_request_counts () =
  Atomic.set req_total 0;
  Atomic.set req_errors 0;
  List.iter (fun (_, c) -> Atomic.set c 0) verb_counters;
  List.iter (fun (_, c) -> Atomic.set c 0) verb_errors;
  List.iter (fun (_, h) -> Obs.reset_histogram h) verb_latency

(* ------------------------------------------------------------------ *)
(* Access log: one JSONL line per request through a size-rotated sink.  *)

let access_sink : Ledger.Sink.t option Atomic.t = Atomic.make None

let set_access_log ?max_bytes (path : string option) : unit =
  Atomic.set access_sink
    (Option.map (fun p -> Ledger.Sink.create ?max_bytes p) path)

let access_log_path () =
  Option.map Ledger.Sink.path (Atomic.get access_sink)

(* ------------------------------------------------------------------ *)
(* Request handling                                                     *)

(* Work shared by GENERATE/LINT/RUN: the warm family bounds every table
   serves — the paper's 8×12 family. *)
let table_mr = 8
let table_nr = 12

exception Bad_request of string

let fail fmt = Fmt.kstr (fun m -> raise (Bad_request m)) fmt

let parse_shape s =
  match String.index_opt s 'x' with
  | Some i -> (
      try
        let mr = int_of_string (String.sub s 0 i)
        and nr = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
        if mr < 1 || nr < 1 then fail "shape must be positive" else (mr, nr)
      with Failure _ -> fail "malformed shape %S (want <MR>x<NR>)" s)
  | None -> fail "malformed shape %S (want <MR>x<NR>)" s

let parse_kit name =
  match Kits.by_name name with
  | Some k -> k
  | None ->
      fail "unknown kit %S (know: %s)" name
        (String.concat ", " (List.map (fun k -> k.Kits.name) Kits.all))

let parse_int what s =
  match int_of_string_opt s with
  | Some v when v >= 1 -> v
  | _ -> fail "%s must be a positive integer, got %S" what s

(* Each handler returns (status-suffix, payload lines). *)

let handle_generate kit shape =
  let kit = parse_kit kit in
  let mr, nr = parse_shape shape in
  let k = R.exo_kernel ~kit ~mr ~nr () in
  let fast, proved =
    if mr <= table_mr && nr <= table_nr then
      (* a built table serves every entry proved, from a fast tier *)
      let _ : R.table = R.exo_table ~kit ~mr:table_mr ~nr:table_nr () in
      (true, true)
    else
      match C.summarize_ukr k.Family.proc with
      | Some s -> (false, Tierlint.proved (Tierlint.check s))
      | None -> (false, false)
  in
  ( Fmt.str "generated %s %dx%d" kit.Kits.name mr nr,
    [
      Fmt.str "kit %s" kit.Kits.name;
      Fmt.str "shape %dx%d" mr nr;
      Fmt.str "style %s" (Family.style_name k.Family.style);
      Fmt.str "steps %d" (Obs.Provenance.step_count k.Family.provenance);
      Fmt.str "fast %b" fast;
      Fmt.str "proved %b" proved;
    ] )

let handle_lint kit shape =
  let kit = parse_kit kit in
  let mr, nr = parse_shape shape in
  let k = R.exo_kernel ~kit ~mr ~nr () in
  match C.summarize_ukr k.Family.proc with
  | None ->
      ( Fmt.str "lint %s %dx%d" kit.Kits.name mr nr,
        [ "lowered false"; "proved false" ] )
  | Some s ->
      let rep = Tierlint.check s in
      ( Fmt.str "lint %s %dx%d" kit.Kits.name mr nr,
        [
          "lowered true";
          Fmt.str "proved %b" (Tierlint.proved rep);
          Fmt.str "bounds %a" Tierlint.pp_verdict rep.Tierlint.r_bounds;
          Fmt.str "writes %a" Tierlint.pp_verdict rep.Tierlint.r_writes;
          Fmt.str "accshape %a" Tierlint.pp_verdict rep.Tierlint.r_accshape;
        ] )

let handle_tune m n k =
  let m = parse_int "m" m and n = parse_int "n" n and k = parse_int "k" k in
  let results = Tuner.sweep Machine.carmel ~m ~n ~k in
  let best = List.hd results in
  ( Fmt.str "tuned %dx%dx%d best %dx%d" m n k best.Tuner.mr best.Tuner.nr,
    List.map
      (fun r ->
        Fmt.str "%d %d %.4f mc=%d kc=%d nc=%d" r.Tuner.mr r.Tuner.nr
          r.Tuner.gflops r.Tuner.blocking.Analytical.mc
          r.Tuner.blocking.Analytical.kc r.Tuner.blocking.Analytical.nc)
      results )

(* RUN executes real GEMMs in the daemon, so cap the request size: the
   point is serving models' layer batches, not arbitrary allocations. *)
let run_dim_cap = 2048
let run_count_cap = 64

(* The RUN workspace: per domain, one buffer per operand, each grown to
   the largest request the domain has served (at the caps, 3 × 2048² f64
   = 96 MiB) and refilled in place by every later RUN. *)
type run_buffers = {
  mutable ra : float array;
  mutable rb : float array;
  mutable rc : float array;
}

let run_workspace =
  Domain.DLS.new_key (fun () -> { ra = [||]; rb = [||]; rc = [||] })

let at_least (a : float array) (n : int) : float array =
  if Array.length a >= n then a else Array.make n 0.0

let handle_run m n k count =
  let m = parse_int "m" m and n = parse_int "n" n and k = parse_int "k" k in
  let count = match count with None -> 1 | Some c -> parse_int "count" c in
  if m > run_dim_cap || n > run_dim_cap || k > run_dim_cap then
    fail "dimensions capped at %d" run_dim_cap;
  if count > run_count_cap then fail "count capped at %d" run_count_cap;
  let mr = table_mr and nr = table_nr in
  let blocking = Analytical.compute Machine.carmel ~mr ~nr ~dtype_bytes:4 in
  let kernels = R.exo_bank ~mr ~nr () in
  let bufs = Domain.DLS.get run_workspace in
  bufs.ra <- at_least bufs.ra (m * k);
  bufs.rb <- at_least bufs.rb (k * n);
  bufs.rc <- at_least bufs.rc (m * n);
  let a = { Matrix.rows = m; cols = k; data = bufs.ra }
  and b = { Matrix.rows = k; cols = n; data = bufs.rb }
  and c = { Matrix.rows = m; cols = n; data = bufs.rc } in
  (* Problems stream one at a time through the shared buffers. Each draws
     its inputs from its own state, B before A, and its C adds to the
     checksum over exactly its m·n entries: the buffers' tails may still
     hold a larger earlier request. *)
  let dt = ref 0.0 and synth = ref 0.0 and checksum = ref 0.0 in
  for i = 0 to count - 1 do
    let t0 = Unix.gettimeofday () in
    let st = Random.State.make [| 0x5e12e; m; n; k; i |] in
    Matrix.fill_random_int b st;
    Matrix.fill_random_int a st;
    let t1 = Unix.gettimeofday () in
    synth := !synth +. (t1 -. t0);
    Gemm.blis_ba ~beta:0.0 ~blocking ~mr ~nr ~kernels a b c;
    dt := !dt +. (Unix.gettimeofday () -. t1);
    for j = 0 to (m * n) - 1 do
      checksum := !checksum +. Array.unsafe_get c.Matrix.data j
    done
  done;
  let native, ba, fallback = R.ukr_tier_counts () in
  ( Fmt.str "ran %d problem%s" count (if count = 1 then "" else "s"),
    [
      Fmt.str "checksum %.17g" !checksum;
      Fmt.str "seconds %.6f" !dt;
      Fmt.str "synth_seconds %.6f" !synth;
      Fmt.str "fast_calls %d" (native + ba);
      Fmt.str "fallback_calls %d" fallback;
      Fmt.str "native_calls %d" native;
    ] )

let started = ref (Unix.gettimeofday ())

let handle_stats () =
  let total, errors, verbs = request_counts () in
  let hits, misses = Store.hit_miss_counts () in
  let writes, corrupt = Store.write_counts () in
  let tier_native, tier_ba, tier_fallback = R.ukr_tier_counts () in
  ( "stats",
    [
      Fmt.str "uptime_seconds %.3f" (Unix.gettimeofday () -. !started);
      Fmt.str "requests %d" total;
      Fmt.str "errors %d" errors;
    ]
    @ List.map (fun (v, c) -> Fmt.str "requests_%s %d" (String.lowercase_ascii v) c) verbs
    @ List.map
        (fun (v, c) ->
          Fmt.str "errors_%s %d" (String.lowercase_ascii v) (Atomic.get c))
        verb_errors
    @ List.map
        (fun (v, h) ->
          let s = Obs.snapshot h in
          Fmt.str "latency_%s_us count %d p50 %.0f p95 %.0f p99 %.0f"
            (String.lowercase_ascii v) s.Obs.h_count (Obs.quantile s 0.5)
            (Obs.quantile s 0.95) (Obs.quantile s 0.99))
        verb_latency
    @ [
        Fmt.str "tier_native_calls %d" tier_native;
        Fmt.str "tier_ba_calls %d" tier_ba;
        Fmt.str "tier_fallback_calls %d" tier_fallback;
        Fmt.str "cache_hits %d" hits;
        Fmt.str "cache_misses %d" misses;
        Fmt.str "cache_writes %d" writes;
        Fmt.str "cache_corrupt %d" corrupt;
        Fmt.str "cache_dir %s"
          (match Store.ambient () with None -> "-" | Some s -> Store.root s);
      ] )

(* Prometheus text exposition: counters plus one histogram series per
   verb. The log2 buckets map directly onto cumulative [le] bounds
   (bucket i covers values up to 2^i - 1). *)
let handle_metrics () =
  let lines = ref [] in
  let pf fmt = Fmt.kstr (fun l -> lines := l :: !lines) fmt in
  let total, errors, verbs = request_counts () in
  let hits, misses = Store.hit_miss_counts () in
  let writes, corrupt = Store.write_counts () in
  pf "# HELP ukrgen_uptime_seconds Seconds since daemon start.";
  pf "# TYPE ukrgen_uptime_seconds gauge";
  pf "ukrgen_uptime_seconds %.3f" (Unix.gettimeofday () -. !started);
  pf "# TYPE ukrgen_requests_total counter";
  pf "ukrgen_requests_total %d" total;
  pf "# TYPE ukrgen_request_errors_total counter";
  pf "ukrgen_request_errors_total %d" errors;
  pf "# TYPE ukrgen_requests counter";
  List.iter
    (fun (v, c) ->
      pf "ukrgen_requests{verb=%S} %d" (String.lowercase_ascii v) c)
    verbs;
  pf "# TYPE ukrgen_request_errors counter";
  List.iter
    (fun (v, c) ->
      pf "ukrgen_request_errors{verb=%S} %d" (String.lowercase_ascii v)
        (Atomic.get c))
    verb_errors;
  List.iter
    (fun (name, v) ->
      pf "# TYPE ukrgen_cache_%s counter" name;
      pf "ukrgen_cache_%s %d" name v)
    [ ("hits", hits); ("misses", misses); ("writes", writes); ("corrupt", corrupt) ];
  (let native, ba, fallback = R.ukr_tier_counts () in
   pf "# TYPE ukrgen_tier_calls counter";
   List.iter
     (fun (tier, v) -> pf "ukrgen_tier_calls{tier=%S} %d" tier v)
     [ ("native", native); ("bigarray", ba); ("fallback", fallback) ]);
  pf "# TYPE ukrgen_request_latency_us histogram";
  List.iter
    (fun (v, h) ->
      let verb = String.lowercase_ascii v in
      let s = Obs.snapshot h in
      let top = ref (-1) in
      Array.iteri (fun i n -> if n > 0 then top := i) s.Obs.h_buckets;
      let cum = ref 0 in
      for i = 0 to !top do
        cum := !cum + s.Obs.h_buckets.(i);
        pf "ukrgen_request_latency_us_bucket{verb=%S,le=\"%d\"} %d" verb
          (snd (Obs.bucket_bounds i))
          !cum
      done;
      pf "ukrgen_request_latency_us_bucket{verb=%S,le=\"+Inf\"} %d" verb
        s.Obs.h_count;
      pf "ukrgen_request_latency_us_sum{verb=%S} %d" verb s.Obs.h_sum;
      pf "ukrgen_request_latency_us_count{verb=%S} %d" verb s.Obs.h_count)
    verb_latency;
  ("metrics", List.rev !lines)

(* A RUN reply's time split — GEMM [seconds] and input [synth_seconds] —
   as access-log fields; empty for an ERR reply, which carries neither. *)
let run_split (response : string list) : string =
  String.concat ""
    (List.filter_map
       (fun l ->
         match String.split_on_char ' ' l with
         | [ (("seconds" | "synth_seconds") as key); v ] ->
             Some (Printf.sprintf ",\"%s\":%s" key v)
         | _ -> None)
       response)

(** Dispatch one request line. Returns the full response: status line
    followed by payload lines (the ["."] terminator is the writer's job).
    Never raises — protocol errors become [ERR ...] responses. *)
let handle_request (stop : bool Atomic.t) (line : string) : string list =
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))
  in
  let verb =
    match words with w :: _ -> String.uppercase_ascii w | [] -> ""
  in
  Atomic.incr req_total;
  if Obs.enabled () then Obs.incr obs_requests;
  (match List.assoc_opt verb verb_counters with
  | Some c -> Atomic.incr c
  | None -> ());
  let args = if Obs.enabled () then [ ("verb", verb) ] else [] in
  let rest = match words with [] -> [] | _ :: r -> r in
  let t0 = Unix.gettimeofday () in
  let response =
    Obs.with_span ~args "serve.request" (fun () ->
        match
          match (verb, rest) with
          | "PING", _ -> ("pong", [])
          | "GENERATE", [ kit; shape ] -> handle_generate kit shape
          | "GENERATE", _ -> fail "usage: GENERATE <kit> <MR>x<NR>"
          | "LINT", [ kit; shape ] -> handle_lint kit shape
          | "LINT", _ -> fail "usage: LINT <kit> <MR>x<NR>"
          | "TUNE", [ m; n; k ] -> handle_tune m n k
          | "TUNE", _ -> fail "usage: TUNE <m> <n> <k>"
          | "RUN", [ m; n; k ] -> handle_run m n k None
          | "RUN", [ m; n; k; c ] -> handle_run m n k (Some c)
          | "RUN", _ -> fail "usage: RUN <m> <n> <k> [count]"
          | "STATS", _ -> handle_stats ()
          | "METRICS", _ -> handle_metrics ()
          | "SHUTDOWN", _ ->
              Atomic.set stop true;
              ("bye", [])
          | "", _ -> fail "empty request"
          | v, _ -> fail "unknown verb %S" v
        with
        | status, payload -> ("OK " ^ status) :: payload
        | exception Bad_request m ->
            Atomic.incr req_errors;
            if Obs.enabled () then Obs.incr obs_errors;
            [ "ERR " ^ m ]
        | exception e ->
            Atomic.incr req_errors;
            if Obs.enabled () then Obs.incr obs_errors;
            [ "ERR internal: " ^ Printexc.to_string e ])
  in
  let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  let failed =
    match response with
    | s :: _ -> String.length s >= 3 && String.sub s 0 3 = "ERR"
    | [] -> true
  in
  (match List.assoc_opt verb verb_latency with
  | Some h -> Obs.observe_always h us
  | None -> ());
  if failed then (
    match List.assoc_opt verb verb_errors with
    | Some c -> Atomic.incr c
    | None -> ());
  (match Atomic.get access_sink with
  | None -> ()
  | Some sink ->
      Ledger.Sink.write sink
        (Printf.sprintf
           "{\"ts\":%.6f,\"verb\":\"%s\",\"ok\":%b,\"us\":%d,\"lines\":%d%s}"
           t0 (Ledger.Json.escape verb) (not failed) us (List.length response)
           (if verb = "RUN" then run_split response else "")));
  response

(* ------------------------------------------------------------------ *)
(* The server                                                           *)

type t = {
  srv_socket : string;
  srv_fd : Unix.file_descr;
  srv_stop : bool Atomic.t;
  srv_workers : unit Domain.t list;
  srv_joined : bool Atomic.t;
}

let socket_path t = t.srv_socket
let stopping t = Atomic.get t.srv_stop

(* How long a worker's accept poll sleeps: the bound on how stale the stop
   flag can look, i.e. the worst-case drain latency of an idle worker. *)
let poll_interval = 0.1

let handle_conn (stop : bool Atomic.t) (cfd : Unix.file_descr) : unit =
  (try Unix.clear_nonblock cfd with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr cfd in
  let oc = Unix.out_channel_of_descr cfd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        let response = handle_request stop line in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          response;
        output_string oc ".\n";
        flush oc;
        (* keep the connection for pipelined requests, but stop taking new
           work once shutdown was requested (drain semantics) *)
        if not (Atomic.get stop) then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* closing the out channel closes the shared fd; the in channel is
         dropped without close to avoid a double-close *)
      try close_out_noerr oc with _ -> ())
    loop

let worker_loop (stop : bool Atomic.t) (fd : Unix.file_descr) () : unit =
  while not (Atomic.get stop) do
    match Unix.select [ fd ] [] [] poll_interval with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept fd with
        | cfd, _ -> handle_conn stop cfd
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
            Atomic.set stop true)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        Atomic.set stop true
  done

(** Warm the in-memory registry the daemon answers from: the full
    monomorphized table per kit (hydrated from the ambient store when
    warm, built and persisted when cold). *)
let warm ?(kits = [ Kits.neon_f32 ]) () : unit =
  List.iter
    (fun kit -> ignore (R.exo_table ~kit ~mr:table_mr ~nr:table_nr ()))
    kits

(** Start the daemon on a Unix socket: binds, warms the registry, then
    spawns [workers] accept domains (they share the listening socket).
    Returns immediately; use {!wait} to join. *)
let start ?(workers = 2) ?warm_kits ~socket () : t =
  if workers < 1 then invalid_arg "Serve.start: workers must be ≥ 1";
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX socket);
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  started := Unix.gettimeofday ();
  warm ?kits:warm_kits ();
  let stop = Atomic.make false in
  let ws = List.init workers (fun _ -> Domain.spawn (worker_loop stop fd)) in
  {
    srv_socket = socket;
    srv_fd = fd;
    srv_stop = stop;
    srv_workers = ws;
    srv_joined = Atomic.make false;
  }

(** Ask the daemon to stop (what the SHUTDOWN verb does from outside). *)
let stop (t : t) : unit = Atomic.set t.srv_stop true

(** Join the worker domains (returns once every in-flight connection has
    drained), then close the listening socket and unlink its path.
    Idempotent: a second call (e.g. a cleanup path after an explicit
    wait) is a no-op. *)
let wait (t : t) : unit =
  if Atomic.compare_and_set t.srv_joined false true then begin
    List.iter Domain.join t.srv_workers;
    (try Unix.close t.srv_fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.srv_socket with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* The client                                                           *)

module Client = struct
  (** One request/response round-trip: connect, send [line], read the
      status line and payload up to the ["."] terminator. *)
  let request ~socket (line : string) : string * string list =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    | () ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () -> try close_out_noerr oc with _ -> ())
          (fun () ->
            output_string oc line;
            output_char oc '\n';
            flush oc;
            let status =
              match input_line ic with
              | s -> s
              | exception End_of_file -> "ERR connection closed"
            in
            let rec read acc =
              match input_line ic with
              | "." -> List.rev acc
              | l -> read (l :: acc)
              | exception End_of_file -> List.rev acc
            in
            (status, read []))

  let ok (status : string) : bool =
    String.length status >= 2 && String.sub status 0 2 = "OK"
end
