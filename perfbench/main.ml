(** perfbench — the repository's end-to-end benchmark.

    [main.exe --ukrgen PATH --workload W --seed N --seconds S --trace 0|1]
    runs one workload and prints, as the last line of standard output, one
    JSON object: [correct], [attempted], [failed] and [metrics] (the
    end-to-end metrics with [--trace 0], the per-layer split with
    [--trace 1]). Workloads:

    - [gemm1008]: closed loop, one caller; each op is one 1008³ f32
      [Gemm.blis_ba] on the serving bank.
    - [resnet50_pass]: closed loop, one caller; each op is one batch-1
      ResNet50 v1.5 pass (53 conv GEMMs, network order) via
      [Gemm.batch_ba].
    - [serve_open]: an open loop at a fixed offered rate against a
      [ukrgen serve] daemon: GENERATE/LINT/TUNE/RUN from {!Mix.stream}.
    - [cold_bank]: closed loop; each op starts [ukrgen serve] on an empty
      store and waits for its first RUN answer (the whole compile
      pipeline, host [cc] included).

    The three warm workloads start every set-up from a byte-identical copy
    of one store primed once per invocation (untimed), so the host
    compiler runs only in [cold_bank]. Everything is written under
    [.perfbench_work/] in the working directory, removed on exit. *)

open Perfbench_lib
module R = Exo_blis.Registry
module Gemm = Exo_blis.Gemm
module Matrix = Exo_blis.Matrix
module Analytical = Exo_blis.Analytical
module Tuner = Exo_blis.Tuner
module Machine = Exo_isa.Machine
module Store = Exo_cache.Store
module Jit = Exo_native.Jit
module Obs = Exo_obs.Obs
module Pool = Exo_par.Pool
module Kits = Exo_ukr_gen.Kits
module Family = Exo_ukr_gen.Family
module Tierlint = Exo_check.Tierlint
module C = Exo_interp.Compile
module C_emit = Exo_codegen.C_emit
module Client = Exo_serve.Serve.Client
module BA1 = Bigarray.Array1

(* The serving family and blocking, exactly as daemon RUN takes them. *)
let mr = 8
let nr = 12
let blocking () = Analytical.compute Machine.carmel ~mr ~nr ~dtype_bytes:4

(* Set-ups measured per run; setup_s is their median. *)
let setup_reps = 15

(* A closed-loop run measures at least this many ops, even past --seconds. *)
let min_ops = 3

(* The serve_open offered rate, requests per second. Set once from the
   mix's mean service time on a 2-core x86 host so the daemon is about 30%
   busy; fixed here so every commit is offered the same load. *)
let serve_rate = 40.0

(* A serve_open run whose generator noticed requests later than this
   (p90, seconds) measured the generator, not the daemon. *)
let late_limit = 0.002

let now = Unix.gettimeofday
let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt
let warn fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

let kit_of name =
  match Kits.by_name name with
  | Some k -> k
  | None -> failwith ("unknown kit " ^ name)

(* ------------------------------------------------------------------ *)
(* Metrics and the result line                                         *)

let end_to_end =
  [
    ("setup_s", "s");
    ("lat_p50_ms", "ms");
    ("lat_p90_ms", "ms");
    ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("ok_ratio", "ratio");
  ]

let per_layer =
  [
    ("gemm.macro_self_ms", "ms");
    ("gemm.gflops", "GFLOP/s");
    ("gemm.pack_a_ms", "ms");
    ("gemm.pack_b_ms", "ms");
    ("gemm.ukr_ms", "ms");
    ("ukr.calls", "count");
    ("ukr.us_per_call", "us");
    ("ukr.native_ratio", "ratio");
    ("ukr.fallback_calls", "count");
    ("par.tasks", "count");
    ("par.utilization", "ratio");
    ("cache.hydrate_ms", "ms");
    ("cache.hit_ratio", "ratio");
    ("tierlint.prove_ms", "ms");
    ("family.gen_ms", "ms");
    ("cemit.ms", "ms");
    ("cemit.c_kb", "KiB");
    ("jit.cc_s", "s");
    ("jit.so_kb", "KiB");
    ("jit.load_ms", "ms");
    ("jit.compiles", "count");
    ("jit.so_hits", "count");
    ("serve.ctl_rtt_p50_ms", "ms");
    ("serve.run_rtt_p50_ms", "ms");
    ("serve.run_gemm_ms", "ms");
    ("serve.run_overhead_ratio", "ratio");
    ("serve.queue_p90_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("tuner.sweep_ms", "ms");
    ("loadgen.late_p90_ms", "ms");
    ("trace.overhead_ratio", "ratio");
  ]

(* One run's outcome. Layer metrics a workload does not exercise stay 0. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed correctness assertions *)
  metrics : (string, float) Hashtbl.t;
}

let outcome () =
  { attempted = 0; failed = 0; problems = []; metrics = Hashtbl.create 64 }

let set o name v = Hashtbl.replace o.metrics name v

let problem o fmt =
  Printf.ksprintf
    (fun s ->
      warn "%s" s;
      o.problems <- s :: o.problems)
    fmt

let count_op o ok =
  o.attempted <- o.attempted + 1;
  if not ok then o.failed <- o.failed + 1

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~trace o =
  let names = if trace then per_layer else end_to_end in
  set o "ok_ratio"
    (float_of_int (o.attempted - o.failed) /. float_of_int (max 1 o.attempted));
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (Hashtbl.find_opt o.metrics name) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      names
  in
  let correct = o.problems = [] && o.failed = 0 && o.attempted > 0 in
  say "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct o.attempted o.failed
    (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* Files, processes                                                    *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec copy_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_tree s d else write_file d (read_file s))
    (Sys.readdir src)

(* (relative path, MD5) of every file, sorted: equal iff byte-identical *)
let tree_digest root =
  let rec go rel acc =
    let dir = Filename.concat root rel in
    Array.fold_left
      (fun acc f ->
        let r = if rel = "" then f else Filename.concat rel f in
        let p = Filename.concat root r in
        if Sys.is_directory p then go r acc else (r, Digest.file p) :: acc)
      acc (Sys.readdir dir)
  in
  List.sort compare (go "" [])

let children : int list ref = ref []

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* Spawn [prog args]; stdin and stdout from /dev/null unless [stdout] is
   given, stderr shared with ours. *)
let spawn ?stdout prog args =
  let null = Lazy.force devnull in
  let out = Option.value ~default:null stdout in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) null out Unix.stderr
  in
  children := pid :: !children;
  pid

let reap pid =
  let _, st = Unix.waitpid [] pid in
  children := List.filter (( <> ) pid) !children;
  st

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
      children := List.filter (( <> ) pid) !children;
      false

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* Peak resident set of a live process, from /proc (MiB). *)
let peak_rss_mb pid =
  let status =
    read_file
      (if pid = 0 then "/proc/self/status"
       else Printf.sprintf "/proc/%d/status" pid)
  in
  match
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
            match String.split_on_char ' ' (String.trim v) with
            | kb :: _ -> float_of_string_opt kb
            | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> kb /. 1024.0
  | None -> failwith "no VmHWM in /proc status"

(* ------------------------------------------------------------------ *)
(* Layer probes: direct timed calls into public functions              *)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median_time reps f =
  Stats.median (Array.init reps (fun _ -> snd (time f)))

let table_shapes =
  List.init (mr * nr) (fun idx -> ((idx / nr) + 1, (idx mod nr) + 1))

(* Tierlint over every entry of the 8×12 bank: the proof hydration re-runs. *)
let tierlint_prove_ms (summaries : C.Summary.t list) =
  let prove () =
    List.iter
      (fun s ->
        if not (Tierlint.proved (Tierlint.check s)) then
          failwith "tierlint: a bank entry no longer proves")
      summaries
  in
  1000.0 *. median_time 5 prove

let summaries_of procs =
  List.map
    (fun p ->
      match C.summarize_ukr p with
      | Some s -> s
      | None -> failwith "a bank entry does not lower")
    procs

let native_syms = List.map (fun (m, n) -> C_emit.native_sym ~mr:m ~nr:n) table_shapes

let load_ms so =
  1000.0
  *. median_time 5 (fun () ->
         match Jit.load_bytes ~so ~syms:native_syms with
         | Ok _ -> ()
         | Error e -> failwith ("Jit.load_bytes: " ^ e))

(* The bank's shared object as the store holds it (the one native_so
   entry of a primed store). *)
let stored_so dir =
  let kind_dir = Filename.concat dir Jit.so_kind in
  let keys =
    if Sys.file_exists kind_dir then
      List.concat_map
        (fun sub -> Array.to_list (Sys.readdir (Filename.concat kind_dir sub)))
        (Array.to_list (Sys.readdir kind_dir))
    else []
  in
  match keys with
  | [ key ] -> (Store.get (Store.of_dir dir) ~kind:Jit.so_kind ~key : string option)
  | _ -> None

(* µs per call of the serving 8×12 entry at kc = 512, called directly. *)
let ukr_us_per_call table =
  let kc = 512 in
  let st = Random.State.make [| 0x0c0ffee |] in
  let mk n =
    let b = BA1.create Bigarray.float32 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      BA1.set b i (float_of_int (Random.State.int st 7 - 3))
    done;
    b
  in
  let a = mk (kc * mr) and b = mk (kc * nr) and c = mk (mr * nr) in
  let u = R.table_entry table ~mr ~nr in
  let calls = 2000 in
  let batch () =
    BA1.fill c 0.0;
    for _ = 1 to calls do
      u ~kc ~ac:a ~ao:0 ~bc:b ~bo:0 ~c ~co:0
    done
  in
  batch ();
  1e6 *. median_time 7 batch /. float_of_int calls

(* Hydration of the warm kits from a store copy, in this process. *)
let hydrate_probe o ~kits dir =
  Store.set_ambient (Some dir);
  Store.reset_counts ();
  Jit.reset_counts ();
  let tables, dt =
    time (fun () -> List.map (fun kit -> R.exo_table ~kit ~mr ~nr ()) kits)
  in
  let hits, misses = Store.hit_miss_counts () in
  let compiles, so_hits, _, _ = Jit.counts () in
  set o "cache.hydrate_ms" (1000.0 *. dt);
  set o "cache.hit_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  set o "jit.compiles" (float_of_int compiles);
  set o "jit.so_hits" (float_of_int so_hits);
  if compiles <> 0 || misses <> 0 then
    problem o "warm set-up compiled %d bank(s) and missed %d store entr(ies)"
      compiles misses;
  List.hd tables

(* The warm-workload probes that follow a hydration: re-proof, .so load,
   one micro-kernel call. *)
let warm_probes o ~dir table =
  let procs =
    List.map (fun (m, n) -> (R.exo_kernel ~mr:m ~nr:n ()).Family.proc) table_shapes
  in
  set o "tierlint.prove_ms" (tierlint_prove_ms (summaries_of procs));
  (match stored_so dir with
  | Some so ->
      set o "jit.so_kb" (float_of_int (String.length so) /. 1024.0);
      set o "jit.load_ms" (load_ms so)
  | None -> warn "no native bank in the store (no host cc?)");
  set o "ukr.us_per_call" (ukr_us_per_call table)

(* ------------------------------------------------------------------ *)
(* Priming                                                             *)

(* Build the store every warm set-up copies: the tables of every served
   kit (family procs, lowered entries, the compiled native bank) and the
   tuner rankings of every TUNE key. *)
let prime dir =
  Store.set_ambient (Some dir);
  List.iter (fun name -> ignore (R.exo_table ~kit:(kit_of name) ~mr ~nr ())) Mix.serve_kits;
  List.iter
    (fun (m, n, k) -> ignore (Tuner.sweep Machine.carmel ~m ~n ~k))
    Mix.tune_dims

let run_prime ~self ~work =
  let dir = Filename.concat work "template" in
  let pid = spawn self [ "prime"; dir ] in
  (match reap pid with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "priming the store failed");
  dir

(* A fresh byte-identical copy of the template for one set-up. *)
let fresh_copy o ~template ~work name =
  let dir = Filename.concat work name in
  copy_tree template dir;
  if tree_digest dir <> tree_digest template then
    problem o "store copy %s differs from the template" name;
  dir

(* ------------------------------------------------------------------ *)
(* GEMM workloads (run inside a worker process)                        *)

type gemm_op = {
  op_run : unit -> unit;
  op_reset : unit -> unit;  (** untimed: poison the outputs *)
  op_check : unit -> bool;  (** sampled entries against f64 dot products *)
  op_flops : float;
}

(* A value no correct GEMM on these inputs produces. *)
let poison = 1e9

let samples st ~m ~n k = Array.init k (fun _ -> (Random.State.int st m, Random.State.int st n))

let check_samples (a, b, c) pts =
  Array.for_all
    (fun (i, j) -> Float.equal (Matrix.get c i j) (Mix.dot a b i j))
    pts

let gemm1008 ~seed =
  let st = Random.State.make [| 0x1008; seed |] in
  let d = 1008 in
  let a = Matrix.random_int d d st and b = Matrix.random_int d d st in
  let c = Matrix.create d d in
  let pts = samples st ~m:d ~n:d 64 in
  let blocking = blocking () and kernels = R.exo_bank ~mr ~nr () in
  {
    op_run = (fun () -> Gemm.blis_ba ~beta:0.0 ~blocking ~mr ~nr ~kernels a b c);
    op_reset = (fun () -> Array.fill c.Matrix.data 0 (d * d) poison);
    op_check = (fun () -> check_samples (a, b, c) pts);
    op_flops = 2.0 *. (float_of_int d ** 3.0);
  }

let resnet50_pass ~seed =
  let st = Random.State.make [| 0x7e5; seed |] in
  let blocking = blocking () in
  (* one input set per distinct layer GEMM, shared by its repeats *)
  let inputs =
    List.map
      (fun ((m, n, k) as dims) ->
        let a = Matrix.random_int m k st and b = Matrix.random_int k n st in
        (dims, (a, b, Matrix.create m n, samples st ~m ~n 8)))
      (Mix.dedup Mix.resnet50_pass)
  in
  let problems =
    List.map
      (fun dims ->
        let a, b, c, _ = List.assoc dims inputs in
        {
          Gemm.p_a = a;
          p_b = b;
          p_c = c;
          p_alpha = 1.0;
          p_beta = 0.0;
          p_blocking = blocking;
          p_mr = mr;
          p_nr = nr;
        })
      Mix.resnet50_pass
  in
  let ws = Gemm.workspace () and kernels = R.exo_bank ~mr ~nr () in
  {
    op_run = (fun () -> Gemm.batch_ba ~ws ~kernels problems);
    op_reset =
      (fun () ->
        List.iter
          (fun (_, (_, _, c, _)) ->
            Array.fill c.Matrix.data 0 (Array.length c.Matrix.data) poison)
          inputs);
    op_check =
      (fun () ->
        List.for_all (fun (_, (a, b, c, pts)) -> check_samples (a, b, c) pts) inputs);
    op_flops =
      List.fold_left
        (fun s (m, n, k) -> s +. (2.0 *. float_of_int (m * n * k)))
        0.0 Mix.resnet50_pass;
  }

let dispatches () =
  let native, ba, fallback = R.ukr_tier_counts () in
  (native, native + ba + fallback, fallback)

(* Untimed, between ops: collect the finished op's garbage (the packing
   arenas each pool region allocates afresh) so the next op does not pay
   for it and peak RSS measures one op's working set, not how much garbage
   a run of that length piles up. *)
let settle () = Gc.full_major ()

(* The closed loop: ops until [seconds] have passed (at least [min_ops]).
   Returns per-op latencies; every op is checked and counted. *)
let closed_loop o ~seconds op =
  let lats = ref [] and t_end = now () +. seconds in
  while now () < t_end || List.length !lats < min_ops do
    op.op_reset ();
    let _, _, fb0 = dispatches () in
    let (), dt = time op.op_run in
    let _, _, fb1 = dispatches () in
    count_op o (op.op_check () && fb1 = fb0);
    settle ();
    lats := dt :: !lats
  done;
  Array.of_list (List.rev !lats)

(* The traced half of a GEMM run: every op under Obs tracing, spans
   drained per op and summed per label. *)
let traced_loop o ~seconds op =
  let totals = Hashtbl.create 16 and tasks = ref 0 in
  let add name (_, total, self) =
    let t, s = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt totals name) in
    Hashtbl.replace totals name (t +. total, s +. self)
  in
  Obs.reset ();
  ignore (Obs.drain ());
  let lats = ref [] and t_end = now () +. seconds in
  while now () < t_end || List.length !lats < min_ops do
    op.op_reset ();
    Obs.enable ();
    let (), dt = time op.op_run in
    Obs.disable ();
    let tr = Obs.drain () in
    List.iter (fun (name, row) -> add name row) (Obs.Export.span_totals tr);
    List.iter
      (fun (e : Obs.event) ->
        if e.Obs.e_name = "gemm.blis_ba" then
          match List.assoc_opt "tasks" e.Obs.e_args with
          | Some t -> tasks := !tasks + int_of_string t
          | None -> ())
      tr.Obs.events;
    count_op o (op.op_check ());
    settle ();
    lats := dt :: !lats
  done;
  let get name = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt totals name) in
  (Array.of_list (List.rev !lats), get, !tasks)

let worker ~workload ~store ~seed ~seconds ~trace ~setup_only =
  let o = outcome () in
  let table = hydrate_probe o ~kits:[ Kits.neon_f32 ] store in
  say "ready";
  if not setup_only then begin
    let op =
      match workload with
      | "gemm1008" -> gemm1008 ~seed
      | "resnet50_pass" -> resnet50_pass ~seed
      | w -> failwith ("not a GEMM workload: " ^ w)
    in
    let n0, d0, f0 = dispatches () in
    let half = if trace then seconds /. 2.0 else seconds in
    let lats = closed_loop o ~seconds:half op in
    let n1, d1, f1 = dispatches () in
    let p50 = Stats.median lats in
    if trace then begin
      let tlats, span, tasks = traced_loop o ~seconds:half op in
      let ops = float_of_int (Array.length tlats) in
      let per_op_ms (total, _) = 1000.0 *. total /. ops in
      let pack_a = span "gemm.pack_a" and pack_b = span "gemm.pack_b" in
      let macro = span "gemm.macro_kernel" and ukr = span "gemm.ukr" in
      let wall = fst (span "gemm.blis_ba") in
      let width = float_of_int (Pool.jobs (Pool.global ())) in
      let busy = fst pack_a +. fst pack_b +. fst macro in
      set o "gemm.pack_a_ms" (per_op_ms pack_a);
      set o "gemm.pack_b_ms" (per_op_ms pack_b);
      set o "gemm.macro_self_ms" (1000.0 *. snd macro /. ops);
      set o "gemm.ukr_ms" (per_op_ms ukr);
      set o "par.tasks" (float_of_int tasks /. ops);
      set o "par.utilization" (busy /. (wall *. width));
      set o "trace.overhead_ratio" (Stats.median tlats /. p50);
      (* the four phases plus pool idle time close the traced op's
         domain-time budget (wall × width) *)
      let ms x = 1000.0 *. x /. ops in
      warn
        "traced op: %.2f ms wall x %.0f domains = %.2f ms: pack_a %.2f + \
         pack_b %.2f + macro_self %.2f + ukr %.2f + idle %.2f"
        (ms wall) width (ms (wall *. width)) (ms (fst pack_a)) (ms (fst pack_b))
        (ms (snd macro)) (ms (fst ukr))
        (ms ((wall *. width) -. busy));
      let ops_u = float_of_int (Array.length lats) in
      set o "gemm.gflops" (op.op_flops /. p50 /. 1e9);
      set o "ukr.calls" (float_of_int (d1 - d0) /. ops_u);
      set o "ukr.native_ratio" (float_of_int (n1 - n0) /. float_of_int (max 1 (d1 - d0)));
      set o "ukr.fallback_calls" (float_of_int (f1 - f0));
      warm_probes o ~dir:store table
    end;
    Array.iter (fun l -> say "lat %.17g" l) lats;
    Hashtbl.iter (fun k v -> say "layer %s %.17g" k v) o.metrics;
    say "ops %d %d" o.attempted o.failed;
    say "rss_mb %.17g" (peak_rss_mb 0)
  end;
  List.iter (fun p -> say "problem %s" p) o.problems

(* Coordinator side: [setup_reps] worker processes, each on a fresh copy
   of the template; the last one runs the ops. *)
let gemm_workload o ~self ~work ~workload ~seed ~seconds ~trace =
  let template = run_prime ~self ~work in
  let setups = ref [] in
  for rep = 1 to setup_reps do
    let last = rep = setup_reps in
    let dir = fresh_copy o ~template ~work (Printf.sprintf "rep%d" rep) in
    let rd, wr = Unix.pipe ~cloexec:true () in
    let t0 = now () in
    let pid =
      spawn ~stdout:wr self
        ([ "worker"; workload; dir; string_of_int seed; Printf.sprintf "%.17g" seconds;
           (if trace then "1" else "0") ]
        @ if last then [] else [ "setup-only" ])
    in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let lines = ref [] in
    (try
       while true do
         let l = input_line ic in
         if l = "ready" then setups := (now () -. t0) :: !setups;
         lines := l :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    (match reap pid with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "GEMM worker failed");
    let lats = ref [] in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "lat"; v ] -> lats := float_of_string v :: !lats
        | [ "layer"; k; v ] -> set o k (float_of_string v)
        | "problem" :: rest -> problem o "%s" (String.concat " " rest)
        | [ "ops"; a; f ] ->
            o.attempted <- o.attempted + int_of_string a;
            o.failed <- o.failed + int_of_string f
        | [ "rss_mb"; v ] -> set o "peak_rss_mb" (float_of_string v)
        | _ -> ())
      (List.rev !lines);
    if last then begin
      let lats = Array.of_list !lats in
      set o "lat_p50_ms" (1000.0 *. Stats.median lats);
      set o "lat_p90_ms" (1000.0 *. Stats.percentile lats 90.0);
      set o "ops_per_s"
        (float_of_int (Array.length lats) /. Array.fold_left ( +. ) 0.0 lats)
    end;
    rm_rf dir
  done;
  set o "setup_s" (Stats.median (Array.of_list !setups))

(* The cold pipeline's layers on the 8×12 bank, each timed as one direct
   call with no store: family generation, C emission of the native unit,
   the host cc. Returns the generated procs and the shared object. *)
let cold_pipeline_probes o =
  Store.set_ambient None;
  let kernels, gen =
    time (fun () ->
        List.map (fun (m, n) -> Family.generate ~mr:m ~nr:n ()) table_shapes)
  in
  set o "family.gen_ms" (1000.0 *. gen);
  (* time the emission alone: the first call resolves the bank's kernels *)
  ignore (R.native_emit ~mr ~nr ());
  let emitted, emit = time (fun () -> R.native_emit ~mr ~nr ()) in
  let src =
    match emitted with Some (_, s) -> s | None -> failwith "no native source"
  in
  set o "cemit.ms" (1000.0 *. emit);
  set o "cemit.c_kb" (float_of_int (String.length src) /. 1024.0);
  let so, cc = time (fun () -> Jit.compile_c ~src) in
  set o "jit.cc_s" cc;
  match so with
  | Ok so -> (List.map (fun k -> k.Family.proc) kernels, so)
  | Error e -> failwith ("cc: " ^ e)

(* ------------------------------------------------------------------ *)
(* Daemon workloads                                                    *)

let parse_stats payload =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ k; v ] -> Option.map (fun f -> (k, f)) (float_of_string_opt v)
      | _ -> None)
    payload

let stat stats k = Option.value ~default:0.0 (List.assoc_opt k stats)

(* Connect-and-request, retrying until the daemon has bound its socket;
   blocks until it answers (the daemon serves only once warm). *)
let request_when_up ~socket ~pid ~timeout line =
  let deadline = now () +. timeout in
  let rec go () =
    match Client.request ~socket line with
    | r -> r
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if now () > deadline then failwith "daemon did not come up";
        if not (alive pid) then failwith "daemon exited during start-up";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let start_daemon ~ukrgen ~socket ~store ~kits =
  spawn ukrgen
    ([ "serve"; "--socket"; socket; "--cache"; store; "--workers"; "2" ]
    @ List.concat_map (fun k -> [ "--kit"; k ]) kits)

let stop_daemon ~socket pid =
  ignore (Client.request ~socket "SHUTDOWN");
  ignore (reap pid)

let run_checksums =
  lazy
    (List.map
       (fun (m, n, k) ->
         let a, b = Mix.run_inputs ~m ~n ~k 0 in
         (Printf.sprintf "RUN %d %d %d" m n k, Mix.checksum a b))
       Mix.run_shapes)

(* Is this RUN response right: its checksum the colsum·rowsum identity and
   no closure-engine fallback? *)
let run_ok line resp =
  let field name =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ k; v ] when k = name -> float_of_string_opt v
        | _ -> None)
      resp
  in
  match (List.assoc_opt line (Lazy.force run_checksums), field "checksum") with
  | Some want, Some got -> Float.equal want got && field "fallback_calls" = Some 0.0
  | _ -> false

let response_ok (req : Mix.request) (r : Openloop.record) =
  r.Openloop.complete
  &&
  match r.Openloop.response with
  | status :: payload when Client.ok status -> (
      match req.Mix.verb with
      | Mix.Generate | Mix.Lint -> List.mem "proved true" payload
      | Mix.Tune -> true
      | Mix.Run -> run_ok req.Mix.line payload)
  | _ -> false

let serve_open o ~ukrgen ~self ~work ~seed ~seconds ~trace =
  let template = run_prime ~self ~work in
  ignore (Lazy.force run_checksums);
  let socket = Filename.concat work "serve.sock" in
  let setups = ref [] and daemon = ref None in
  for rep = 1 to setup_reps do
    let dir = fresh_copy o ~template ~work (Printf.sprintf "rep%d" rep) in
    let t0 = now () in
    let pid = start_daemon ~ukrgen ~socket ~store:dir ~kits:Mix.serve_kits in
    let status, _ = request_when_up ~socket ~pid ~timeout:60.0 "PING" in
    if not (Client.ok status) then failwith "daemon PING failed";
    setups := (now () -. t0) :: !setups;
    let stats = parse_stats (snd (Client.request ~socket "STATS")) in
    if stat stats "cache_misses" <> 0.0 || stat stats "cache_writes" <> 0.0 then
      problem o "warm daemon set-up %d missed or wrote the store (compiled)" rep;
    if rep < setup_reps then begin
      stop_daemon ~socket pid;
      rm_rf dir
    end
    else daemon := Some (pid, dir)
  done;
  set o "setup_s" (Stats.median (Array.of_list !setups));
  let pid, dir = Option.get !daemon in
  let n = int_of_float (Float.round (serve_rate *. seconds)) in
  let reqs = Mix.stream ~seed n in
  let start = now () +. 0.05 in
  let due = Array.map (fun d -> start +. d) (Mix.schedule ~seed ~rate:serve_rate n) in
  let recs =
    Openloop.run ~socket ~cap:(Domain.recommended_domain_count ())
      ~deadline:(start +. seconds +. 60.0)
      (Array.map (fun r -> r.Mix.line) reqs)
      due
  in
  let stats = parse_stats (snd (Client.request ~socket "STATS")) in
  set o "peak_rss_mb" (peak_rss_mb pid);
  stop_daemon ~socket pid;
  rm_rf dir;
  let oks = Array.mapi (fun i r -> response_ok reqs.(i) r) recs in
  Array.iter (count_op o) oks;
  let finished =
    List.filter (fun r -> Float.is_finite r.Openloop.finished) (Array.to_list recs)
  in
  let arr f = Array.of_list (List.map f finished) in
  let lats = arr Openloop.latency in
  set o "lat_p50_ms" (1000.0 *. Stats.median lats);
  set o "lat_p90_ms" (1000.0 *. Stats.percentile lats 90.0);
  let last = List.fold_left (fun m r -> Float.max m r.Openloop.finished) start finished in
  let n_ok = Array.fold_left (fun s b -> if b then s + 1 else s) 0 oks in
  set o "ops_per_s" (float_of_int n_ok /. (last -. start));
  let late_p90 = Stats.percentile (arr Openloop.lateness) 90.0 in
  if Openloop.behind ~limit:late_limit recs then
    problem o "load generator fell behind its schedule (late p90 %.3f ms)"
      (1000.0 *. late_p90);
  if trace then begin
    let cls = Mix.classes reqs in
    let pick c f =
      Array.to_list recs
      |> List.filteri (fun i r -> cls.(i) = c && Float.is_finite r.Openloop.finished)
      |> List.map f |> Array.of_list
    in
    let p50 a = if Array.length a = 0 then 0.0 else Stats.median a in
    let run_gemm =
      Array.of_list
        (List.filter_map
           (fun (r : Openloop.record) ->
             List.find_map
               (fun l ->
                 match String.split_on_char ' ' l with
                 | [ "seconds"; v ] -> float_of_string_opt v
                 | _ -> None)
               r.Openloop.response)
           (Array.to_list (pick Mix.Run_op Fun.id)))
    in
    let run_rtt = p50 (pick Mix.Run_op Openloop.rtt) in
    set o "serve.ctl_rtt_p50_ms" (1000.0 *. p50 (pick Mix.Memo_hit Openloop.rtt));
    set o "serve.run_rtt_p50_ms" (1000.0 *. run_rtt);
    set o "serve.run_gemm_ms" (1000.0 *. p50 run_gemm);
    set o "serve.run_overhead_ratio" (run_rtt /. p50 run_gemm);
    set o "serve.queue_p90_ms" (1000.0 *. Stats.percentile (arr Openloop.queued) 90.0);
    let hits = stat stats "cache_hits" and misses = stat stats "cache_misses" in
    set o "serve.cache_hit_ratio" (hits /. Float.max 1.0 (hits +. misses));
    let native = stat stats "tier_native_calls" and ba = stat stats "tier_ba_calls" in
    let fallback = stat stats "tier_fallback_calls" in
    set o "ukr.native_ratio" (native /. Float.max 1.0 (native +. ba +. fallback));
    set o "ukr.fallback_calls" fallback;
    set o "loadgen.late_p90_ms" (1000.0 *. late_p90);
    (* the daemon's set-up, repeated in this process where it can be
       timed call by call *)
    let copy = fresh_copy o ~template ~work "probe" in
    let table = hydrate_probe o ~kits:(List.map kit_of Mix.serve_kits) copy in
    warm_probes o ~dir:copy table;
    Store.set_ambient None;
    Tuner.clear_cache ();
    let sweeps =
      List.map
        (fun (m, n, k) -> snd (time (fun () -> Tuner.sweep Machine.carmel ~m ~n ~k)))
        Mix.tune_dims
    in
    set o "tuner.sweep_ms" (1000.0 *. Stats.mean (Array.of_list sweeps));
    (* what the daemon would run on an empty store *)
    ignore (cold_pipeline_probes o)
  end

(* The host toolchain check cold_bank needs before its first op: without
   a working cc a cold daemon silently serves the Bigarray tier. *)
let toolchain_probe () =
  let src =
    "void perfbench_probe(int kc, const float *A, const float *B, float *C, \
     int ldc) { for (int k = 0; k < kc; k++) C[0] += A[k] * B[k] + ldc; }\n"
  in
  match Jit.compile_c ~src with
  | Error e -> failwith ("host cc unusable: " ^ e)
  | Ok so -> (
      match Jit.load_bytes ~so ~syms:[ "perfbench_probe" ] with
      | Ok _ -> ()
      | Error e -> failwith ("dlopen failed: " ^ e))

let cold_bank o ~ukrgen ~work ~seed ~seconds ~trace =
  let setups = Array.init setup_reps (fun _ -> snd (time toolchain_probe)) in
  set o "setup_s" (Stats.median setups);
  let st = Random.State.make [| 0xc01d; seed |] in
  let shapes = Array.of_list Mix.run_shapes in
  Mix.shuffle st shapes;
  let lats = ref [] and rss = ref [] and t_end = now () +. seconds in
  let i = ref 0 in
  while now () < t_end || List.length !lats < min_ops do
    let dir = Filename.concat work (Printf.sprintf "cold%d" !i) in
    let socket = Filename.concat work (Printf.sprintf "cold%d.sock" !i) in
    let m, n, k = shapes.(!i mod Array.length shapes) in
    incr i;
    Unix.mkdir dir 0o755;
    if Sys.readdir dir <> [||] then problem o "cold store %s is not empty" dir;
    let line = Printf.sprintf "RUN %d %d %d" m n k in
    let t0 = now () in
    let pid = start_daemon ~ukrgen ~socket ~store:dir ~kits:[] in
    let status, payload = request_when_up ~socket ~pid ~timeout:150.0 line in
    let dt = now () -. t0 in
    let stats = parse_stats (snd (Client.request ~socket "STATS")) in
    rss := peak_rss_mb pid :: !rss;
    stop_daemon ~socket pid;
    rm_rf dir;
    let compiled = stat stats "cache_writes" > 0.0 && stat stats "cache_hits" = 0.0 in
    if not compiled then problem o "cold op %d did not build from an empty store" !i;
    count_op o (Client.ok status && run_ok line payload && compiled);
    lats := dt :: !lats
  done;
  let lats = Array.of_list !lats in
  set o "lat_p50_ms" (1000.0 *. Stats.median lats);
  set o "lat_p90_ms" (1000.0 *. Stats.percentile lats 90.0);
  set o "ops_per_s" (float_of_int (Array.length lats) /. Array.fold_left ( +. ) 0.0 lats);
  set o "peak_rss_mb" (Stats.median (Array.of_list !rss));
  if trace then begin
    let procs, so = cold_pipeline_probes o in
    set o "tierlint.prove_ms" (tierlint_prove_ms (summaries_of procs));
    set o "jit.compiles" 1.0;
    set o "jit.so_kb" (float_of_int (String.length so) /. 1024.0);
    set o "jit.load_ms" (load_ms so)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let workloads = [ "gemm1008"; "resnet50_pass"; "serve_open"; "cold_bank" ]

let usage () =
  prerr_endline
    ("usage: main.exe --ukrgen PATH --workload "
    ^ String.concat "|" workloads
    ^ " --seed N --seconds S --trace 0|1");
  exit 2

let coordinator args =
  let rec parse acc = function
    | flag :: v :: rest
      when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let workload = get "workload" and ukrgen = get "ukrgen" in
  let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (get "seconds") with
    | Some s when s > 0.0 -> s
    | _ -> usage ()
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if not (List.mem workload workloads) then usage ();
  if not (Sys.file_exists ukrgen) then usage ();
  let ukrgen =
    if Filename.is_relative ukrgen then Filename.concat (Sys.getcwd ()) ukrgen
    else ukrgen
  in
  let self = Sys.executable_name in
  let base = ".perfbench_work" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let work = Filename.concat base (string_of_int (Unix.getpid ())) in
  rm_rf work;
  Unix.mkdir work 0o755;
  (* the host cc and every temp file stay inside the working directory *)
  let tmp = Filename.concat (Sys.getcwd ()) (Filename.concat work "tmp") in
  Unix.mkdir tmp 0o755;
  Unix.putenv "TMPDIR" tmp;
  Filename.set_temp_dir_name tmp;
  let o = outcome () in
  Fun.protect
    ~finally:(fun () ->
      kill_children ();
      rm_rf work;
      try Unix.rmdir base with Unix.Unix_error _ -> ())
    (fun () ->
      match workload with
      | "gemm1008" | "resnet50_pass" ->
          gemm_workload o ~self ~work ~workload ~seed ~seconds ~trace
      | "serve_open" -> serve_open o ~ukrgen ~self ~work ~seed ~seconds ~trace
      | _ -> cold_bank o ~ukrgen ~work ~seed ~seconds ~trace);
  print_result ~trace o

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "prime"; dir ] -> prime dir
  | "worker" :: workload :: store :: seed :: seconds :: trace :: rest ->
      worker ~workload ~store ~seed:(int_of_string seed)
        ~seconds:(float_of_string seconds) ~trace:(trace = "1")
        ~setup_only:(rest = [ "setup-only" ])
  | args -> coordinator args
