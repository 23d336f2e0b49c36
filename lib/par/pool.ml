(** A fixed-width domain pool for data-parallel sweeps.

    Every sweep in the repo — tuner candidate pricing, the 52-kernel lint
    gate, the per-figure experiment rows, the multi-configuration cache
    ablation, the GEMM driver's packing and row slices — is an
    embarrassingly parallel map over an independent work list. This module
    is the one engine behind them all: the calling domain plus up to
    [width - 1] persistent helper domains consume a chunked work queue (an
    atomic cursor over the input array, a handful of items per grab so
    long-tailed items rebalance), with results written into
    index-addressed slots so the output order is exactly the input order no
    matter which domain computed what. At one core (or [jobs = 1]) no
    helper is ever involved and the map degenerates to a plain sequential
    [Array.map].

    Determinism contract: for a pure [f], [map pool f xs] returns the same
    list as [List.map f xs] for every pool width. Callers that memoize
    through {!Memo} keep that guarantee because memo caches are keyed, not
    ordered.

    Exceptions: if any application of [f] raises, the pool stops handing out
    new chunks, waits for every participant, and re-raises the exception of
    the lowest-indexed failing item (a deterministic choice, unlike
    first-to-fail). *)

(* Helper domains are process-wide and persistent: spawned lazily, up to
   the largest [width - 1] any region has asked for, then parked on a
   condition variable between regions. Re-spawning per region cost tens of
   microseconds, and — worse — threw away each domain's DLS state, so
   every GEMM re-allocated its packing arenas on fresh domains. One
   domain at a time owns the helpers for a whole region; a region that
   starts while they are owned (nested inside a task, or on another
   domain) runs inline on its caller, which cannot deadlock and keeps the
   determinism contract. Parked helpers do not hold the process open:
   it exits when the main domain does. *)

type t = { jobs : int }

let env_jobs () =
  match Sys.getenv_opt "EXO_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Some j
    | _ -> None)
  | None -> None

let global_jobs : int Atomic.t = Atomic.make 0 (* 0 = not yet resolved *)

let default_jobs () =
  match Atomic.get global_jobs with
  | j when j >= 1 -> j
  | _ ->
      let j =
        match env_jobs () with
        | Some j -> j
        | None -> Domain.recommended_domain_count ()
      in
      Atomic.set global_jobs j;
      j

(** Override the process-wide default width ([--jobs]/[-j] in the CLIs).
    Values below 1 are clamped to 1. *)
let set_default_jobs j = Atomic.set global_jobs (max 1 j)

let create ?jobs () = { jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) }
let jobs t = t.jobs

(** The process-wide pool: width from [set_default_jobs], else [EXO_JOBS],
    else [Domain.recommended_domain_count ()]. *)
let global () = create ()

(* ------------------------------------------------------------------ *)
(* Persistent helpers                                                  *)

(* Everything below [lock] is read and written under it. A region bumps
   [generation]; helpers [0 .. participants - 1] run [job] once each and
   count themselves out of [running]. *)
let lock = Mutex.create ()
let wake = Condition.create ()
let finished = Condition.create ()
let generation = ref 0
let job : (unit -> unit) ref = ref ignore
let participants = ref 0
let running = ref 0
let spawned = ref 0

(* held by the domain running a region, for the whole region *)
let owned = Atomic.make false

let rec helper_loop idx seen =
  Mutex.lock lock;
  while !generation = seen do
    Condition.wait wake lock
  done;
  let gen = !generation and mine = idx < !participants and work = !job in
  Mutex.unlock lock;
  if mine then begin
    (* [work] traps item exceptions itself *)
    (try work () with _ -> ());
    Mutex.lock lock;
    decr running;
    if !running = 0 then Condition.signal finished;
    Mutex.unlock lock
  end;
  helper_loop idx gen

(* Run [work] on the caller and [helpers] helper domains; returns once all
   of them have finished. The caller must hold [owned]. *)
let run_region ~(helpers : int) (work : unit -> unit) : unit =
  Mutex.protect lock (fun () ->
      while !spawned < helpers do
        let idx = !spawned and seen = !generation in
        ignore (Domain.spawn (fun () -> helper_loop idx seen));
        incr spawned
      done;
      incr generation;
      job := work;
      participants := helpers;
      running := helpers;
      Condition.broadcast wake);
  work ();
  Mutex.lock lock;
  while !running > 0 do
    Condition.wait finished lock
  done;
  job := ignore;
  Mutex.unlock lock

(** Helper domains spawned so far (never more than the largest
    [width - 1] requested). *)
let helpers () = Mutex.protect lock (fun () -> !spawned)

let map_array (t : t) (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  let width = min t.jobs n in
  (* every item runs under an [Obs.task_scope] keyed by (region epoch,
     item index), which is what makes merged traces pool-width-invariant;
     one extra branch per item when tracing is off *)
  let epoch = if Exo_obs.Obs.enabled () then Exo_obs.Obs.region_begin () else -1 in
  let apply i x =
    if epoch >= 0 then Exo_obs.Obs.task_scope ~epoch i (fun () -> f x) else f x
  in
  if width <= 1 || not (Atomic.compare_and_set owned false true) then
    Array.mapi apply xs
  else begin
    let results : ('b, exn) result option array = Array.make n None in
    let cursor = Atomic.make 0 in
    let failed = Atomic.make false in
    (* a few chunks per domain so a slow item doesn't serialize the tail *)
    let chunk = max 1 (n / (width * 4)) in
    let worker () =
      let continue = ref true in
      while !continue do
        if Atomic.get failed then continue := false
        else begin
          let start = Atomic.fetch_and_add cursor chunk in
          if start >= n then continue := false
          else
            for i = start to min n (start + chunk) - 1 do
              match apply i xs.(i) with
              | y -> results.(i) <- Some (Ok y)
              | exception e ->
                  results.(i) <- Some (Error e);
                  Atomic.set failed true
            done
        end
      done
    in
    Fun.protect
      ~finally:(fun () -> Atomic.set owned false)
      (fun () -> run_region ~helpers:(width - 1) worker);
    if Atomic.get failed then begin
      (* deterministic: re-raise the lowest-indexed failure *)
      Array.iter (function Some (Error e) -> raise e | _ -> ()) results;
      assert false
    end;
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error _) -> assert false
        | None ->
            (* unreachable unless [failed] was set, handled above *)
            assert false)
      results
  end

let map (t : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  Array.to_list (map_array t f (Array.of_list xs))

let iter (t : t) (f : 'a -> unit) (xs : 'a list) : unit =
  ignore (map t f xs)
