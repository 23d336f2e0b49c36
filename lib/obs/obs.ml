(** Structured tracing + metrics + kernel provenance. See the interface for
    the cost and determinism contracts; the load-bearing implementation
    choices are:

    - the master switch is one [bool Atomic.t]; every recording entry point
      is [if Atomic.get enabled_flag then slow_path else ()] so a disabled
      build pays exactly one branch and zero allocations;
    - each domain owns a buffer ([Domain.DLS]) it alone mutates — recording
      is lock-free; the only lock guards the buffer registry (taken once
      per domain lifetime) and the metric registries (taken once per
      counter/histogram name);
    - merge determinism: {!Exo_par.Pool} brackets regions with
      {!region_begin} (a global epoch) and items with {!task_scope}, every
      event carries [(epoch, task, seq)], and {!drain} sorts on that key —
      which domain executed an item stops mattering. *)

(* ------------------------------------------------------------------ *)
(* Master switch                                                       *)

let enabled_flag : bool Atomic.t = Atomic.make false
let[@inline] enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Per-domain buffers                                                  *)

type kind = KComplete of float | KInstant | KUnclosed

type event = {
  e_name : string;
  e_args : (string * string) list;
  e_t0 : float;
  e_kind : kind;
  e_tid : int;
  e_epoch : int;
  e_task : int;
  e_seq : int;
  e_depth : int;
  e_parent : int;
}

type open_span = {
  os_name : string;
  os_args : (string * string) list;
  os_t0 : float;
  os_seq : int;
  os_epoch : int;
  os_task : int;
  os_depth : int;
  os_parent : int;
}

type dbuf = {
  db_tid : int;
  mutable db_task : int;  (* max_int outside a task *)
  mutable db_epoch : int;  (* valid only inside a task *)
  mutable db_seq : int;
  mutable db_last : float;  (* per-domain monotonic clamp *)
  mutable db_depth_base : int;  (* open-span count at task entry *)
  mutable db_events : event list;  (* newest first *)
  mutable db_open : open_span list;  (* innermost first *)
}

let registry_lock = Mutex.create ()
let registry : dbuf list ref = ref []
let region_ctr : int Atomic.t = Atomic.make 0

let dbuf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          db_tid = (Domain.self () :> int);
          db_task = max_int;
          db_epoch = 0;
          db_seq = 0;
          db_last = 0.0;
          db_depth_base = 0;
          db_events = [];
          db_open = [];
        }
      in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let[@inline] buf () = Domain.DLS.get dbuf_key

(* clamped so timestamps never run backwards within a domain *)
let tick (b : dbuf) : float =
  let t = Unix.gettimeofday () in
  if t > b.db_last then b.db_last <- t;
  b.db_last

(* events outside any task carry the current region count as their epoch,
   so main-domain events slot before/after the regions they surround *)
let[@inline] cur_epoch (b : dbuf) =
  if b.db_task = max_int then Atomic.get region_ctr else b.db_epoch

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = int (* 0 = none; else 1 + depth of the opened span *)

let none : span = 0

let begin_slow (args : (string * string) list) (name : string) : span =
  let b = buf () in
  let t = tick b in
  let seq = b.db_seq in
  b.db_seq <- seq + 1;
  let parent = match b.db_open with [] -> -1 | os :: _ -> os.os_seq in
  let depth = List.length b.db_open in
  b.db_open <-
    {
      os_name = name;
      os_args = args;
      os_t0 = t;
      os_seq = seq;
      os_epoch = cur_epoch b;
      os_task = b.db_task;
      os_depth = depth - b.db_depth_base;
      os_parent = parent;
    }
    :: b.db_open;
  depth + 1

let push_event (b : dbuf) (e : event) = b.db_events <- e :: b.db_events

let end_slow (h : span) : unit =
  let b = buf () in
  match b.db_open with
  | [] -> ()
  | os :: rest ->
      (* LIFO discipline: a mismatched handle still closes the top span so
         nothing leaks, but the mismatch is recorded, not swallowed *)
      let depth = List.length b.db_open in
      if depth <> h then begin
        let seq = b.db_seq in
        b.db_seq <- seq + 1;
        push_event b
          {
            e_name = "obs.span_mismatch";
            e_args = [ ("open", os.os_name) ];
            e_t0 = tick b;
            e_kind = KInstant;
            e_tid = b.db_tid;
            e_epoch = cur_epoch b;
            e_task = b.db_task;
            e_seq = seq;
            e_depth = depth - b.db_depth_base;
            e_parent = os.os_seq;
          }
      end;
      b.db_open <- rest;
      push_event b
        {
          e_name = os.os_name;
          e_args = os.os_args;
          e_t0 = os.os_t0;
          e_kind = KComplete (tick b);
          e_tid = b.db_tid;
          e_epoch = os.os_epoch;
          e_task = os.os_task;
          e_seq = os.os_seq;
          e_depth = os.os_depth;
          e_parent = os.os_parent;
        }

let begin_span ?(args = []) (name : string) : span =
  if Atomic.get enabled_flag then begin_slow args name else 0

let end_span (s : span) : unit = if s <> 0 then end_slow s

let with_span ?(args = []) (name : string) (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let h = begin_slow args name in
    match f () with
    | v ->
        end_slow h;
        v
    | exception e ->
        end_slow h;
        raise e
  end

let instant ?(args = []) (name : string) : unit =
  if Atomic.get enabled_flag then begin
    let b = buf () in
    let seq = b.db_seq in
    b.db_seq <- seq + 1;
    let parent = match b.db_open with [] -> -1 | os :: _ -> os.os_seq in
    push_event b
      {
        e_name = name;
        e_args = args;
        e_t0 = tick b;
        e_kind = KInstant;
        e_tid = b.db_tid;
        e_epoch = cur_epoch b;
        e_task = b.db_task;
        e_seq = seq;
        e_depth = List.length b.db_open - b.db_depth_base;
        e_parent = parent;
      }
  end

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                             *)

type counter = { c_name : string; c_cell : int Atomic.t }

let counters_lock = Mutex.create ()
let counters : counter list ref = ref []

let counter (name : string) : counter =
  Mutex.protect counters_lock (fun () ->
      match List.find_opt (fun c -> String.equal c.c_name name) !counters with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          counters := c :: !counters;
          c)

let add (c : counter) (n : int) : unit =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_cell n)

let incr (c : counter) : unit = add c 1
let counter_value (c : counter) : int = Atomic.get c.c_cell

type histogram = {
  h_name : string;
  h_cnt : int Atomic.t;
  h_tot : int Atomic.t;
  h_bkt : int Atomic.t array;  (* bucket i: samples v with bits_of v = i *)
}

let histograms_lock = Mutex.create ()
let histograms : histogram list ref = ref []

let histogram (name : string) : histogram =
  Mutex.protect histograms_lock (fun () ->
      match List.find_opt (fun h -> String.equal h.h_name name) !histograms with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              h_cnt = Atomic.make 0;
              h_tot = Atomic.make 0;
              h_bkt = Array.init 63 (fun _ -> Atomic.make 0);
            }
          in
          histograms := h :: !histograms;
          h)

let bits_of n =
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let observe (h : histogram) (v : int) : unit =
  if Atomic.get enabled_flag && v >= 0 then begin
    ignore (Atomic.fetch_and_add h.h_cnt 1);
    ignore (Atomic.fetch_and_add h.h_tot v);
    ignore (Atomic.fetch_and_add h.h_bkt.(min 62 (bits_of v)) 1)
  end

(* the always-on variant: same cells, no master-switch gate — for metrics
   whose contract is "always counted" (serve request latency) *)
let observe_always (h : histogram) (v : int) : unit =
  if v >= 0 then begin
    ignore (Atomic.fetch_and_add h.h_cnt 1);
    ignore (Atomic.fetch_and_add h.h_tot v);
    ignore (Atomic.fetch_and_add h.h_bkt.(min 62 (bits_of v)) 1)
  end

let reset_histogram (h : histogram) : unit =
  Atomic.set h.h_cnt 0;
  Atomic.set h.h_tot 0;
  Array.iter (fun b -> Atomic.set b 0) h.h_bkt

(* ------------------------------------------------------------------ *)
(* Pool integration                                                    *)

let region_begin () : int = Atomic.fetch_and_add region_ctr 1 + 1

let task_scope ~(epoch : int) (task : int) (f : unit -> 'a) : 'a =
  let b = buf () in
  let old_task = b.db_task and old_epoch = b.db_epoch in
  let old_base = b.db_depth_base in
  b.db_task <- task;
  b.db_epoch <- epoch;
  b.db_depth_base <- List.length b.db_open;
  let restore () =
    b.db_task <- old_task;
    b.db_epoch <- old_epoch;
    b.db_depth_base <- old_base
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

(* ------------------------------------------------------------------ *)
(* Drain and reset                                                     *)

type hsnap = { h_count : int; h_sum : int; h_buckets : int array }

let snapshot (h : histogram) : hsnap =
  {
    h_count = Atomic.get h.h_cnt;
    h_sum = Atomic.get h.h_tot;
    h_buckets = Array.map Atomic.get h.h_bkt;
  }

(* bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i - 1]; the
   top bucket absorbs everything observe clamped into it *)
let bucket_bounds (i : int) : int * int =
  if i <= 0 then (0, 0)
  else if i >= 62 then (1 lsl 61, max_int)
  else (1 lsl (i - 1), (1 lsl i) - 1)

let quantile (h : hsnap) (q : float) : float =
  if h.h_count <= 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
    let n = Array.length h.h_buckets in
    let rec go i cum =
      if i >= n then float_of_int max_int
      else
        let c = h.h_buckets.(i) in
        if c > 0 && rank <= cum + c then begin
          (* the r-th of c samples spread evenly across the bucket: the
             estimate always lands inside the true quantile's bucket *)
          let lo, hi = bucket_bounds i in
          let r = rank - cum in
          float_of_int lo
          +. (float_of_int (hi - lo) *. (float_of_int r -. 0.5) /. float_of_int c)
        end
        else go (i + 1) (cum + c)
    in
    go 0 0
  end

type trace = {
  events : event list;
  counters : (string * int) list;
  histograms : (string * hsnap) list;
  unclosed : (string * int) list;
}

let event_order (a : event) (b : event) =
  let c = compare a.e_epoch b.e_epoch in
  if c <> 0 then c
  else
    let c = compare a.e_task b.e_task in
    if c <> 0 then c
    else
      let c = compare a.e_seq b.e_seq in
      if c <> 0 then c else compare a.e_tid b.e_tid

let drain () : trace =
  let bufs = Mutex.protect registry_lock (fun () -> !registry) in
  let events =
    List.concat_map
      (fun b ->
        let uncl =
          List.map
            (fun os ->
              {
                e_name = os.os_name;
                e_args = os.os_args;
                e_t0 = os.os_t0;
                e_kind = KUnclosed;
                e_tid = b.db_tid;
                e_epoch = os.os_epoch;
                e_task = os.os_task;
                e_seq = os.os_seq;
                e_depth = os.os_depth;
                e_parent = os.os_parent;
              })
            b.db_open
        in
        let es = List.rev_append b.db_events uncl in
        b.db_events <- [];
        b.db_open <- [];
        es)
      bufs
  in
  let events = List.sort event_order events in
  let by_name f = List.sort (fun a b -> compare (f a) (f b)) in
  {
    events;
    counters =
      Mutex.protect counters_lock (fun () ->
          List.map (fun c -> (c.c_name, Atomic.get c.c_cell)) !counters)
      |> by_name fst;
    histograms =
      Mutex.protect histograms_lock (fun () ->
          List.map
            (fun h ->
              ( h.h_name,
                {
                  h_count = Atomic.get h.h_cnt;
                  h_sum = Atomic.get h.h_tot;
                  h_buckets = Array.map Atomic.get h.h_bkt;
                } ))
            !histograms)
      |> by_name fst;
    unclosed =
      List.filter_map
        (fun e ->
          match e.e_kind with
          | KUnclosed -> Some (e.e_name, e.e_tid)
          | KComplete _ | KInstant -> None)
        events;
  }

let reset () : unit =
  ignore (drain ());
  Mutex.protect counters_lock (fun () ->
      List.iter (fun c -> Atomic.set c.c_cell 0) !counters);
  Mutex.protect histograms_lock (fun () ->
      List.iter
        (fun h ->
          Atomic.set h.h_cnt 0;
          Atomic.set h.h_tot 0;
          Array.iter (fun b -> Atomic.set b 0) h.h_bkt)
        !histograms);
  Atomic.set region_ctr 0

(* ------------------------------------------------------------------ *)
(* JSON plumbing (shared by the Chrome exporter and Provenance)        *)

let json_escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_args (args : (string * string) list) : string =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
       args)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

module Export = struct
  let chrome_json (tr : trace) : string =
    let b = Buffer.create 4096 in
    let t_base =
      List.fold_left (fun acc e -> Float.min acc e.e_t0) infinity tr.events
    in
    let t_base = if Float.is_finite t_base then t_base else 0.0 in
    let us t = (t -. t_base) *. 1e6 in
    let t_end =
      List.fold_left
        (fun acc e ->
          Float.max acc (match e.e_kind with KComplete t1 -> t1 | _ -> e.e_t0))
        t_base tr.events
    in
    Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    let first = ref true in
    let emit line =
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Buffer.add_string b line
    in
    (* thread-name metadata, one per domain seen *)
    let tids = List.sort_uniq compare (List.map (fun e -> e.e_tid) tr.events) in
    List.iter
      (fun tid ->
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"domain %d\"}}"
             tid tid))
      tids;
    List.iter
      (fun e ->
        let args = json_args e.e_args in
        match e.e_kind with
        | KComplete t1 ->
            emit
              (Printf.sprintf
                 "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"span\",\"args\":{%s}}"
                 e.e_tid (us e.e_t0)
                 ((t1 -. e.e_t0) *. 1e6)
                 (json_escape e.e_name) args)
        | KInstant ->
            emit
              (Printf.sprintf
                 "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\",\"name\":\"%s\",\"cat\":\"instant\",\"args\":{%s}}"
                 e.e_tid (us e.e_t0) (json_escape e.e_name) args)
        | KUnclosed ->
            emit
              (Printf.sprintf
                 "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\",\"name\":\"%s\",\"cat\":\"instant\",\"args\":{\"error\":\"unclosed span\"%s%s}}"
                 e.e_tid (us e.e_t0) (json_escape e.e_name)
                 (if args = "" then "" else ",")
                 args))
      tr.events;
    List.iter
      (fun (name, v) ->
        emit
          (Printf.sprintf
             "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"name\":\"%s\",\"args\":{\"value\":%d}}"
             (us t_end) (json_escape name) v))
      tr.counters;
    Buffer.add_string b "\n]}\n";
    Buffer.contents b

  (* self time: each closed span's duration is charged against its parent
     via the recorded per-domain parent links — exact, no heuristics *)
  let span_totals (tr : trace) : (string * (int * float * float)) list =
    let closed =
      List.filter_map
        (fun e ->
          match e.e_kind with
          | KComplete t1 -> Some (e, t1 -. e.e_t0)
          | KInstant | KUnclosed -> None)
        tr.events
    in
    let child : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun ((e : event), dur) ->
        if e.e_parent >= 0 then begin
          let key = (e.e_tid, e.e_parent) in
          let cur = Option.value ~default:0.0 (Hashtbl.find_opt child key) in
          Hashtbl.replace child key (cur +. dur)
        end)
      closed;
    let agg : (string, int * float * float) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun ((e : event), dur) ->
        let kids =
          Option.value ~default:0.0 (Hashtbl.find_opt child (e.e_tid, e.e_seq))
        in
        let self = Float.max 0.0 (dur -. kids) in
        let n, tot, slf =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg e.e_name)
        in
        Hashtbl.replace agg e.e_name (n + 1, tot +. dur, slf +. self))
      closed;
    Hashtbl.fold (fun name row acc -> (name, row) :: acc) agg []
    |> List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a)

  let text_report ?(top = 20) (tr : trace) : string =
    let b = Buffer.create 2048 in
    let rows =
      List.map (fun (name, (n, tot, slf)) -> (name, n, tot, slf)) (span_totals tr)
    in
    Buffer.add_string b "span profile (wall seconds)\n";
    Buffer.add_string b
      (Printf.sprintf "%-44s %8s %12s %12s\n" "label" "count" "total" "self");
    List.iter
      (fun (name, n, tot, slf) ->
        Buffer.add_string b (Printf.sprintf "%-44s %8d %12.6f %12.6f\n" name n tot slf))
      rows;
    let nonzero = List.filter (fun (_, v) -> v <> 0) tr.counters in
    if nonzero <> [] then begin
      Buffer.add_string b (Printf.sprintf "\ncounters (top %d)\n" top);
      nonzero
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.filteri (fun i _ -> i < top)
      |> List.iter (fun (name, v) ->
             Buffer.add_string b (Printf.sprintf "%-44s %16d\n" name v))
    end;
    let live = List.filter (fun (_, h) -> h.h_count > 0) tr.histograms in
    if live <> [] then begin
      Buffer.add_string b "\nhistograms\n";
      List.iter
        (fun (name, h) ->
          let top_bits = ref 0 in
          Array.iteri (fun i n -> if n > 0 then top_bits := i + 1) h.h_buckets;
          Buffer.add_string b
            (Printf.sprintf "%-44s count %-10d mean %-12.1f max<2^%d\n" name
               h.h_count
               (float_of_int h.h_sum /. float_of_int (max 1 h.h_count))
               !top_bits))
        live
    end;
    if tr.unclosed <> [] then begin
      Buffer.add_string b "\nUNCLOSED spans (begin without end)\n";
      List.iter
        (fun (name, tid) ->
          Buffer.add_string b (Printf.sprintf "  %s (domain %d)\n" name tid))
        tr.unclosed
    end;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)

module Provenance = struct
  type entry =
    | Prim of {
        op : string;
        pattern : string option;
        nodes_before : int;
        nodes_after : int;
        cert_us : float;
        ok : bool;
        detail : string option;
      }
    | Step of { title : string; figure : string option }

  (* a stack of active collectors per domain; [record] feeds them all so
     an outer collector still sees entries from a nested [collect] *)
  let stack_key : entry list ref list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let collecting () = !(Domain.DLS.get stack_key) <> []

  let record (e : entry) : unit =
    List.iter (fun cell -> cell := e :: !cell) !(Domain.DLS.get stack_key)

  let mark_step ?figure (title : string) : unit =
    if collecting () then record (Step { title; figure })

  let collect (f : unit -> 'a) : 'a * entry list =
    let st = Domain.DLS.get stack_key in
    let cell = ref [] in
    st := cell :: !st;
    let finish () = st := List.filter (fun c -> c != cell) !st in
    match f () with
    | v ->
        finish ();
        (v, List.rev !cell)
    | exception e ->
        finish ();
        raise e

  let step_count (es : entry list) : int =
    List.length (List.filter (function Step _ -> true | Prim _ -> false) es)

  let prim_count (es : entry list) : int =
    List.length (List.filter (function Prim _ -> true | Step _ -> false) es)

  let all_ok (es : entry list) : bool =
    List.for_all (function Prim p -> p.ok | Step _ -> true) es

  let entry_json (e : entry) : string =
    match e with
    | Step { title; figure } ->
        Printf.sprintf "    { \"kind\": \"step\", \"title\": \"%s\"%s }"
          (json_escape title)
          (match figure with
          | Some f -> Printf.sprintf ", \"figure\": \"%s\"" (json_escape f)
          | None -> "")
    | Prim p ->
        Printf.sprintf
          "    { \"kind\": \"prim\", \"op\": \"%s\", \"pattern\": %s, \
           \"nodes_before\": %d, \"nodes_after\": %d, \"cert_us\": %.1f, \
           \"ok\": %b%s }"
          (json_escape p.op)
          (match p.pattern with
          | Some pat -> Printf.sprintf "\"%s\"" (json_escape pat)
          | None -> "null")
          p.nodes_before p.nodes_after p.cert_us p.ok
          (match p.detail with
          | Some d -> Printf.sprintf ", \"detail\": \"%s\"" (json_escape d)
          | None -> "")

  let to_json ~(kernel : string) ?kit ?style ?declared_steps (es : entry list) :
      string =
    let b = Buffer.create 2048 in
    Buffer.add_string b "{\n";
    Buffer.add_string b (Printf.sprintf "  \"kernel\": \"%s\",\n" (json_escape kernel));
    (match kit with
    | Some k -> Buffer.add_string b (Printf.sprintf "  \"kit\": \"%s\",\n" (json_escape k))
    | None -> ());
    (match style with
    | Some s ->
        Buffer.add_string b (Printf.sprintf "  \"style\": \"%s\",\n" (json_escape s))
    | None -> ());
    (match declared_steps with
    | Some d -> Buffer.add_string b (Printf.sprintf "  \"declared_steps\": %d,\n" d)
    | None -> ());
    Buffer.add_string b (Printf.sprintf "  \"step_count\": %d,\n" (step_count es));
    Buffer.add_string b (Printf.sprintf "  \"primitive_count\": %d,\n" (prim_count es));
    Buffer.add_string b (Printf.sprintf "  \"certificates_ok\": %b,\n" (all_ok es));
    Buffer.add_string b "  \"log\": [\n";
    Buffer.add_string b (String.concat ",\n" (List.map entry_json es));
    Buffer.add_string b "\n  ]\n}\n";
    Buffer.contents b

  let header_lines (es : entry list) : string list =
    let summary =
      Printf.sprintf "provenance: %d schedule steps, %d primitives, certificates %s"
        (step_count es) (prim_count es)
        (if all_ok es then "ok" else "FAILED")
    in
    let steps =
      List.filter_map
        (function
          | Step { title; figure } ->
              Some
                (Printf.sprintf "  step: %s%s" title
                   (match figure with Some f -> " (" ^ f ^ ")" | None -> ""))
          | Prim _ -> None)
        es
    in
    summary :: steps
end
