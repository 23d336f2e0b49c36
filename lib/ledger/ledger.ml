(* The append-only performance run ledger. See the interface for the
   durability contract; the implementation notes that matter:

   - append is one [write] of one complete line on an [O_APPEND] fd under
     an advisory [lockf] — concurrent writers interleave whole records;
   - load never trusts the file: each line parses independently and a bad
     line (torn tail, hand edit) is counted, skipped, and reported;
   - the JSON layer below is deliberately tiny — the ledger depends on
     nothing beyond the stdlib and [unix];
   - this module is the one writer of the identity fields: every
     BENCH_*.json is one record, and [ukrgen lint --tiers --json] embeds
     one as its meta block. *)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape (s : string) : string =
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

  let num_to_string (v : float) : string =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.12g" v

  let rec to_string (j : t) : string =
    match j with
    | Null -> "null"
    | Bool b -> if b then "true" else "false"
    | Num v -> num_to_string v
    | Str s -> "\"" ^ escape s ^ "\""
    | Arr xs -> "[" ^ String.concat "," (List.map to_string xs) ^ "]"
    | Obj kvs ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kvs)
        ^ "}"

  exception Bad of string

  (* recursive descent over a string; [pos] is the cursor *)
  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          let c = s.[!pos] in
          advance ();
          if c = '"' then Buffer.contents b
          else if c = '\\' then begin
            (if !pos >= n then fail "unterminated escape"
             else
               let e = s.[!pos] in
               advance ();
               match e with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'n' -> Buffer.add_char b '\n'
               | 't' -> Buffer.add_char b '\t'
               | 'r' -> Buffer.add_char b '\r'
               | 'b' -> Buffer.add_char b '\b'
               | 'f' -> Buffer.add_char b '\012'
               | 'u' ->
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   pos := !pos + 4;
                   let cp =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   (* UTF-8 encode the BMP code point *)
                   if cp < 0x80 then Buffer.add_char b (Char.chr cp)
                   else if cp < 0x800 then begin
                     Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
                     Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                   end
                   else begin
                     Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
                     Buffer.add_char b
                       (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                     Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                   end
               | _ -> fail "bad escape");
            go ()
          end
          else begin
            Buffer.add_char b c;
            go ()
          end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numchar s.[!pos] do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> v
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            Arr (elems [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let str = function Str s -> Some s | _ -> None
  let num = function Num v -> Some v | _ -> None
  let bool_ = function Bool b -> Some b | _ -> None
  let list_ = function Arr xs -> Some xs | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Robust statistics                                                   *)

module Stats = struct
  let median (xs : float list) : float =
    match List.sort compare xs with
    | [] -> 0.0
    | sorted ->
        let n = List.length sorted in
        let a = Array.of_list sorted in
        if n mod 2 = 1 then a.(n / 2)
        else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

  let mad (xs : float list) : float =
    match xs with
    | [] -> 0.0
    | _ ->
        let m = median xs in
        median (List.map (fun x -> Float.abs (x -. m)) xs)
end

(* ------------------------------------------------------------------ *)
(* Rotating JSONL sink                                                 *)

module Sink = struct
  type t = { s_path : string; s_max : int; s_lock : Mutex.t }

  let create ?(max_bytes = 1_048_576) path =
    { s_path = path; s_max = max_bytes; s_lock = Mutex.create () }

  let path t = t.s_path

  let write t (line : string) : unit =
    Mutex.protect t.s_lock (fun () ->
        try
          (try
             if (Unix.stat t.s_path).Unix.st_size >= t.s_max then
               Unix.rename t.s_path (t.s_path ^ ".1")
           with Unix.Unix_error _ -> ());
          let fd =
            Unix.openfile t.s_path
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
              0o644
          in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let b = Bytes.of_string (line ^ "\n") in
              ignore (Unix.write fd b 0 (Bytes.length b)))
        with Unix.Unix_error _ | Sys_error _ -> ())
end

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

type dir = Higher | Lower | Info

type metric = {
  m_name : string;
  m_value : float;
  m_median : float;
  m_mad : float;
  m_n : int;
  m_dir : dir;
  m_unit : string;
}

let metric ?(unit_ = "") dir name value =
  {
    m_name = name;
    m_value = value;
    m_median = value;
    m_mad = 0.0;
    m_n = 1;
    m_dir = dir;
    m_unit = unit_;
  }

let metric_of_samples ?(unit_ = "") dir name (samples : float list) =
  match samples with
  | [] -> metric ~unit_ dir name 0.0
  | _ ->
      let med = Stats.median samples in
      let best =
        match dir with
        | Higher -> List.fold_left Float.max neg_infinity samples
        | Lower -> List.fold_left Float.min infinity samples
        | Info -> med
      in
      {
        m_name = name;
        m_value = best;
        m_median = med;
        m_mad = Stats.mad samples;
        m_n = List.length samples;
        m_dir = dir;
        m_unit = unit_;
      }

type record = {
  r_schema : int;
  r_time : float;
  r_bench : string;
  r_commit : string;
  r_host_cores : int;
  r_pool_jobs : int;
  r_ocaml : string;
  r_flambda : bool option;
  r_labels : (string * string) list;
  r_metrics : metric list;
}

let schema_version = 1

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let record ?time ?flambda ?(labels = []) ~pool_jobs ~bench metrics =
  {
    r_schema = schema_version;
    r_time = (match time with Some t -> t | None -> Unix.gettimeofday ());
    r_bench = bench;
    r_commit = git_commit ();
    r_host_cores = Domain.recommended_domain_count ();
    r_pool_jobs = pool_jobs;
    r_ocaml = Sys.ocaml_version;
    r_flambda = flambda;
    r_labels = labels;
    r_metrics = metrics;
  }

(* the git commit is deliberately absent: same-host cross-commit
   comparison is the ledger's purpose *)
let fingerprint (r : record) : string =
  Printf.sprintf "%s|cores=%d|jobs=%d|ocaml=%s|flambda=%s" r.r_bench
    r.r_host_cores r.r_pool_jobs r.r_ocaml
    (match r.r_flambda with
    | None -> "?"
    | Some true -> "y"
    | Some false -> "n")

let dir_to_string = function
  | Higher -> "higher"
  | Lower -> "lower"
  | Info -> "info"

let dir_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | "info" -> Some Info
  | _ -> None

let metric_to_json (m : metric) : Json.t =
  Json.Obj
    [
      ("name", Json.Str m.m_name);
      ("value", Json.Num m.m_value);
      ("median", Json.Num m.m_median);
      ("mad", Json.Num m.m_mad);
      ("n", Json.Num (float_of_int m.m_n));
      ("dir", Json.Str (dir_to_string m.m_dir));
      ("unit", Json.Str m.m_unit);
    ]

let to_json (r : record) : string =
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.Num (float_of_int r.r_schema));
          ("time", Json.Num r.r_time);
          ("bench", Json.Str r.r_bench);
          ("git_commit", Json.Str r.r_commit);
          ("host_cores", Json.Num (float_of_int r.r_host_cores));
          ("pool_jobs", Json.Num (float_of_int r.r_pool_jobs));
          ("ocaml_version", Json.Str r.r_ocaml);
        ]
       @ (match r.r_flambda with
         | None -> []
         | Some f -> [ ("flambda", Json.Bool f) ])
       @ (match r.r_labels with
         | [] -> []
         | ls ->
             [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ls)) ])
       @ [ ("metrics", Json.Arr (List.map metric_to_json r.r_metrics)) ]))

let metric_of_json (j : Json.t) : metric option =
  let ( let* ) = Option.bind in
  let* name = Option.bind (Json.member "name" j) Json.str in
  let* value = Option.bind (Json.member "value" j) Json.num in
  let* dir = Option.bind (Option.bind (Json.member "dir" j) Json.str) dir_of_string in
  let field k default =
    match Option.bind (Json.member k j) Json.num with
    | Some v -> v
    | None -> default
  in
  Some
    {
      m_name = name;
      m_value = value;
      m_median = field "median" value;
      m_mad = field "mad" 0.0;
      m_n = int_of_float (field "n" 1.0);
      m_dir = dir;
      m_unit =
        (match Option.bind (Json.member "unit" j) Json.str with
        | Some u -> u
        | None -> "");
    }

let of_json (j : Json.t) : record option =
  let ( let* ) = Option.bind in
  let* schema = Option.bind (Json.member "schema" j) Json.num in
  let* time = Option.bind (Json.member "time" j) Json.num in
  let* bench = Option.bind (Json.member "bench" j) Json.str in
  let* commit = Option.bind (Json.member "git_commit" j) Json.str in
  let* cores = Option.bind (Json.member "host_cores" j) Json.num in
  let* jobs = Option.bind (Json.member "pool_jobs" j) Json.num in
  let* ocaml = Option.bind (Json.member "ocaml_version" j) Json.str in
  let* ms = Option.bind (Json.member "metrics" j) Json.list_ in
  (* a line written before labels existed has none *)
  let* labels =
    match Json.member "labels" j with
    | None -> Some []
    | Some (Json.Obj kvs) ->
        let ls =
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.str v))
            kvs
        in
        if List.length ls = List.length kvs then Some ls else None
    | Some _ -> None
  in
  let metrics = List.filter_map metric_of_json ms in
  if List.length metrics <> List.length ms then None
  else
    Some
      {
        r_schema = int_of_float schema;
        r_time = time;
        r_bench = bench;
        r_commit = commit;
        r_host_cores = int_of_float cores;
        r_pool_jobs = int_of_float jobs;
        r_ocaml = ocaml;
        r_flambda = Option.bind (Json.member "flambda" j) Json.bool_;
        r_labels = labels;
        r_metrics = metrics;
      }

let append ~path (r : record) : unit =
  let line = to_json r ^ "\n" in
  (* O_RDWR, not O_WRONLY: the torn-tail probe below reads the last byte
     (O_APPEND still lands every write at EOF) *)
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* advisory whole-file lock; O_APPEND alone already lands each
         single write at EOF, the lock serializes against readers that
         care *)
      (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
      Fun.protect
        ~finally:(fun () ->
          try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
        (fun () ->
          (* heal a torn tail: if a previous writer died mid-line the file
             ends without '\n' — gluing this record onto that line would
             corrupt it too, so start a fresh line (the torn one stays
             corrupt and is skipped by load, this record survives) *)
          let torn =
            try
              let size = (Unix.fstat fd).Unix.st_size in
              size > 0
              &&
              let b = Bytes.create 1 in
              ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
              Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n'
            with Unix.Unix_error _ -> false
          in
          let line = if torn then "\n" ^ line else line in
          let b = Bytes.of_string line in
          let n = Unix.write fd b 0 (Bytes.length b) in
          if n <> Bytes.length b then failwith "ledger: short write"))

let load ~path : record list * int =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let ic = open_in_bin path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (* a final line without its newline is a torn write: corrupt *)
    let complete, torn =
      match String.rindex_opt content '\n' with
      | None -> ("", if content = "" then 0 else 1)
      | Some i ->
          ( String.sub content 0 i,
            if i = String.length content - 1 then 0 else 1 )
    in
    let records = ref [] and skipped = ref torn in
    String.split_on_char '\n' complete
    |> List.iter (fun line ->
           if String.trim line <> "" then
             match Json.parse line with
             | Ok j -> (
                 match of_json j with
                 | Some r -> records := r :: !records
                 | None -> incr skipped)
             | Error _ -> incr skipped);
    (List.rev !records, !skipped)
  end

let env_path () = Sys.getenv_opt "UKRGEN_LEDGER"

(* ------------------------------------------------------------------ *)
(* Regression detection                                                *)

type verdict = {
  v_bench : string;
  v_metric : string;
  v_unit : string;
  v_dir : dir;
  v_current : float;
  v_n_baseline : int;
  v_baseline : float;
  v_noise : float;
  v_regressed : bool;
}

let check ?(baseline = 5) ?(mad_k = 4.0) ?(min_rel = 0.10)
    (records : record list) : verdict list =
  (* group by bench, preserving file (= append) order *)
  let benches = ref [] in
  List.iter
    (fun r ->
      if not (List.mem r.r_bench !benches) then benches := r.r_bench :: !benches)
    records;
  List.rev !benches
  |> List.concat_map (fun bench ->
         let runs = List.filter (fun r -> r.r_bench = bench) records in
         match List.rev runs with
         | [] -> []
         | current :: earlier_rev ->
             let fp = fingerprint current in
             let window =
               List.filter (fun r -> fingerprint r = fp) earlier_rev
               |> List.filteri (fun i _ -> i < baseline)
             in
             current.r_metrics
             |> List.filter_map (fun m ->
                    if m.m_dir = Info then None
                    else begin
                      let history =
                        List.filter_map
                          (fun r ->
                            List.find_opt
                              (fun m' -> m'.m_name = m.m_name)
                              r.r_metrics
                            |> Option.map (fun m' -> m'.m_value))
                          window
                      in
                      match history with
                      | [] ->
                          Some
                            {
                              v_bench = bench;
                              v_metric = m.m_name;
                              v_unit = m.m_unit;
                              v_dir = m.m_dir;
                              v_current = m.m_value;
                              v_n_baseline = 0;
                              v_baseline = Float.nan;
                              v_noise = Float.nan;
                              v_regressed = false;
                            }
                      | _ ->
                          let bmed = Stats.median history in
                          let noise =
                            Float.max
                              (mad_k *. Stats.mad history)
                              (Float.max
                                 (min_rel *. Float.abs bmed)
                                 (mad_k *. m.m_mad))
                          in
                          let regressed =
                            match m.m_dir with
                            | Higher -> m.m_value < bmed -. noise
                            | Lower -> m.m_value > bmed +. noise
                            | Info -> false
                          in
                          Some
                            {
                              v_bench = bench;
                              v_metric = m.m_name;
                              v_unit = m.m_unit;
                              v_dir = m.m_dir;
                              v_current = m.m_value;
                              v_n_baseline = List.length history;
                              v_baseline = bmed;
                              v_noise = noise;
                              v_regressed = regressed;
                            }
                    end))

(* ------------------------------------------------------------------ *)
(* The report                                                          *)

module Report = struct
  type attribution = {
    at_bench : string;
    at_commit : string;
    at_time : float;
    at_dim : int option;
    at_measured : float;
    at_model : float;
    at_peak : float option;
    at_dram_mb : float option;
    at_efficiency : float;
    at_phases : (string * float) list;
  }

  type t = {
    rp_path : string;
    rp_records : record list;
    rp_skipped : int;
    rp_baseline : int;
    rp_gate : float;
    rp_verdicts : verdict list;
    rp_attribution : attribution option;
  }

  let find_metric (r : record) name =
    List.find_opt (fun m -> m.m_name = name) r.r_metrics
    |> Option.map (fun m -> m.m_value)

  let phase_prefix = "attr.phase."

  let attribution_of (r : record) : attribution option =
    match (find_metric r "attr.measured_gflops", find_metric r "attr.model_gflops")
    with
    | Some measured, Some model when model > 0.0 ->
        Some
          {
            at_bench = r.r_bench;
            at_commit = r.r_commit;
            at_time = r.r_time;
            at_dim = Option.map int_of_float (find_metric r "attr.dim");
            at_measured = measured;
            at_model = model;
            at_peak = find_metric r "attr.model_peak_gflops";
            at_dram_mb = find_metric r "attr.sim_dram_mb";
            at_efficiency = measured /. model;
            at_phases =
              List.filter_map
                (fun m ->
                  let p = phase_prefix and l = String.length phase_prefix in
                  if
                    String.length m.m_name > l
                    && String.sub m.m_name 0 l = p
                  then
                    Some
                      ( String.sub m.m_name l (String.length m.m_name - l),
                        m.m_value )
                  else None)
                r.r_metrics;
          }
    | _ -> None

  let is_smoke bench =
    let suf = "-smoke" and l = String.length bench in
    l >= 6 && String.sub bench (l - 6) 6 = suf

  let build ?(baseline = 5) ?(mad_k = 4.0) ?(min_rel = 0.10) ?(gate = 0.02)
      ?bench ~path ((records, skipped) : record list * int) : t =
    let records =
      match bench with
      | None -> records
      | Some b -> List.filter (fun r -> r.r_bench = b) records
    in
    (* latest attributed record; prefer full runs over -smoke *)
    let attributed =
      List.filter (fun r -> attribution_of r <> None) records
    in
    let pick =
      match List.rev (List.filter (fun r -> not (is_smoke r.r_bench)) attributed)
      with
      | r :: _ -> Some r
      | [] -> ( match List.rev attributed with r :: _ -> Some r | [] -> None)
    in
    {
      rp_path = path;
      rp_records = records;
      rp_skipped = skipped;
      rp_baseline = baseline;
      rp_gate = gate;
      rp_verdicts = check ~baseline ~mad_k ~min_rel records;
      rp_attribution = Option.bind pick attribution_of;
    }

  let regressions (t : t) = List.filter (fun v -> v.v_regressed) t.rp_verdicts

  let efficiency_ok (t : t) =
    match t.rp_attribution with
    | None -> true
    | Some a -> a.at_efficiency >= t.rp_gate

  let ok (t : t) = regressions t = [] && efficiency_ok t

  let time_str (epoch : float) : string =
    let tm = Unix.gmtime epoch in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min

  let dir_arrow = function Higher -> "^" | Lower -> "v" | Info -> "-"

  let render (t : t) : string =
    let b = Buffer.create 4096 in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf "run ledger %s: %d record(s), %d corrupt line(s) skipped\n" t.rp_path
      (List.length t.rp_records) t.rp_skipped;
    let benches = ref [] in
    List.iter
      (fun r ->
        if not (List.mem r.r_bench !benches) then
          benches := r.r_bench :: !benches)
      t.rp_records;
    List.iter
      (fun bench ->
        let runs =
          List.filter (fun r -> r.r_bench = bench) t.rp_records
        in
        pf "\n== %s (%d run(s)) ==\n" bench (List.length runs);
        let total = List.length runs in
        List.iteri
          (fun i r ->
            if total - i <= 8 then begin
              let gated =
                List.filter (fun m -> m.m_dir <> Info) r.r_metrics
                |> List.filteri (fun j _ -> j < 3)
              in
              pf "  %s %-9s %s%s\n" (time_str r.r_time) r.r_commit
                (String.concat "  "
                   (List.map
                      (fun m -> Printf.sprintf "%s=%.4g" m.m_name m.m_value)
                      gated))
                (if i = total - 1 then "   <- current" else "")
            end)
          runs;
        let verdicts =
          List.filter (fun v -> v.v_bench = bench) t.rp_verdicts
        in
        if verdicts <> [] then begin
          pf "  verdicts vs baseline (window %d, same host fingerprint):\n"
            t.rp_baseline;
          List.iter
            (fun v ->
              if v.v_n_baseline = 0 then
                pf "    %-34s %s  current %12.4g   (no comparable history)\n"
                  v.v_metric (dir_arrow v.v_dir) v.v_current
              else
                pf
                  "    %-34s %s  current %12.4g   baseline %12.4g +-%.4g \
                   (n=%d)   %s\n"
                  v.v_metric (dir_arrow v.v_dir) v.v_current v.v_baseline
                  v.v_noise v.v_n_baseline
                  (if v.v_regressed then "REGRESSED" else "ok"))
            verdicts
        end)
      (List.rev !benches);
    (match t.rp_attribution with
    | None -> ()
    | Some a ->
        pf "\nattribution — %s @ %s%s\n" a.at_bench a.at_commit
          (match a.at_dim with
          | Some d -> Printf.sprintf " (dim %d)" d
          | None -> "");
        pf "  measured            %10.3f GFLOPS\n" a.at_measured;
        pf "  model (analytical)  %10.3f GFLOPS   efficiency %.4f (gate %.4f: %s)\n"
          a.at_model a.at_efficiency t.rp_gate
          (if a.at_efficiency >= t.rp_gate then "ok" else "BELOW GATE");
        (match a.at_peak with
        | Some p -> pf "  model peak          %10.3f GFLOPS\n" p
        | None -> ());
        (match a.at_dram_mb with
        | Some d -> pf "  sim DRAM traffic    %10.1f MB predicted\n" d
        | None -> ());
        if a.at_phases <> [] then begin
          let tot =
            List.fold_left (fun acc (_, s) -> acc +. s) 0.0 a.at_phases
          in
          pf "  phase breakdown (traced serial run):\n";
          List.iter
            (fun (name, s) ->
              pf "    %-14s %9.4f s  %5.1f%%\n" name s
                (if tot > 0.0 then 100.0 *. s /. tot else 0.0))
            a.at_phases
        end);
    let regs = regressions t in
    pf "\n%s\n"
      (if regs = [] && efficiency_ok t then "report: ok"
       else
         Printf.sprintf "report: %d regression(s)%s" (List.length regs)
           (if efficiency_ok t then "" else ", efficiency below gate"));
    Buffer.contents b

  let verdict_json (v : verdict) : Json.t =
    Json.Obj
      [
        ("bench", Json.Str v.v_bench);
        ("metric", Json.Str v.v_metric);
        ("unit", Json.Str v.v_unit);
        ("dir", Json.Str (dir_to_string v.v_dir));
        ("current", Json.Num v.v_current);
        ("n_baseline", Json.Num (float_of_int v.v_n_baseline));
        ( "baseline",
          if Float.is_nan v.v_baseline then Json.Null else Json.Num v.v_baseline
        );
        ("noise", if Float.is_nan v.v_noise then Json.Null else Json.Num v.v_noise);
        ("regressed", Json.Bool v.v_regressed);
      ]

  let to_json (t : t) : string =
    let attribution =
      match t.rp_attribution with
      | None -> Json.Null
      | Some a ->
          Json.Obj
            ([
               ("bench", Json.Str a.at_bench);
               ("git_commit", Json.Str a.at_commit);
               ("time", Json.Num a.at_time);
             ]
            @ (match a.at_dim with
              | Some d -> [ ("dim", Json.Num (float_of_int d)) ]
              | None -> [])
            @ [
                ("measured_gflops", Json.Num a.at_measured);
                ("model_gflops", Json.Num a.at_model);
              ]
            @ (match a.at_peak with
              | Some p -> [ ("model_peak_gflops", Json.Num p) ]
              | None -> [])
            @ (match a.at_dram_mb with
              | Some d -> [ ("sim_dram_mb", Json.Num d) ]
              | None -> [])
            @ [
                ("efficiency", Json.Num a.at_efficiency);
                ("efficiency_ok", Json.Bool (efficiency_ok t));
                ( "phases",
                  Json.Arr
                    (List.map
                       (fun (name, s) ->
                         Json.Obj
                           [ ("name", Json.Str name); ("seconds", Json.Num s) ])
                       a.at_phases) );
              ])
    in
    Json.to_string
      (Json.Obj
         [
           ("schema_version", Json.Num (float_of_int schema_version));
           ( "ledger",
             Json.Obj
               [
                 ("path", Json.Str t.rp_path);
                 ("records", Json.Num (float_of_int (List.length t.rp_records)));
                 ("skipped", Json.Num (float_of_int t.rp_skipped));
               ] );
           ("baseline_window", Json.Num (float_of_int t.rp_baseline));
           ("efficiency_gate", Json.Num t.rp_gate);
           ("regressions", Json.Num (float_of_int (List.length (regressions t))));
           ("ok", Json.Bool (ok t));
           ("verdicts", Json.Arr (List.map verdict_json t.rp_verdicts));
           ("attribution", attribution);
         ])
end
