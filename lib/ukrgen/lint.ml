(** Static lint sweep over the generated kernel family. See the interface
    for the rule catalogue and the Fig. 12 pin. *)

module V = Exo_check.Vlint
module M = Exo_isa.Memories

(* The pressure bound comes from the kit's own ISA descriptor (not from a
   Memories lookup and not from hardcoded Carmel numbers) — the kit is the
   single retargeting point, so a new ISA only fills in its record. *)
let target_of_kit (kit : Kits.t) : V.target =
  { V.is_vector_mem = M.is_register_mem; max_vregs = kit.Kits.vregs }

let expected_census (kit : Kits.t) (style : Family.style) ~(mr : int)
    ~(nr : int) : V.census option =
  let l = kit.Kits.lanes in
  let z = V.census_zero in
  match style with
  | Family.Packed ->
      (* per k iteration: one vld per A subtile and per B subtile, one
         lane-indexed fma per (A subtile, j) — Fig. 12's 5 ld + 24 fma *)
      Some { z with V.loads = (mr / l) + (nr / l); fmas = mr / l * nr }
  | Family.PackedBcast ->
      (* A vectorized only; B feeds a scalar-FMA form when the kit has one,
         otherwise each of the nr elements is broadcast to a register *)
      Some
        {
          z with
          V.loads = mr / l;
          fmas = mr / l * nr;
          bcasts = (if Option.is_none kit.Kits.fma_scalar_r then nr else 0);
        }
  | Family.Row ->
      (* j vectorized; the single A element is the scalar factor. On kits
         without a scalar-FMA form it is broadcast to a register — the
         broadcast sits inside the unrolled jt loop, so once per subtile *)
      Some
        {
          z with
          V.loads = nr / l;
          fmas = nr / l;
          bcasts = (if Option.is_none kit.Kits.fma_scalar then nr / l else 0);
        }
  | Family.Scalar -> None

let expect_of (kit : Kits.t) (style : Family.style) ~(mr : int) ~(nr : int) :
    V.expect =
  {
    V.vectorized = style <> Family.Scalar;
    census = expected_census kit style ~mr ~nr;
    writable = [ "C" ];
  }

type entry = { kit_name : string; label : string; report : V.report }

type outcome = {
  entries : entry list;
  skipped : (string * string) list;
}

(** The variants are not census-pinned (their steady states differ per
    schedule) but must satisfy every other rule. *)
let variant_expect : V.expect =
  { V.vectorized = true; census = None; writable = [ "C" ] }

let variants_of (kit : Kits.t) =
  [
    ("packed_full", fun () -> Variants.packed_full ~kit ~mr:8 ~nr:12 ());
    ("packed_beta0", fun () -> Variants.packed_beta0 ~kit ~mr:8 ~nr:12 ());
    ("nopack", fun () -> Variants.nopack ~kit ~mr:8 ~nr:12 ());
  ]

(* One lint unit: a kernel (or variant) to generate and check. Units are
   independent, so the sweep runs them on an {!Exo_par.Pool}; each yields
   an entry or a skip, and the flat work-list order reproduces the original
   nested-loop order exactly, for every pool width. *)
type unit_result = Entry of entry | Skip of string * string

let shape_unit (kit : Kits.t) t (mr, nr) () : unit_result =
  match Family.generate ~kit ~mr ~nr () with
  | k ->
      let label = Fmt.str "%dx%d %s" mr nr (Family.style_name k.Family.style) in
      let expect = expect_of kit k.Family.style ~mr ~nr in
      Entry
        { kit_name = kit.Kits.name; label; report = V.check t expect k.Family.proc }
  | exception Exo_sched.Sched.Sched_error m ->
      (* generation itself failed its certificate: a lint failure, not a
         capability skip *)
      Entry
        {
          kit_name = kit.Kits.name;
          label = Fmt.str "%dx%d" mr nr;
          report =
            {
              V.proc_name = Fmt.str "uk_%dx%d_%s" mr nr kit.Kits.name;
              vregs = 0;
              signature = "";
              findings = [ { V.rule = "generate"; detail = m } ];
            };
        }

let variant_unit (kit : Kits.t) t (vname, gen) () : unit_result =
  let label = Fmt.str "%s 8x12" vname in
  match gen () with
  | p ->
      Entry
        { kit_name = kit.Kits.name; label; report = V.check t variant_expect p }
  | exception Invalid_argument m -> Skip (Fmt.str "%s %s" kit.Kits.name label, m)
  | exception Exo_sched.Sched.Sched_error m ->
      Skip (Fmt.str "%s %s" kit.Kits.name label, m)

let run ?(kits = Kits.all) ?jobs () : outcome =
  let module Obs = Exo_obs.Obs in
  let work =
    List.concat_map
      (fun (kit : Kits.t) ->
        let t = target_of_kit kit in
        List.map
          (fun (mr, nr) ->
            (Fmt.str "%s %dx%d" kit.Kits.name mr nr, shape_unit kit t (mr, nr)))
          Family.paper_shapes
        @ List.map
            (fun (vname, gen) ->
              (Fmt.str "%s %s" kit.Kits.name vname, variant_unit kit t (vname, gen)))
            (variants_of kit))
      kits
  in
  let pool = Exo_par.Pool.create ?jobs () in
  let results =
    Obs.with_span "lint.run" (fun () ->
        Exo_par.Pool.map pool
          (fun (label, job) ->
            let sp =
              if Obs.enabled () then
                Obs.begin_span ~args:[ ("unit", label) ] "lint.unit"
              else Obs.none
            in
            Fun.protect ~finally:(fun () -> Obs.end_span sp) job)
          work)
  in
  {
    entries = List.filter_map (function Entry e -> Some e | Skip _ -> None) results;
    skipped =
      List.filter_map (function Skip (l, m) -> Some (l, m) | Entry _ -> None) results;
  }

let failures (o : outcome) =
  List.length (List.filter (fun e -> not (V.ok e.report)) o.entries)

let all_ok (o : outcome) = o.entries <> [] && failures o = 0

let pp_entry ppf (e : entry) =
  let r = e.report in
  if V.ok r then
    Fmt.pf ppf "ok   %-10s %-20s %-24s %2d vregs  %s" e.kit_name e.label
      r.V.proc_name r.V.vregs r.V.signature
  else
    Fmt.pf ppf "@[<v>FAIL %-10s %-20s %a@]" e.kit_name e.label V.pp_report r

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "@[<v>%a@,%d kernel(s) linted, %d failure(s), %d combination(s) skipped@]"
    (Fmt.list pp_entry) o.entries
    (List.length o.entries) (failures o) (List.length o.skipped)

(* ------------------------------------------------------------------ *)
(* The --tiers sweep: translation validation of the lowered execution  *)
(* tiers over a whole monomorphized (mr' × nr') kernel table           *)

module T = Exo_check.Tierlint
module C = Exo_interp.Compile

type tier_entry = {
  te_kit : string;
  te_mr : int;
  te_nr : int;
  te_report : T.report;
  te_probe : bool option;
}

type tier_kit_summary = {
  tk_kit : string;
  tk_total : int;
  tk_proved : int;
  tk_disagreements : int;
}

type tiers_outcome = {
  tier_entries : tier_entry list;
  tier_kits : tier_kit_summary list;
}

let tier_unit (kit : Kits.t) (mr', nr') () : tier_entry =
  let proc = (Family.generate ~kit ~mr:mr' ~nr:nr' ()).Family.proc in
  let report =
    match C.summarize_ukr proc with
    | Some s -> T.check s
    | None ->
        let u = T.Unproved "tape lowering refused the proc" in
        { T.r_mr = mr'; r_nr = nr'; r_bounds = u; r_writes = u; r_accshape = u }
  in
  (* the dynamic integer certification, for the static-vs-dynamic
     cross-check *)
  let probe = Some (C.probe_ukr_ba proc ~mr:mr' ~nr:nr') in
  {
    te_kit = kit.Kits.name;
    te_mr = mr';
    te_nr = nr';
    te_report = report;
    te_probe = probe;
  }

let run_tiers ?(kits = Kits.all) ?jobs ?(mr = 8) ?(nr = 12) () : tiers_outcome =
  let module Obs = Exo_obs.Obs in
  let work =
    List.concat_map
      (fun (kit : Kits.t) ->
        List.concat_map
          (fun mr' ->
            List.map
              (fun nr' ->
                ( Fmt.str "%s %dx%d" kit.Kits.name mr' nr',
                  tier_unit kit (mr', nr') ))
              (List.init nr (fun j -> j + 1)))
          (List.init mr (fun i -> i + 1)))
      kits
  in
  let pool = Exo_par.Pool.create ?jobs () in
  let entries =
    Obs.with_span "lint.tiers" (fun () ->
        Exo_par.Pool.map pool
          (fun (label, job) ->
            let sp =
              if Obs.enabled () then
                Obs.begin_span ~args:[ ("unit", label) ] "lint.tier_unit"
              else Obs.none
            in
            Fun.protect ~finally:(fun () -> Obs.end_span sp) job)
          work)
  in
  let tier_kits =
    List.map
      (fun (kit : Kits.t) ->
        let es =
          List.filter (fun e -> String.equal e.te_kit kit.Kits.name) entries
        in
        {
          tk_kit = kit.Kits.name;
          tk_total = List.length es;
          tk_proved =
            List.length (List.filter (fun e -> T.proved e.te_report) es);
          tk_disagreements =
            List.length
              (List.filter
                 (fun e -> T.proved e.te_report && e.te_probe = Some false)
                 es);
        })
      kits
  in
  { tier_entries = entries; tier_kits }

let tiers_unproved (o : tiers_outcome) =
  List.fold_left (fun n k -> n + (k.tk_total - k.tk_proved)) 0 o.tier_kits

let tiers_ok (o : tiers_outcome) =
  o.tier_entries <> []
  && List.for_all
       (fun k -> k.tk_proved = k.tk_total && k.tk_disagreements = 0)
       o.tier_kits

let pp_tier_entry ppf (e : tier_entry) =
  Fmt.pf ppf "%-12s %a%s" e.te_kit T.pp_report e.te_report
    (match e.te_probe with
    | Some true -> "  [probe ok]"
    | Some false -> "  [probe REJECTED]"
    | None -> "")

let pp_tiers ppf (o : tiers_outcome) =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun e ->
      if (not (T.proved e.te_report)) || e.te_probe = Some false then
        Fmt.pf ppf "FAIL %a@," pp_tier_entry e)
    o.tier_entries;
  List.iter
    (fun k ->
      Fmt.pf ppf
        "%s: proved %d/%d, unproved_entries %d, probe_disagreements %d@,"
        k.tk_kit k.tk_proved k.tk_total (k.tk_total - k.tk_proved)
        k.tk_disagreements)
    o.tier_kits;
  Fmt.pf ppf "%d entr%s validated across %d kit%s@]"
    (List.length o.tier_entries)
    (if List.length o.tier_entries = 1 then "y" else "ies")
    (List.length o.tier_kits)
    (if List.length o.tier_kits = 1 then "" else "s")

(* Minimal JSON escaping: UTF-8 passes through; quotes, backslashes and
   control characters are escaped (OCaml's %S would emit decimal escapes
   JSON does not accept). *)
let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let tiers_json ~(meta : string) (o : tiers_outcome) : string =
  let verdict = function
    | T.Proved -> "\"proved\""
    | T.Unproved m -> Fmt.str "{\"unproved\": %s}" (json_str m)
  in
  let entry (e : tier_entry) =
    Fmt.str
      "    {\"kit\": %s, \"mr\": %d, \"nr\": %d, \"bounds\": %s, \"writes\": \
       %s, \"accshape\": %s, \"probe\": %s}"
      (json_str e.te_kit) e.te_mr e.te_nr
      (verdict e.te_report.T.r_bounds)
      (verdict e.te_report.T.r_writes)
      (verdict e.te_report.T.r_accshape)
      (match e.te_probe with
      | Some true -> "true"
      | Some false -> "false"
      | None -> "null")
  in
  let kitline (k : tier_kit_summary) =
    Fmt.str
      "    {\"kit\": %s, \"proved\": %d, \"total\": %d, \"unproved_entries\": \
       %d, \"probe_disagreements\": %d}"
      (json_str k.tk_kit) k.tk_proved k.tk_total (k.tk_total - k.tk_proved)
      k.tk_disagreements
  in
  (* [meta] is a run-ledger record from the caller (the one writer of the
     identity fields every BENCH_*.json carries) — this library sits below
     the ledger *)
  Fmt.str "{\n  \"meta\": %s,\n  \"kits\": [\n%s\n  ],\n  \"entries\": [\n%s\n  ],\n  \
           \"all_proved\": %b\n}\n"
    meta
    (String.concat ",\n" (List.map kitline o.tier_kits))
    (String.concat ",\n" (List.map entry o.tier_entries))
    (tiers_ok o)
