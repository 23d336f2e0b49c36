(* Static translation validation of the lowered execution tiers
   (Exo_check.Tierlint + Lint.run_tiers + the Registry integration):

   - every monomorphized table entry of every kit proves all three
     properties (bounds, write-set containment, accumulation shape), and
     the static verdict agrees with the dynamic integer certification
   - the sweep outcome is pool-width invariant
   - a registry table builds only from entries whose lowered summaries
     prove; reset_dispatch_counts zeroes the dispatch counters
   - deliberately broken lowerings (corrupted access summaries) are
     rejected, per property
   - qcheck oracle: the statically enumerated C write-set equals the
     dynamically observed changed-cell set of the interpreter
   - qcheck oracle: the closed-form bounds and write-set passes report
     exactly what the Effects region-algebra passes they replaced report,
     on random summaries and on every real table entry *)

module C = Exo_interp.Compile
module S = C.Summary
module T = Exo_check.Tierlint
module L = Exo_ukr_gen.Lint
module Kits = Exo_ukr_gen.Kits
module Family = Exo_ukr_gen.Family
module R = Exo_blis.Registry
module B = Exo_interp.Buffer
module I = Exo_interp.Interp
module Ir = Exo_ir.Ir
module Affine = Exo_ir.Affine
module Sym = Exo_ir.Sym
module Effects = Exo_check.Effects
module Bounds = Exo_check.Bounds

let summary_of ~kit ~mr ~nr =
  let proc = (R.exo_kernel ~kit ~mr ~nr ()).Family.proc in
  match C.summarize_ukr proc with
  | Some s -> s
  | None -> Alcotest.failf "summarize_ukr refused %s %dx%d" kit.Kits.name mr nr

(* --- the full sweep: 96 entries per kit, all proved, probe agreement --- *)

let test_run_tiers_all_kits () =
  let o = L.run_tiers () in
  Alcotest.(check int) "6 kits swept" 6 (List.length o.L.tier_kits);
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Fmt.str "%s: 96 entries" k.L.tk_kit)
        96 k.L.tk_total;
      Alcotest.(check int)
        (Fmt.str "%s: proved 96/96" k.L.tk_kit)
        96 k.L.tk_proved;
      Alcotest.(check int)
        (Fmt.str "%s: no static/dynamic disagreement" k.L.tk_kit)
        0 k.L.tk_disagreements)
    o.L.tier_kits;
  Alcotest.(check bool) "tiers_ok" true (L.tiers_ok o);
  Alcotest.(check int) "tiers_unproved 0" 0 (L.tiers_unproved o);
  (* every entry of every kit was probed and accepted *)
  List.iter
    (fun (e : L.tier_entry) ->
      if e.L.te_probe <> Some true then
        Alcotest.failf "%s %dx%d: unexpected probe verdict" e.L.te_kit
          e.L.te_mr e.L.te_nr)
    o.L.tier_entries

let test_run_tiers_jobs_invariant () =
  let o1 = L.run_tiers ~kits:[ Kits.neon_f32 ] ~jobs:1 ~mr:3 ~nr:4 () in
  let o3 = L.run_tiers ~kits:[ Kits.neon_f32 ] ~jobs:3 ~mr:3 ~nr:4 () in
  Alcotest.(check bool) "identical outcome at widths 1 and 3" true (o1 = o3);
  Alcotest.(check int) "12 entries" 12 (List.length o1.L.tier_entries)

let test_tiers_json_shape () =
  let o = L.run_tiers ~kits:[ Kits.neon_f32 ] ~jobs:1 ~mr:2 ~nr:2 () in
  let j = L.tiers_json ~meta:"{\"schema\":1}" o in
  List.iter
    (fun needle ->
      let ok =
        let nl = String.length needle and jl = String.length j in
        let rec go i = i + nl <= jl && (String.sub j i nl = needle || go (i + 1)) in
        go 0
      in
      if not ok then Alcotest.failf "tiers_json missing %S" needle)
    [
      "\"kit\": \"neon-f32\"";
      "\"unproved_entries\": 0";
      "\"probe_disagreements\": 0";
      "\"bounds\": \"proved\"";
      "\"accshape\": \"proved\"";
      "\"all_proved\": true";
      "\"meta\": {\"schema\":1}";
    ]

(* --- registry integration: certified tables and counter resets ---------- *)

let test_registry_table_proved () =
  let table = R.exo_table ~mr:8 ~nr:12 () in
  Alcotest.(check int) "96 entries" 96 (Array.length table.R.t_entries);
  Array.iter
    (fun (e : R.entry) ->
      let mr = e.R.e_mr and nr = e.R.e_nr in
      Alcotest.(check bool)
        (Fmt.str "%dx%d Bigarray or Native" mr nr)
        true
        (match e.R.e_tier with R.Bigarray | R.Native -> true);
      let s = C.summarize_ukr (R.exo_kernel ~mr ~nr ()).Exo_ukr_gen.Family.proc in
      Alcotest.(check bool)
        (Fmt.str "%dx%d summary proves" mr nr)
        true
        (Option.fold ~none:false ~some:(fun s -> T.proved (T.check s)) s))
    table.R.t_entries

let test_reset_dispatch_counts () =
  let table = R.exo_table ~mr:8 ~nr:12 () in
  let u = R.table_entry table ~mr:3 ~nr:5 in
  let ba n =
    Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (max 1 n)
  in
  let ac = ba (2 * 3) and bc = ba (2 * 5) and c = ba (5 * 3) in
  Bigarray.Array1.fill ac 1.0;
  Bigarray.Array1.fill bc 1.0;
  Bigarray.Array1.fill c 0.0;
  u ~kc:2 ~ac ~ao:0 ~bc ~bo:0 ~c ~co:0;
  let native, ba, _ = R.ukr_tier_counts () in
  Alcotest.(check bool) "a dispatch was counted" true (native + ba >= 1);
  R.reset_dispatch_counts ();
  Alcotest.(check (triple int int int))
    "reset_dispatch_counts zeroes every tier" (0, 0, 0)
    (R.ukr_tier_counts ())

(* --- negative tests: corrupted lowerings are rejected per property ------ *)

let map_ops f (s : S.t) =
  {
    s with
    S.segs =
      List.map
        (fun (g : S.seg) -> { g with S.ops = List.map (f ~in_loop:g.S.in_loop) g.S.ops })
        s.S.segs;
  }

let rec map_rhs f (r : S.rhs) =
  match f r with
  | Some r' -> r'
  | None -> (
      match r with
      | S.Bin (b, x, y) -> S.Bin (b, map_rhs f x, map_rhs f y)
      | S.Neg x -> S.Neg (map_rhs f x)
      | (S.Const _ | S.Read _) as r -> r)

let test_reject_write_outside_c () =
  (* redirect one C store into the A panel: the write-set proof (the race-
     freedom/aliasing property) must fail *)
  let s = summary_of ~kit:Kits.neon_f32 ~mr:8 ~nr:12 in
  let redirected = ref false in
  let s' =
    map_ops
      (fun ~in_loop:_ (o : S.op) ->
        if (not !redirected) && o.S.dst.S.sp = S.C then begin
          redirected := true;
          { o with S.dst = { o.S.dst with S.sp = S.A } }
        end
        else o)
      s
  in
  Alcotest.(check bool) "a C store was redirected" true !redirected;
  let r = T.check s' in
  Alcotest.(check bool) "writes rejected" false (T.ok r.T.r_writes);
  (* the original, uncorrupted summary still proves *)
  Alcotest.(check bool) "original proves" true (T.proved (T.check s))

let test_reject_out_of_loop_k_step () =
  (* a summary promises kstep = 0 outside the k loop; a straight-line C
     store that moves with k breaks that promise, and the write-set pass
     must name it rather than lean on an unbounded k *)
  let s = summary_of ~kit:Kits.neon_f32 ~mr:8 ~nr:12 in
  let stepped = ref None in
  let s' =
    map_ops
      (fun ~in_loop (o : S.op) ->
        if (not in_loop) && !stepped = None && o.S.dst.S.sp = S.C then begin
          stepped := Some o.S.dst.S.base;
          { o with S.dst = { o.S.dst with S.kstep = 1 } }
        end
        else o)
      s
  in
  let base =
    match !stepped with
    | Some b -> b
    | None -> Alcotest.fail "no straight-line C store to corrupt"
  in
  let r = T.check s' in
  Alcotest.(check bool) "writes rejected" false (T.ok r.T.r_writes);
  Alcotest.(check string) "named reason"
    (Fmt.str "UNPROVED (store C[%d+1·k] escapes the entry's tile)" base)
    (Fmt.to_to_string T.pp_verdict r.T.r_writes);
  Alcotest.(check bool) "bounds rejected too" false (T.ok r.T.r_bounds)

let test_reject_out_of_bounds_read () =
  (* shift every A read one row-block past the panel: base + mr + mr·k
     reaches kc·mr, outside the hoisted range check's contract *)
  let s = summary_of ~kit:Kits.neon_f32 ~mr:8 ~nr:12 in
  let s' =
    map_ops
      (fun ~in_loop:_ (o : S.op) ->
        {
          o with
          S.rhs =
            map_rhs
              (function
                | S.Read op when op.S.sp = S.A ->
                    Some (S.Read { op with S.base = op.S.base + s.S.mr })
                | _ -> None)
              o.S.rhs;
        })
      s
  in
  let r = T.check s' in
  Alcotest.(check bool) "bounds rejected" false (T.ok r.T.r_bounds)

let test_reject_wrong_accumulation () =
  (* turn the innermost multiply into an add: the tape no longer computes
     Σ A·B per C element *)
  let s = summary_of ~kit:Kits.neon_f32 ~mr:8 ~nr:12 in
  let s' =
    map_ops
      (fun ~in_loop:_ (o : S.op) ->
        {
          o with
          S.rhs =
            map_rhs
              (function
                | S.Bin (Ir.Mul, x, y) -> Some (S.Bin (Ir.Add, x, y))
                | _ -> None)
              o.S.rhs;
        })
      s
  in
  let r = T.check s' in
  Alcotest.(check bool) "accshape rejected" false (T.ok r.T.r_accshape)

let test_reject_kc_pos_contract () =
  (* a tape that presumes kc >= 1 cannot claim the kc = 0 table contract *)
  let s = summary_of ~kit:Kits.neon_f32 ~mr:4 ~nr:4 in
  let r = T.check { s with S.kc_pos = true } in
  Alcotest.(check bool) "kc_pos rejected" false (T.proved r)

(* --- qcheck oracle: static C write-set = dynamic touched-cell set ------- *)

let view data dims offset =
  let dims = Array.of_list dims in
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  { B.data; dtype = Exo_ir.Dtype.F32; dims; strides; offset }

(* Run the interpreter on strictly positive integer A/B panels: every C
   cell accumulating at least one A·B product strictly increases, so the
   changed-cell set observes exactly the cells the tape touches. *)
let dynamic_touched ~mr ~nr ~kc ~seed =
  let proc = (R.exo_kernel ~kit:Kits.neon_f32 ~mr ~nr ()).Family.proc in
  let st = Random.State.make [| seed; mr; nr; kc |] in
  let pos n = Array.init (max 1 n) (fun _ -> float_of_int (1 + Random.State.int st 5)) in
  let ac = pos (kc * mr) and bc = pos (kc * nr) in
  let c = Array.init (nr * mr) (fun _ -> float_of_int (Random.State.int st 9 - 4)) in
  let c0 = Array.copy c in
  let one = B.of_array Exo_ir.Dtype.F32 [ 1 ] [| 1.0 |] in
  I.run proc
    [
      I.VInt kc;
      I.VBuf one;
      I.VBuf (view ac [ kc; mr ] 0);
      I.VBuf (view bc [ kc; nr ] 0);
      I.VBuf one;
      I.VBuf (view c [ nr; mr ] 0);
    ];
  let touched = ref [] in
  for i = Array.length c - 1 downto 0 do
    if not (Int64.equal (Int64.bits_of_float c.(i)) (Int64.bits_of_float c0.(i)))
    then touched := i :: !touched
  done;
  !touched

let prop_write_set_oracle =
  QCheck2.Test.make ~name:"static C write-set = dynamic touched set" ~count:25
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 12) (int_range 0 6))
    (fun (mr, nr, kc) ->
      let s = summary_of ~kit:Kits.neon_f32 ~mr ~nr in
      let static = T.c_write_indices s ~kc in
      let dynamic = dynamic_touched ~mr ~nr ~kc ~seed:((mr * 131) + (nr * 17) + kc) in
      if kc = 0 then
        (* zero-depth call: C must be bit-unchanged, whatever stores the
           tape performs (they rewrite the original values) *)
        dynamic = []
      else static = dynamic)

(* --- oracle: the Effects region-algebra passes ------------------------- *)

(* The bounds and write-set passes as they were before Tierlint decided
   its affine fragment in closed form: every operand's address
   [base + kstep·k] is evaluated in the affine-interval domain of the
   Effects region algebra, with k ∈ [0, kc-1] and kc a symbolic size.
   Kept verbatim (reason strings included) as the oracle of the closed
   form. *)

let rec rhs_operands acc = function
  | S.Const _ -> acc
  | S.Read o -> o :: acc
  | S.Bin (_, a, b) -> rhs_operands (rhs_operands acc a) b
  | S.Neg a -> rhs_operands acc a

let iter_operands (s : S.t) f =
  List.iter
    (fun (sg : S.seg) ->
      List.iter
        (fun (op : S.op) ->
          f ~in_loop:sg.S.in_loop ~is_store:true op.S.dst;
          List.iter
            (f ~in_loop:sg.S.in_loop ~is_store:false)
            (rhs_operands [] op.S.rhs))
        sg.S.ops)
    s.S.segs

let loop_ctx () =
  let kc = Sym.fresh "kc" and k = Sym.fresh "k" in
  let kcv = Affine.var kc in
  ( kcv,
    Affine.var k,
    {
      Effects.sizes = Sym.Set.singleton kc;
      ranges =
        Sym.Map.singleton k
          { Bounds.lo = Some Affine.zero;
            hi = Some (Affine.sub kcv (Affine.const 1)) };
    } )

let oracle_bounds (s : S.t) : T.verdict =
  let kcv, kv, ctx_loop = loop_ctx () in
  let hi_excl = function
    | S.A -> Affine.scale s.S.mr kcv
    | S.B -> Affine.scale s.S.nr kcv
    | S.C -> Affine.const (s.S.mr * s.S.nr)
    | S.Slab -> Affine.const s.S.slab
  in
  let bad = ref None in
  let fail m = if !bad = None then bad := Some m in
  iter_operands s (fun ~in_loop ~is_store:_ (o : S.operand) ->
      let name = S.space_name o.S.sp in
      match o.S.sp with
      | (S.A | S.B) when not in_loop ->
          fail
            (Fmt.str "%s[%d] accessed outside the k loop (contract empty at kc=0)"
               name o.S.base)
      | _ when (not in_loop) && o.S.kstep <> 0 ->
          fail (Fmt.str "%s operand has a k step outside the k loop" name)
      | sp ->
          let ctx = if in_loop then ctx_loop else Effects.ctx_empty in
          let addr =
            Affine.add (Affine.const o.S.base) (Affine.scale o.S.kstep kv)
          in
          if not (Effects.in_range ctx addr ~lo:Affine.zero ~hi_excl:(hi_excl sp))
          then
            fail
              (Fmt.str "%s[%d%+d·k] not provably inside its contract" name
                 o.S.base o.S.kstep));
  match !bad with None -> T.Proved | Some m -> T.Unproved m

let oracle_writes (s : S.t) : T.verdict =
  let _, kv, ctx_loop = loop_ctx () in
  let bad = ref None in
  let fail m = if !bad = None then bad := Some m in
  iter_operands s (fun ~in_loop ~is_store (o : S.operand) ->
      if is_store then
        match o.S.sp with
        | S.A | S.B ->
            fail
              (Fmt.str "store into the shared %s panel" (S.space_name o.S.sp))
        | (S.C | S.Slab) as sp ->
            let hi =
              match sp with
              | S.C -> (s.S.mr * s.S.nr) - 1
              | _ -> s.S.slab - 1
            in
            let ctx = if in_loop then ctx_loop else Effects.ctx_empty in
            let addr =
              Affine.add (Affine.const o.S.base) (Affine.scale o.S.kstep kv)
            in
            let tile = [ Effects.DIv (Affine.zero, Affine.const hi) ] in
            if
              not
                (Effects.region_contains ctx ~outer:tile
                   ~inner:[ Effects.DPt addr ])
            then
              fail
                (Fmt.str "store %s[%d%+d·k] escapes the entry's tile"
                   (S.space_name sp) o.S.base o.S.kstep));
  match !bad with None -> T.Proved | Some m -> T.Unproved m

(* The report the oracle passes give; accumulation shape is not part of
   the closed form, so it is taken from [T.check] itself. *)
let oracle_report (s : S.t) : T.report =
  { (T.check s) with T.r_bounds = oracle_bounds s; r_writes = oracle_writes s }

let report_str = Fmt.to_to_string T.pp_report

(* Random summaries: mr, nr ∈ 1..16, slab ∈ 0..64, straight-line and loop
   segments, stores and reads of every space. A summary draws a fault
   weight, and each operand is then either well formed for its place (a
   store into C or the slab at kstep 0, a straight-line read of a constant
   C or slab cell, a loop read inside its contract) or free: base over
   [-2, 2·size] and step over [-2, mr+nr+2], where size = hc + h0 is its
   space's contract at kc = 1, half of them on the edges (kstep = hc or
   hc+1, base at the last element or one past it). So reports fail early,
   late, on either pass, or not at all. *)
let gen_summary : S.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* mr = int_range 1 16
  and* nr = int_range 1 16
  and* slab = int_range 0 64
  and* faults = oneofl [ 0; 2; 8; 32 ] in
  let hc_h0 = function
    | S.A -> (mr, 0)
    | S.B -> (nr, 0)
    | S.C -> (0, mr * nr)
    | S.Slab -> (0, slab)
  in
  let free =
    let* sp = oneofl [ S.A; S.B; S.C; S.Slab ] in
    let hc, h0 = hc_h0 sp in
    let size = hc + h0 in
    let* base, kstep =
      frequency
        [
          (1, pair (int_range (-2) (2 * size)) (int_range (-2) (mr + nr + 2)));
          ( 1,
            pair (oneofl [ size - 1; size; 0; -1 ]) (oneofl [ hc; hc + 1; 0; -1 ])
          );
        ]
    in
    return { S.sp; base; kstep }
  in
  let constant_cell =
    let* sp = if slab = 0 then return S.C else oneofl [ S.C; S.Slab ] in
    let _, h0 = hc_h0 sp in
    map (fun base -> { S.sp; base; kstep = 0 }) (int_range 0 (h0 - 1))
  in
  let loop_read =
    let* sp = oneofl [ S.A; S.B; S.C; S.Slab ] in
    let hc, h0 = hc_h0 sp in
    if hc + h0 = 0 then constant_cell
    else
      map2
        (fun base kstep -> { S.sp; base; kstep })
        (int_range 0 (hc + h0 - 1))
        (int_range 0 hc)
  in
  let operand ~in_loop ~store =
    let sound =
      if store || not in_loop then constant_cell else loop_read
    in
    frequency [ (64, sound); (faults, free) ]
  in
  let rhs ~in_loop =
    let read = map (fun o -> S.Read o) (operand ~in_loop ~store:false) in
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           if n = 0 then
             frequency
               [ (1, map (fun f -> S.Const f) (oneofl [ 0.0; 1.0 ])); (4, read) ]
           else
             frequency
               [
                 (1, read);
                 ( 2,
                   map3
                     (fun b x y -> S.Bin (b, x, y))
                     (oneofl [ Ir.Add; Ir.Mul ])
                     (self (n - 1)) (self (n - 1)) );
                 (1, map (fun x -> S.Neg x) (self (n - 1)));
               ])
  in
  let seg =
    let* in_loop = bool in
    let op =
      let* dst = operand ~in_loop ~store:true
      and* reduce = bool
      and* rhs = rhs ~in_loop in
      return { S.dst; reduce; rhs }
    in
    map (fun ops -> { S.in_loop; ops }) (list_size (int_range 1 4) op)
  in
  let* segs = list_size (int_range 1 3) seg in
  return
    { S.mr; nr; dt = Exo_ir.Dtype.F32; slab; kc_pos = false; n_preds = 0; segs }

let print_summary (s : S.t) =
  let opnd (o : S.operand) =
    Fmt.str "%s[%d%+d·k]" (S.space_name o.S.sp) o.S.base o.S.kstep
  in
  let rec rhs = function
    | S.Const f -> Fmt.str "%g" f
    | S.Read o -> opnd o
    | S.Bin (Ir.Mul, x, y) -> Fmt.str "(%s * %s)" (rhs x) (rhs y)
    | S.Bin (_, x, y) -> Fmt.str "(%s + %s)" (rhs x) (rhs y)
    | S.Neg x -> Fmt.str "-%s" (rhs x)
  in
  Fmt.str "mr=%d nr=%d slab=%d\n%s" s.S.mr s.S.nr s.S.slab
    (String.concat "\n"
       (List.map
          (fun (g : S.seg) ->
            Fmt.str "%s: %s"
              (if g.S.in_loop then "loop" else "flat")
              (String.concat "; "
                 (List.map
                    (fun (o : S.op) ->
                      Fmt.str "%s %s %s" (opnd o.S.dst)
                        (if o.S.reduce then "+=" else "=")
                        (rhs o.S.rhs))
                    g.S.ops)))
          s.S.segs))

let prop_closed_form_oracle =
  QCheck2.Test.make ~name:"closed form ≡ Effects passes on random summaries"
    ~count:3000 ~print:print_summary gen_summary (fun s ->
      let got = report_str (T.check s) and want = report_str (oracle_report s) in
      if got = want then true
      else QCheck2.Test.fail_reportf "closed form %s@.oracle      %s" got want)

let test_closed_form_real_entries () =
  let n = ref 0 in
  List.iter
    (fun kit ->
      for mr = 1 to 8 do
        for nr = 1 to 12 do
          let s = summary_of ~kit ~mr ~nr in
          incr n;
          let got = T.check s and want = oracle_report s in
          if got <> want then
            Alcotest.failf "%s %dx%d: closed form %s, oracle %s" kit.Kits.name
              mr nr (report_str got) (report_str want)
        done
      done)
    Kits.all;
  Alcotest.(check int) "every entry of every kit" 576 !n

let () =
  Alcotest.run "tierlint"
    [
      ( "sweep",
        [
          Alcotest.test_case "all kits, 96/96 proved, probes agree" `Quick
            test_run_tiers_all_kits;
          Alcotest.test_case "pool-width invariant" `Quick
            test_run_tiers_jobs_invariant;
          Alcotest.test_case "verdict JSON shape" `Quick test_tiers_json_shape;
        ] );
      ( "registry",
        [
          Alcotest.test_case "table fully certified" `Quick
            test_registry_table_proved;
          Alcotest.test_case "reset_dispatch_counts" `Quick
            test_reset_dispatch_counts;
        ] );
      ( "negative",
        [
          Alcotest.test_case "write outside C rejected" `Quick
            test_reject_write_outside_c;
          Alcotest.test_case "out-of-loop k step on a C store rejected" `Quick
            test_reject_out_of_loop_k_step;
          Alcotest.test_case "out-of-bounds read rejected" `Quick
            test_reject_out_of_bounds_read;
          Alcotest.test_case "wrong accumulation rejected" `Quick
            test_reject_wrong_accumulation;
          Alcotest.test_case "kc-positive contract rejected" `Quick
            test_reject_kc_pos_contract;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_write_set_oracle;
          QCheck_alcotest.to_alcotest prop_closed_form_oracle;
          Alcotest.test_case "closed form ≡ Effects passes on all 576 entries"
            `Quick test_closed_form_real_entries;
        ] );
    ]
