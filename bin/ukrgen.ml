(* ukrgen — the micro-kernel generator CLI (the OCaml counterpart of the
   paper's EXO_ukr_generator scripts).

   Subcommands:
     generate   one kernel: print the Exo-style IR (optionally every
                Section III step) and/or emit C
     family     the paper's whole kernel family as a C compilation unit
     solo       solo-mode modeled GFLOPS for a kernel shape (Fig. 13 rows)
     gemm       full-GEMM comparison of the four setups on one problem
     verify     check a generated kernel against the reference interpreter
     lint       static Fig. 12 lint of the whole family, no simulation
     run        execute a DNN workload's GEMMs through the batched
                arena-packed macro-kernel (optionally validated)
     native     emit (and compile, when a host cc exists) one kernel
                bank's native-ABI C — the CI artifact
     cache      persistent-store maintenance (gc --max-bytes)
     serve      long-lived kernel-compilation daemon over a Unix socket
     client     one line-protocol request against a running daemon
     report     render the run ledger: trajectory, regression gate,
                measured-vs-model attribution *)

open Cmdliner
module Family = Exo_ukr_gen.Family
module Kits = Exo_ukr_gen.Kits
module Steps = Exo_ukr_gen.Steps
module KM = Exo_sim.Kernel_model
module D = Exo_blis.Driver
module Obs = Exo_obs.Obs
module Serve = Exo_serve.Serve
module Ledger = Exo_ledger.Ledger

let machine = Exo_isa.Machine.carmel

(* --- common arguments -------------------------------------------------- *)

let kit_conv =
  let parse s =
    match Kits.by_name s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
             (Fmt.str "unknown kit %S (known: %s)" s
                (String.concat ", " (List.map (fun k -> k.Kits.name) Kits.all))))
  in
  Arg.conv (parse, fun ppf k -> Fmt.string ppf k.Kits.name)

let kit =
  Arg.(value & opt kit_conv Kits.neon_f32 & info [ "kit" ] ~docv:"KIT"
         ~doc:
           ("Target instruction kit: "
           ^ String.concat ", " (List.map (fun k -> k.Kits.name) Kits.all)
           ^ "."))

let mr = Arg.(value & opt int 8 & info [ "mr" ] ~docv:"MR" ~doc:"Kernel rows.")
let nr = Arg.(value & opt int 12 & info [ "nr" ] ~docv:"NR" ~doc:"Kernel columns.")
let kc = Arg.(value & opt int 512 & info [ "kc" ] ~docv:"KC" ~doc:"Depth of the k loop.")

let out_file =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the emitted C to $(docv) instead of stdout.")

let write_out out s =
  match out with
  | None -> print_string s
  | Some path ->
      let oc = open_out path in
      output_string oc s;
      close_out oc;
      Fmt.pr "wrote %s@." path

let kernel_prov_json (k : Family.kernel) : string =
  Obs.Provenance.to_json ~kernel:k.Family.proc.Exo_ir.Ir.p_name
    ~kit:k.Family.kit.Kits.name
    ~style:(Family.style_name k.Family.style)
    ~declared_steps:(Family.declared_steps k.Family.kit k.Family.style)
    k.Family.provenance

(* [--cache DIR] plumbing: arm the ambient persistent store before the
   command body runs. Without the flag the store comes from
   UKRGEN_CACHE_DIR (unset: caching off), so plain runs never write
   outside the working tree uninvited. *)
let cache_dir =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Persist and reuse certified-kernel and tuner artifacts under \
               the content-addressed store at $(docv) (overrides \
               $(b,UKRGEN_CACHE_DIR)).")

let set_cache = function
  | None -> ()
  | Some dir -> Exo_cache.Store.set_ambient (Some dir)

(* [--trace FILE] plumbing shared by [lint] and [tune]: enable tracing for
   the run, then drain the merged buffers into a Chrome trace-event file *)
let trace_file =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a Chrome trace-event JSON of this run to $(docv) \
               (open in Perfetto or chrome://tracing).")

let trace_begin = function
  | None -> ()
  | Some _ ->
      Obs.reset ();
      Obs.enable ()

let trace_end = function
  | None -> ()
  | Some f ->
      Obs.disable ();
      write_out (Some f) (Obs.Export.chrome_json (Obs.drain ()))

(* --- generate ----------------------------------------------------------- *)

let generate_cmd =
  let steps =
    Arg.(value & flag & info [ "steps" ] ~doc:"Print every Section III scheduling step.")
  in
  let emit_c =
    Arg.(value & flag & info [ "c" ] ~doc:"Emit the kernel as C (with a header comment).")
  in
  let prov_file =
    Arg.(value & opt (some string) None & info [ "provenance" ] ~docv:"FILE"
           ~doc:"Write the kernel's provenance sidecar (the schedule that \
                 made it, as JSON) to $(docv). With $(b,-c -o) $(i,OUT.c) a \
                 sidecar $(i,OUT.prov.json) is written by default.")
  in
  let run cache kit mr nr steps emit_c out prov =
    set_cache cache;
    (try
       if steps then
         if Family.pick_style kit ~mr ~nr = Family.Packed then
           List.iteri
             (fun i (s : Steps.step) ->
               Fmt.pr "--- step %d: %s%s ---@.%a@.@." i s.Steps.title
                 (match s.Steps.figure with Some f -> " (" ^ f ^ ")" | None -> "")
                 Exo_ir.Pp.pp_proc s.Steps.proc)
             (Steps.packed ~kit ~mr ~nr)
         else
           Fmt.pr "(--steps shows the packed schedule; %dx%d uses the %s schedule)@.@."
             mr nr
             (Family.style_name (Family.pick_style kit ~mr ~nr));
       let k = Family.generate ~kit ~mr ~nr () in
       if emit_c then
         write_out out
           (Exo_codegen.C_emit.compilation_unit
              ~header_comment:
                (String.concat "\n"
                   (Fmt.str "%dx%d %s micro-kernel generated by ukrgen" mr nr
                      kit.Kits.name
                   :: Obs.Provenance.header_lines k.Family.provenance))
              [ k.Family.proc ])
       else Fmt.pr "%a@." Exo_ir.Pp.pp_proc k.Family.proc;
       (* every emitted C file ships a machine-readable sidecar *)
       let sidecar =
         match prov with
         | Some f -> Some f
         | None when emit_c ->
             Option.map (fun p -> Filename.remove_extension p ^ ".prov.json") out
         | None -> None
       in
       (match sidecar with
       | Some f -> write_out (Some f) (kernel_prov_json k)
       | None -> ());
       `Ok ()
     with
    | Exo_sched.Sched.Sched_error m | Invalid_argument m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate one micro-kernel.")
    Term.(
      ret
        (const run $ cache_dir $ kit $ mr $ nr $ steps $ emit_c $ out_file
       $ prov_file))

(* --- family ------------------------------------------------------------- *)

let family_cmd =
  let run kit out =
    let fam = Family.paper_family ~kit () in
    let procs = List.map (fun (k : Family.kernel) -> k.Family.proc) fam in
    write_out out
      (Exo_codegen.C_emit.compilation_unit
         ~header_comment:
           (Fmt.str "micro-kernel family (%s): %s" kit.Kits.name
              (String.concat ", "
                 (List.map (fun (m, n) -> Fmt.str "%dx%d" m n) Family.paper_shapes)))
         procs);
    (* one combined sidecar (a JSON array, one object per kernel) next to
       the emitted C *)
    (match out with
    | Some path ->
        write_out
          (Some (Filename.remove_extension path ^ ".prov.json"))
          ("[\n" ^ String.concat ",\n" (List.map kernel_prov_json fam) ^ "]\n")
    | None -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "family" ~doc:"Emit the paper's whole kernel family as one C file.")
    Term.(ret (const run $ kit $ out_file))

(* --- solo --------------------------------------------------------------- *)

let solo_cmd =
  let run mr nr kc =
    try
      let base = Exo_blis.Registry.base_8x12 () in
      let exo = Exo_blis.Registry.exo_impl ~mr ~nr () in
      let blis = KM.blis_asm_8x12 base and neon = KM.neon_intrinsics_8x12 base in
      Fmt.pr "solo mode, %dx%d tiles at kc = %d on %s:@." mr nr kc machine.Exo_isa.Machine.name;
      Fmt.pr "  NEON (monolithic 8x12 intrinsics): %6.2f GFLOPS@."
        (KM.solo_gflops machine neon ~mu:mr ~nu:nr ~kc);
      Fmt.pr "  BLIS (monolithic 8x12 assembly)  : %6.2f GFLOPS@."
        (KM.solo_gflops machine blis ~mu:mr ~nu:nr ~kc);
      Fmt.pr "  EXO  (specialized %dx%d)          : %6.2f GFLOPS@." mr nr
        (KM.solo_gflops machine exo ~mu:mr ~nu:nr ~kc);
      `Ok ()
    with Invalid_argument m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "solo" ~doc:"Model solo-mode GFLOPS for a kernel shape (Fig. 13).")
    Term.(ret (const run $ mr $ nr $ kc))

(* --- gemm --------------------------------------------------------------- *)

let gemm_cmd =
  let m = Arg.(required & pos 0 (some int) None & info [] ~docv:"M") in
  let n = Arg.(required & pos 1 (some int) None & info [] ~docv:"N") in
  let k = Arg.(required & pos 2 (some int) None & info [] ~docv:"K") in
  let run m n k =
    Fmt.pr "C += A*B with (m, n, k) = (%d, %d, %d) on %s:@." m n k
      machine.Exo_isa.Machine.name;
    List.iter
      (fun s ->
        Fmt.pr "  %10s : %6.2f GFLOPS (kernel %s)@." (D.name_of s)
          (D.gflops machine s ~m ~n ~k)
          (D.selected_kernel machine s ~m ~n ~k))
      (D.all_setups ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "gemm" ~doc:"Compare the four GEMM setups on one problem size.")
    Term.(ret (const run $ m $ n $ k))

(* --- verify ------------------------------------------------------------- *)

let verify_cmd =
  let run kit mr nr kc =
    try
      let k = Family.generate ~kit ~mr ~nr () in
      let module B = Exo_interp.Buffer in
      let module I = Exo_interp.Interp in
      let dt = kit.Kits.dt in
      let st = Random.State.make [| mr; nr; kc |] in
      let mk dims =
        let b = B.create ~init:0.0 dt dims in
        B.fill b (fun _ -> float_of_int (Random.State.int st 9 - 4));
        b
      in
      let ac = mk [ kc; mr ] and bc = mk [ kc; nr ] and c1 = mk [ nr; mr ] in
      let c2 = B.copy c1 in
      let one = B.of_array dt [ 1 ] [| 1.0 |] in
      I.run
        (Exo_ukr_gen.Source.ukernel_ref_simple ~dt ())
        [ I.VInt mr; I.VInt nr; I.VInt kc; I.VBuf one; I.VBuf ac; I.VBuf bc; I.VBuf one; I.VBuf c1 ];
      I.run k.Family.proc [ I.VInt kc; I.VBuf one; I.VBuf ac; I.VBuf bc; I.VBuf one; I.VBuf c2 ];
      if B.equal c1 c2 then begin
        Fmt.pr "%dx%d (%s, %s schedule): bit-exact against the reference@." mr nr
          kit.Kits.name
          (Family.style_name k.Family.style);
        `Ok ()
      end
      else `Error (false, "MISMATCH against the reference semantics")
    with Exo_sched.Sched.Sched_error m | Invalid_argument m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check a generated kernel against the reference interpreter.")
    Term.(ret (const run $ kit $ mr $ nr $ Arg.(value & opt int 16 & info [ "kc" ])))

(* --- variants ------------------------------------------------------------ *)

let variants_cmd =
  let which =
    Arg.(
      value
      & opt (enum [ ("full", `Full); ("beta0", `Beta0); ("nopack", `Nopack) ]) `Beta0
      & info [ "which" ] ~docv:"VARIANT"
          ~doc:"Kernel variant: full (any alpha/beta), beta0 (C = A*B), nopack \
                (A unpacked).")
  in
  let emit_c = Arg.(value & flag & info [ "c" ] ~doc:"Emit as C.") in
  let run kit mr nr which emit_c out =
    try
      let p =
        match which with
        | `Full -> Exo_ukr_gen.Variants.packed_full ~kit ~mr ~nr ()
        | `Beta0 -> Exo_ukr_gen.Variants.packed_beta0 ~kit ~mr ~nr ()
        | `Nopack -> Exo_ukr_gen.Variants.nopack ~kit ~mr ~nr ()
      in
      if emit_c then write_out out (Exo_codegen.C_emit.compilation_unit [ p ])
      else Fmt.pr "%a@." Exo_ir.Pp.pp_proc p;
      `Ok ()
    with Exo_sched.Sched.Sched_error m | Invalid_argument m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "variants"
       ~doc:"Generate a kernel variant: full alpha/beta (Fig. 4), beta = 0, or \
             non-packed A (Section III-B).")
    Term.(ret (const run $ kit $ mr $ nr $ which $ emit_c $ out_file))

(* --- lint --------------------------------------------------------------- *)

let jobs =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Domains to sweep on (default: $(b,EXO_JOBS) or the core count). \
               The output is byte-identical for every $(docv).")

(* [lint --tiers] failures exit with their own code, distinct from the
   generic CLI error (123) and cmdliner's usage errors (124): CI and
   scripts can tell "an execution-tier proof failed" from "the command
   line was wrong". *)
let tiers_fail_exit = 3

let lint_cmd =
  let all =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Sweep every kit (default: only the kit given by $(b,--kit)).")
  in
  let tiers =
    Arg.(value & flag & info [ "tiers" ]
           ~doc:"Validate the lowered execution tiers instead of the kernel \
                 family: for every monomorphized (mr' × nr') table entry, \
                 prove bounds, write-set containment and accumulation shape \
                 of the lowered tape, and cross-check the static verdict \
                 against the dynamic integer certification. Exits $(b,3) on \
                 any unproved entry or static/dynamic disagreement.")
  in
  let json_file =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"With $(b,--tiers): write the per-entry verdict document \
                 (JSON) to $(docv).")
  in
  let selftest_fail =
    Arg.(value & flag & info [ "selftest-fail" ]
           ~doc:"With $(b,--tiers): skip the sweep and report one synthetic \
                 unproved entry — pins the failure exit code without a \
                 deliberately broken build.")
  in
  let table_mr =
    Arg.(value & opt int 8 & info [ "table-mr" ] ~docv:"MR"
           ~doc:"With $(b,--tiers): validate tables of $(docv) × table-nr \
                 entries (default the paper's 8 × 12 = 96).")
  in
  let table_nr =
    Arg.(value & opt int 12 & info [ "table-nr" ] ~docv:"NR"
           ~doc:"With $(b,--tiers): see $(b,--table-mr).")
  in
  let run cache kit all jobs trace tiers json selftest tmr tnr =
    set_cache cache;
    let module L = Exo_ukr_gen.Lint in
    let kits = if all then Kits.all else [ kit ] in
    if tiers then begin
      let o =
        if selftest then
          let module T = Exo_check.Tierlint in
          let u = T.Unproved "selftest: injected failure" in
          {
            L.tier_entries =
              [
                {
                  L.te_kit = kit.Kits.name;
                  te_mr = 0;
                  te_nr = 0;
                  te_report =
                    { T.r_mr = 0; r_nr = 0; r_bounds = u; r_writes = u; r_accshape = u };
                  te_probe = None;
                };
              ];
            tier_kits =
              [
                {
                  L.tk_kit = kit.Kits.name;
                  tk_total = 1;
                  tk_proved = 0;
                  tk_disagreements = 0;
                };
              ];
          }
        else begin
          trace_begin trace;
          let o = L.run_tiers ?jobs ~kits ~mr:tmr ~nr:tnr () in
          trace_end trace;
          o
        end
      in
      (match json with
      | Some f ->
          (* the identity block is a ledger record with no metrics, from
             the writer every BENCH_*.json goes through *)
          let meta =
            Ledger.to_json
              (Ledger.record ~pool_jobs:(Exo_par.Pool.default_jobs ())
                 ~bench:"lint-tiers" [])
          in
          write_out (Some f) (L.tiers_json ~meta o)
      | None -> ());
      Fmt.pr "%a@." L.pp_tiers o;
      if L.tiers_ok o then `Ok ()
      else begin
        Fmt.epr
          "ukrgen: lint --tiers: %d unproved entr(ies), %d static/dynamic \
           disagreement(s)@."
          (L.tiers_unproved o)
          (List.fold_left (fun n k -> n + k.L.tk_disagreements) 0 o.L.tier_kits);
        Stdlib.exit tiers_fail_exit
      end
    end
    else begin
      trace_begin trace;
      let o = L.run ?jobs ~kits () in
      trace_end trace;
      Fmt.pr "%a@." L.pp_outcome o;
      if L.all_ok o then `Ok ()
      else `Error (false, Fmt.str "%d kernel(s) failed the lint" (L.failures o))
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~exits:
         (Cmd.Exit.info tiers_fail_exit
            ~doc:"a $(b,--tiers) proof failed (unproved entry or \
                  static/dynamic disagreement)."
         :: Cmd.Exit.defaults)
       ~doc:"Statically lint the generated kernel family: bounds certificates, \
             register budget, steady-state census and effect signatures \
             (Fig. 12 properties), without running the simulator. With \
             $(b,--tiers), statically validate the lowered execution tiers \
             instead (translation validation of the monomorphized kernel \
             table).")
    Term.(
      ret
        (const run $ cache_dir $ kit $ all $ jobs $ trace_file $ tiers
       $ json_file $ selftest_fail $ table_mr $ table_nr))

(* --- tune --------------------------------------------------------------- *)

let tune_cmd =
  let m = Arg.(required & pos 0 (some int) None & info [] ~docv:"M") in
  let n = Arg.(required & pos 1 (some int) None & info [] ~docv:"N") in
  let k = Arg.(required & pos 2 (some int) None & info [] ~docv:"K") in
  let ledger_arg =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Append a run-ledger record of this sweep to $(docv) \
                 (default $(b,UKRGEN_LEDGER); unset: no ledger).")
  in
  let run cache m n k jobs trace ledger =
    set_cache cache;
    try
      trace_begin trace;
      (* a traced sweep must actually sweep: drop the memoized ranking so
         the per-config spans are recorded, not skipped *)
      if trace <> None then Exo_blis.Tuner.clear_cache ();
      let t0 = Unix.gettimeofday () in
      let results = Exo_blis.Tuner.sweep ?jobs machine ~m ~n ~k in
      let t_sweep = Unix.gettimeofday () -. t0 in
      trace_end trace;
      Fmt.pr "kernel ranking for (m, n, k) = (%d, %d, %d) on %s:@." m n k
        machine.Exo_isa.Machine.name;
      List.iteri
        (fun i (r : Exo_blis.Tuner.result) ->
          Fmt.pr "  %2d. %2dx%-2d %7.2f GFLOPS  (%a)@." (i + 1) r.Exo_blis.Tuner.mr
            r.Exo_blis.Tuner.nr r.Exo_blis.Tuner.gflops Exo_blis.Analytical.pp
            r.Exo_blis.Tuner.blocking)
        results;
      (match
         ( (match ledger with Some p -> Some p | None -> Ledger.env_path ()),
           results )
       with
      | Some path, (top : Exo_blis.Tuner.result) :: _ ->
          Ledger.append ~path
            (Ledger.record ~pool_jobs:(Exo_par.Pool.default_jobs ())
               ~bench:(Fmt.str "tune %dx%dx%d" m n k)
               [
                 Ledger.metric ~unit_:"ms" Ledger.Lower "tune.sweep_ms"
                   (t_sweep *. 1e3);
                 Ledger.metric ~unit_:"GFLOPS" Ledger.Info "tune.top_gflops"
                   top.Exo_blis.Tuner.gflops;
               ]);
          Fmt.pr "ledger: appended tune record to %s@." path
      | _ -> ());
      `Ok ()
    with Invalid_argument msg ->
      Obs.disable ();
      `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Rank every candidate kernel shape for one GEMM (the paper's \
          'evaluating a number of generated micro-kernels').")
    Term.(ret (const run $ cache_dir $ m $ n $ k $ jobs $ trace_file $ ledger_arg))

(* --- report -------------------------------------------------------------- *)

(* [report --check] failures exit with their own code, distinct from lint
   --tiers' 3, the generic CLI error (123) and usage errors (124): CI can
   tell "the performance gate tripped" from every other failure. *)
let report_fail_exit = 4

let report_cmd =
  let ledger_arg =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Run-ledger JSONL to report on (default $(b,UKRGEN_LEDGER), \
                 else $(i,ledger.jsonl)).")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Exit $(b,4) when a gated metric regressed beyond its noise \
                 bound against the baseline window, or the measured/model \
                 efficiency fell below the gate.")
  in
  let baseline =
    Arg.(value & opt int 5 & info [ "baseline" ] ~docv:"N"
           ~doc:"Baseline window: compare each bench's latest run against up \
                 to $(docv) prior runs from the same host fingerprint.")
  in
  let mad_k =
    Arg.(value & opt float 4.0 & info [ "mad-k" ] ~docv:"K"
           ~doc:"Noise bound: $(docv) times the baseline window's median \
                 absolute deviation.")
  in
  let min_rel =
    Arg.(value & opt float 0.10 & info [ "min-rel" ] ~docv:"R"
           ~doc:"Noise-bound floor as a fraction of the baseline median \
                 (default 10%; raise on jittery shared runners).")
  in
  let gate =
    Arg.(value & opt float 0.02 & info [ "efficiency" ] ~docv:"E"
           ~doc:"Attribution gate: flag the report when measured/model GFLOPS \
                 efficiency falls below $(docv).")
  in
  let bench_filter =
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME"
           ~doc:"Restrict verdicts and attribution to one bench (e.g. \
                 $(i,perf-gemm)).")
  in
  let json_file =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable report document to $(docv).")
  in
  let run ledger check baseline mad_k min_rel gate bench json =
    let path =
      match ledger with
      | Some p -> p
      | None -> Option.value ~default:"ledger.jsonl" (Ledger.env_path ())
    in
    if not (Sys.file_exists path) then begin
      (* a missing ledger is a tool failure (generic 123), never the
         regression verdict (4): CI must not read "no data" as "perf
         regressed". cmdliner's default term error would exit 124 and
         collide with usage errors, so exit explicitly. *)
      Fmt.epr
        "ukrgen: no ledger at %s (append records with bench -ledger, ukrgen \
         tune --ledger, or $UKRGEN_LEDGER)@."
        path;
      Stdlib.exit Cmd.Exit.some_error
    end
    else begin
      let loaded = Ledger.load ~path in
      let r =
        Ledger.Report.build ~baseline ~mad_k ~min_rel ~gate ?bench ~path loaded
      in
      Fmt.pr "%s@?" (Ledger.Report.render r);
      (match json with
      | Some f -> write_out (Some f) (Ledger.Report.to_json r)
      | None -> ());
      if check && not (Ledger.Report.ok r) then Stdlib.exit report_fail_exit
      else `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~exits:
         (Cmd.Exit.info report_fail_exit
            ~doc:"with $(b,--check): a gated metric regressed beyond its \
                  noise bound, or measured/model efficiency fell below the \
                  gate."
         :: Cmd.Exit.defaults)
       ~doc:"Render the append-only run ledger: per-bench trajectory, \
             regression verdicts against the host's baseline window, and the \
             measured-vs-model attribution table (measured GFLOPS next to \
             the analytical model's prediction, the cache simulator's DRAM \
             traffic, and the traced phase breakdown).")
    Term.(
      ret
        (const run $ ledger_arg $ check $ baseline $ mad_k $ min_rel $ gate
       $ bench_filter $ json_file))

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let kit_pos =
    Arg.(required & pos 0 (some kit_conv) None & info [] ~docv:"KIT"
           ~doc:"Target kit (e.g. neon-f32).")
  in
  let shape_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SHAPE"
           ~doc:"Micro-kernel shape as MRxNR (e.g. 8x12).")
  in
  let out =
    Arg.(value & opt string "trace.json" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Chrome trace-event JSON output (open in Perfetto).")
  in
  let prov =
    Arg.(value & opt (some string) None & info [ "provenance" ] ~docv:"FILE"
           ~doc:"Also write the kernel's provenance sidecar to $(docv).")
  in
  let parse_shape s =
    match String.index_opt s 'x' with
    | Some i -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some mr, Some nr when mr >= 1 && nr >= 1 -> Some (mr, nr)
        | _ -> None)
    | None -> None
  in
  let run kit shape out prov =
    match parse_shape shape with
    | None -> `Error (true, Fmt.str "SHAPE must be MRxNR (got %S)" shape)
    | Some (mr, nr) -> (
        try
          Obs.reset ();
          Obs.enable ();
          (* 1. the schedule: every primitive and certificate as sched.*
             spans plus the provenance log ([Family.generate] directly, not
             the registry memo — a warm cache would skip the spans) *)
          let kern = Family.generate ~kit ~mr ~nr () in
          (* 2. a small real GEMM through the BLIS macro-kernel over the
             kit's kernel bank: table build, pack-A / pack-B / macro-kernel
             / micro-kernel dispatch spans *)
          let m, n, k = (48, 48, 48) in
          let blocking =
            Exo_blis.Analytical.compute machine ~mr ~nr ~dtype_bytes:4
          in
          let a =
            Exo_blis.Matrix.init m k (fun i j ->
                float_of_int (((i + j) mod 5) - 2))
          in
          let b =
            Exo_blis.Matrix.init k n (fun i j ->
                float_of_int ((((2 * i) + j) mod 5) - 2))
          in
          let c = Exo_blis.Matrix.create m n in
          Exo_blis.Gemm.blis_ba ~blocking ~mr ~nr
            ~kernels:(Exo_blis.Registry.exo_bank ~kit ~mr ~nr ())
            a b c;
          (* 3. a tuner sweep across the domain pool and a cache-simulator
             run: per-config spans, phase counters, pc-block progress *)
          ignore (Exo_blis.Tuner.sweep ~kit machine ~m ~n ~k);
          let { Exo_blis.Analytical.mc; kc; nc } = blocking in
          ignore (Exo_sim.Cache_sim.gemm_trace machine ~mc ~kc ~nc ~mr ~nr ~m ~n ~k);
          Obs.disable ();
          let tr = Obs.drain () in
          write_out (Some out) (Obs.Export.chrome_json tr);
          (match prov with
          | Some f -> write_out (Some f) (kernel_prov_json kern)
          | None -> ());
          Fmt.pr "%s@?" (Obs.Export.text_report tr);
          `Ok ()
        with Exo_sched.Sched.Sched_error msg | Invalid_argument msg ->
          Obs.disable ();
          `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one kit/shape end to end — schedule, packing, macro- and \
          micro-kernel phases, tuner sweep, cache simulation — into a \
          Chrome trace-event JSON plus a profile report on stdout.")
    Term.(ret (const run $ kit_pos $ shape_pos $ out $ prov))

(* --- explain ------------------------------------------------------------ *)

let explain_cmd =
  let run kit mr nr =
    try
      let k = Family.generate ~kit ~mr ~nr () in
      let t = Exo_sim.Trace.of_proc k.Family.proc in
      let impl = KM.of_proc ~name:"k" ~mr ~nr k.Family.proc in
      let mach =
        if kit.Kits.dt = Exo_ir.Dtype.F16 then Exo_isa.Machine.carmel_fp16 else machine
      in
      Fmt.pr "%dx%d %s kernel (%s schedule)@." mr nr kit.Kits.name
        (Family.style_name k.Family.style);
      Fmt.pr "  steady census   : %a@." Exo_sim.Trace.pp t.Exo_sim.Trace.steady;
      Fmt.pr "  prologue census : %a@." Exo_sim.Trace.pp t.Exo_sim.Trace.prologue;
      Fmt.pr "  vector registers: %d of %d@." t.Exo_sim.Trace.vregs_used
        mach.Exo_isa.Machine.vec.Exo_isa.Memories.num_regs;
      let c = t.Exo_sim.Trace.steady in
      let compute = c.Exo_sim.Trace.fma + c.Exo_sim.Trace.arith + c.Exo_sim.Trace.bcast in
      let pipe = float_of_int compute /. float_of_int mach.Exo_isa.Machine.fma_pipes in
      let lat = float_of_int mach.Exo_isa.Machine.fma_lat in
      let ld = float_of_int c.Exo_sim.Trace.load /. float_of_int mach.Exo_isa.Machine.load_ports in
      let cyc = KM.cycles_per_iter mach impl in
      Fmt.pr "  bounds per iter : pipe %.2f | latency %.2f | load-port %.2f@." pipe lat ld;
      Fmt.pr "  binding bound   : %s (%.2f cycles/iteration)@."
        (if cyc = pipe then "FMA pipes"
         else if cyc = lat then "FMA accumulate latency (too few accumulators)"
         else if cyc = ld then "load ports"
         else "issue width / other")
        cyc;
      Fmt.pr "  scoreboard check: %.2f cycles/iteration@."
        (Exo_sim.Scoreboard.cycles_per_iter mach k.Family.proc);
      Fmt.pr "  solo mode       : %.2f of %.2f GFLOPS peak at kc = 512@."
        (KM.solo_gflops ~dbytes:(Exo_ir.Dtype.size_bytes kit.Kits.dt) mach impl
           ~mu:mr ~nu:nr ~kc:512)
        (KM.peak mach impl);
      (* what the native JIT tier would do with this kernel on THIS host
         (everything above is about the modeled target machine) *)
      List.iter
        (fun (k, v) -> Fmt.pr "  host %-11s: %s@." k v)
        (Exo_native.Host.describe ());
      let target = Exo_blis.Registry.native_target_for kit in
      Fmt.pr "  native target   : %s@."
        (match target with
        | Some t -> Exo_codegen.C_emit.native_target_name t
        | None -> "none (native tier is f32-only)");
      let lanes = Exo_native.Host.f32_lanes () in
      Fmt.pr "  portable lanes  : %d (%dx%d nest %s)@." lanes mr nr
        (if Exo_codegen.C_emit.paired_form ~lanes ~mr ~nr then
           "paired: two C columns per vector"
         else "loop");
      Fmt.pr "  two-tile entry  : %s@."
        (match target with
        | Some target when Exo_blis.Registry.serves_pair ~target ~lanes ~mr ~nr ->
            Exo_codegen.C_emit.pair_sym ~mr ~nr
            ^ ": two vertically adjacent tiles per call"
        | _ -> "none");
      `Ok ()
    with Exo_sched.Sched.Sched_error msg | Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain a kernel's performance: census, bounds, and which one binds.")
    Term.(ret (const run $ kit $ mr $ nr))

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let model_conv =
    let parse = function
      | "resnet50" -> Ok `Resnet50
      | "vgg16" -> Ok `Vgg16
      | s -> Error (`Msg (Fmt.str "unknown model %S (known: resnet50, vgg16)" s))
    in
    Arg.conv
      (parse, fun ppf m ->
        Fmt.string ppf (match m with `Resnet50 -> "resnet50" | `Vgg16 -> "vgg16"))
  in
  let model =
    Arg.(value & opt model_conv `Resnet50 & info [ "model" ] ~docv:"MODEL"
           ~doc:"DNN workload to execute: resnet50 or vgg16.")
  in
  let jobs =
    Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Pool width for the jc loop (0: the process default).")
  in
  let limit =
    Arg.(value & opt int 0 & info [ "limit" ] ~docv:"N"
           ~doc:"Run only the first $(docv) distinct layers (0: all).")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Validate every layer exactly against the naive f32 \
                 reference (slow at full-model scale).")
  in
  let run cache model jobs limit check =
    set_cache cache;
    let module W = Exo_workloads.Models in
    let module M = Exo_blis.Matrix in
    let module G = Exo_blis.Gemm in
    let module R = Exo_blis.Registry in
    let mr = 8 and nr = 12 in
    let name, layers =
      match model with
      | `Resnet50 -> ("resnet50", W.resnet50)
      | `Vgg16 -> ("vgg16", W.vgg16)
    in
    let layers = if limit > 0 then List.filteri (fun i _ -> i < limit) layers else layers in
    let blocking = Exo_blis.Analytical.compute machine ~mr ~nr ~dtype_bytes:4 in
    let pool =
      if jobs > 0 then Exo_par.Pool.create ~jobs () else Exo_par.Pool.global ()
    in
    Fmt.pr "%s: %d distinct conv GEMMs through the executable ALG+EXO path@."
      name (List.length layers);
    Fmt.pr "blocking (mc=%d, kc=%d, nc=%d), %dx%d kernels, %d domain(s)@."
      blocking.Exo_blis.Analytical.mc blocking.Exo_blis.Analytical.kc
      blocking.Exo_blis.Analytical.nc mr nr (Exo_par.Pool.jobs pool);
    let st = Random.State.make [| 97 |] in
    let probs =
      List.map
        (fun (l : W.layer) ->
          let m, n, k = W.gemm_dims l in
          let a = M.random_int m k st and b = M.random_int k n st in
          let c = M.random_int m n st in
          (l, a, b, c, if check then Some (M.copy c) else None))
        layers
    in
    let kernels = R.exo_bank ~mr ~nr () in
    (* build the table outside the timed region, and count only the
       batch's own dispatches *)
    ignore (kernels ());
    R.reset_dispatch_counts ();
    let ws = G.workspace () in
    let t0 = Unix.gettimeofday () in
    G.batch_ba ~pool ~ws ~kernels
      (List.map
         (fun (_, a, b, c, _) ->
           {
             G.p_a = a;
             p_b = b;
             p_c = c;
             p_alpha = 1.0;
             p_beta = 1.0;
             p_blocking = blocking;
             p_mr = mr;
             p_nr = nr;
           })
         probs);
    let elapsed = Unix.gettimeofday () -. t0 in
    let native, ba, fallback = R.ukr_tier_counts () in
    let total_flops = ref 0.0 in
    let failures = ref 0 in
    List.iter
      (fun ((l : W.layer), a, b, c, c_ref) ->
        let m, n, k = W.gemm_dims l in
        total_flops := !total_flops +. (2.0 *. float_of_int (m * n * k));
        match c_ref with
        | None -> ()
        | Some r ->
            G.naive_f32 a b r;
            if not (M.equal c r) then begin
              incr failures;
              Fmt.epr "layer %d (%dx%dx%d): MISMATCH vs naive f32@." l.W.id m n k
            end)
      probs;
    List.iter
      (fun ((l : W.layer), _, _, _, _) ->
        let m, n, k = W.gemm_dims l in
        Fmt.pr "  layer %2d (x%d): m=%5d n=%4d k=%4d@." l.W.id l.W.count m n k)
      probs;
    Fmt.pr "dispatch: %d native, %d bigarray, %d fallback@." native ba fallback;
    Fmt.pr "batch: %.2f s, %.3f GFLOPS aggregate%s@." elapsed
      (!total_flops /. elapsed /. 1e9)
      (if check then
         if !failures = 0 then "; every layer exact vs naive f32"
         else Fmt.str "; %d LAYER(S) WRONG" !failures
       else "");
    if !failures > 0 then `Error (false, "numeric validation failed") else `Ok ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a DNN workload's GEMMs through the batched arena-packed \
             macro-kernel.")
    Term.(ret (const run $ cache_dir $ model $ jobs $ limit $ check))

(* --- native ------------------------------------------------------------- *)

(* The CI artifact: the native-ABI C for one kernel bank, plus the shared
   object when this host has a C compiler. The C is always written —
   graceful degradation means a cc-less host still produces an inspectable
   artifact. *)
let native_cmd =
  let kit_pos =
    Arg.(required & pos 0 (some kit_conv) None & info [] ~docv:"KIT"
           ~doc:"Target kit (e.g. avx2-f32).")
  in
  let shape_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SHAPE"
           ~doc:"Micro-kernel shape as MRxNR (e.g. 8x12).")
  in
  let out_dir =
    Arg.(value & opt string "native-artifacts" & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory the $(i,.c) (and $(i,.so), when a C compiler \
                 exists) are written into (created if absent).")
  in
  let parse_shape s =
    match String.index_opt s 'x' with
    | Some i -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some mr, Some nr when mr >= 1 && nr >= 1 -> Some (mr, nr)
        | _ -> None)
    | None -> None
  in
  let run cache kit shape dir =
    set_cache cache;
    match parse_shape shape with
    | None -> `Error (true, Fmt.str "SHAPE must be MRxNR (got %S)" shape)
    | Some (mr, nr) -> (
        try
          match Exo_blis.Registry.native_emit ~kit ~mr ~nr () with
          | None ->
              `Error
                (false,
                 Fmt.str "kit %s is not f32: the native tier has no lowering"
                   kit.Kits.name)
          | Some (target, src) ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let base =
                Filename.concat dir (Fmt.str "%s_%dx%d" kit.Kits.name mr nr)
              in
              write_out (Some (base ^ ".c")) src;
              Fmt.pr "target: %s@."
                (Exo_codegen.C_emit.native_target_name target);
              let lanes = Exo_native.Host.f32_lanes () in
              Fmt.pr "portable nests emitted for %d f32 lanes@." lanes;
              Fmt.pr "two-tile entry: %s@."
                (if Exo_blis.Registry.serves_pair ~target ~lanes ~mr ~nr then
                   Exo_codegen.C_emit.pair_sym ~mr ~nr
                 else "none");
              (match Exo_native.Host.cc () with
              | None ->
                  Fmt.pr "no C compiler on this host: skipping the .so@.";
                  `Ok ()
              | Some cc -> (
                  match Exo_native.Jit.compile_c ~src with
                  | Ok so_bytes ->
                      let oc = open_out_bin (base ^ ".so") in
                      output_string oc so_bytes;
                      close_out oc;
                      Fmt.pr "wrote %s.so (%d bytes, cc %s)@." base
                        (String.length so_bytes) cc;
                      `Ok ()
                  | Error msg ->
                      `Error (false, Fmt.str "native compilation failed: %s" msg)))
        with Exo_sched.Sched.Sched_error m | Invalid_argument m ->
          `Error (false, m))
  in
  Cmd.v
    (Cmd.info "native"
       ~doc:"Emit one kernel bank's native-ABI C compilation unit (and the \
             compiled shared object when the host has a C compiler) — the CI \
             inspection artifact for the native JIT tier.")
    Term.(ret (const run $ cache_dir $ kit_pos $ shape_pos $ out_dir))

(* --- cache -------------------------------------------------------------- *)

let cache_gc_cmd =
  let max_bytes =
    Arg.(required & opt (some int) None & info [ "max-bytes" ] ~docv:"N"
           ~doc:"Size budget: the most recently used entries whose cumulative \
                 size fits $(docv) bytes are kept, the rest deleted.")
  in
  let run cache max_bytes =
    set_cache cache;
    match Exo_cache.Store.ambient () with
    | None ->
        `Error
          (true,
           "no store to sweep: pass --cache DIR or set UKRGEN_CACHE_DIR")
    | Some st ->
        if max_bytes < 0 then `Error (true, "--max-bytes must be >= 0")
        else begin
          let s = Exo_cache.Store.gc st ~max_bytes in
          Fmt.pr
            "gc %s: scanned %d entr%s, deleted %d, kept %d bytes, freed %d \
             bytes@."
            (Exo_cache.Store.root st)
            s.Exo_cache.Store.gc_scanned
            (if s.Exo_cache.Store.gc_scanned = 1 then "y" else "ies")
            s.Exo_cache.Store.gc_deleted s.Exo_cache.Store.gc_kept_bytes
            s.Exo_cache.Store.gc_freed_bytes;
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"LRU sweep of the persistent store: keep the most recently \
             touched entries within a byte budget, delete the rest.")
    Term.(ret (const run $ cache_dir $ max_bytes))

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Maintain the content-addressed persistent artifact store.")
    [ cache_gc_cmd ]

(* --- serve / client ------------------------------------------------------ *)

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "ukrgen.sock"

let socket_arg =
  Arg.(value & opt string default_socket & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket the daemon listens on (default $(docv) in \
               the system temp directory).")

let serve_cmd =
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Accept domains sharing the listening socket.")
  in
  let warm_kits =
    Arg.(value & opt_all kit_conv [] & info [ "kit" ] ~docv:"KIT"
           ~doc:"Warm this kit's kernel table before accepting requests \
                 (repeatable; default neon-f32).")
  in
  let access_log =
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one JSONL line per request (timestamp, verb, status, \
                 latency) to $(docv), size-rotated at 1 MiB to $(docv).1.")
  in
  let run socket workers cache warm_kits access_log =
    if workers < 1 then `Error (true, "--workers must be >= 1")
    else begin
      set_cache cache;
      Serve.set_access_log access_log;
      (* a client vanishing mid-response must not kill the daemon *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      try
        let t =
          Serve.start ~workers
            ?warm_kits:(match warm_kits with [] -> None | l -> Some l)
            ~socket ()
        in
        let graceful = Sys.Signal_handle (fun _ -> Serve.stop t) in
        Sys.set_signal Sys.sigint graceful;
        Sys.set_signal Sys.sigterm graceful;
        Fmt.pr
          "ukrgen serve: listening on %s (%d worker domain(s), cache %s, \
           access log %s)@."
          socket workers
          (match Exo_cache.Store.ambient () with
          | Some st -> Exo_cache.Store.root st
          | None -> "off")
          (Option.value ~default:"off" (Serve.access_log_path ()));
        Serve.wait t;
        Fmt.pr "ukrgen serve: drained, bye@.";
        `Ok ()
      with Unix.Unix_error (e, fn, arg) ->
        `Error (false, Fmt.str "%s(%s): %s" fn arg (Unix.error_message e))
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the kernel-compilation daemon: warm the monomorphized \
             kernel table once, then answer GENERATE / LINT / TUNE / RUN / \
             STATS requests over a Unix-domain socket until SHUTDOWN.")
    Term.(
      ret (const run $ socket_arg $ workers $ cache_dir $ warm_kits $ access_log))

(* [client STATS] pretty-printing: the daemon's flat counter lines folded
   into an aligned per-verb table (counts, errors, latency quantiles) plus
   a cache summary. [--raw] keeps the wire lines for scripts and CI greps. *)
let render_stats (payload : string list) =
  let kv =
    List.filter_map
      (fun line ->
        match String.index_opt line ' ' with
        | Some i ->
            Some
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) )
        | None -> None)
      payload
  in
  let find k = List.assoc_opt k kv in
  let get k = Option.value ~default:"0" (find k) in
  (match (find "uptime_seconds", find "requests", find "errors") with
  | Some up, Some total, Some errs ->
      Fmt.pr "daemon up %s s | %s request(s), %s error(s)@." up total errs
  | _ -> ());
  let verbs =
    List.filter_map
      (fun (k, _) ->
        if String.length k > 9 && String.sub k 0 9 = "requests_" then
          Some (String.sub k 9 (String.length k - 9))
        else None)
      kv
  in
  if verbs <> [] then begin
    Fmt.pr "@.%-10s %10s %8s %10s %10s %10s@." "verb" "count" "errors"
      "p50(us)" "p95(us)" "p99(us)";
    List.iter
      (fun v ->
        let p50, p95, p99 =
          match find ("latency_" ^ v ^ "_us") with
          | Some s -> (
              match String.split_on_char ' ' s with
              | [ "count"; _; "p50"; a; "p95"; b; "p99"; c ] -> (a, b, c)
              | _ -> ("-", "-", "-"))
          | None -> ("-", "-", "-")
        in
        Fmt.pr "%-10s %10s %8s %10s %10s %10s@." v
          (get ("requests_" ^ v))
          (get ("errors_" ^ v))
          p50 p95 p99)
      verbs
  end;
  Fmt.pr "@.cache: %s hit(s), %s miss(es), %s write(s), %s corrupt (dir %s)@."
    (get "cache_hits") (get "cache_misses") (get "cache_writes")
    (get "cache_corrupt")
    (Option.value ~default:"-" (find "cache_dir"))

let client_cmd =
  let words =
    Arg.(value & pos_all string [] & info [] ~docv:"WORD"
           ~doc:"Request words, e.g. $(b,GENERATE neon-f32 8x12) or \
                 $(b,STATS).")
  in
  let raw =
    Arg.(value & flag & info [ "raw" ]
           ~doc:"Print the daemon's response lines verbatim ($(b,STATS) is \
                 otherwise rendered as a table).")
  in
  let run socket raw words =
    if words = [] then
      `Error (true, "missing request (e.g. ukrgen client PING)")
    else
      let verb = String.uppercase_ascii (List.hd words) in
      match Serve.Client.request ~socket (String.concat " " words) with
      | status, payload ->
          if (not raw) && verb = "STATS" && Serve.Client.ok status then begin
            Fmt.pr "%s@." status;
            render_stats payload
          end
          else begin
            Fmt.pr "%s@." status;
            List.iter (fun l -> Fmt.pr "%s@." l) payload
          end;
          if Serve.Client.ok status then `Ok ()
          else `Error (false, "the daemon reported an error")
      | exception Unix.Unix_error (e, _, _) ->
          `Error
            (false,
             Fmt.str "no daemon at %s: %s (start one with ukrgen serve)"
               socket (Unix.error_message e))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one line-protocol request to a running $(b,ukrgen serve) \
             daemon and print the response.")
    Term.(ret (const run $ socket_arg $ raw $ words))

let () =
  (* UKRGEN_VERBOSE=1 traces every scheduling primitive application *)
  if Sys.getenv_opt "UKRGEN_VERBOSE" <> None then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Exo_sched.Common.src (Some Logs.Debug)
  end;
  let info =
    Cmd.info "ukrgen" ~version:"1.0.0"
      ~doc:"Exo-style GEMM micro-kernel generator (CGO'24 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; family_cmd; variants_cmd; solo_cmd; gemm_cmd; verify_cmd;
            lint_cmd; tune_cmd; report_cmd; trace_cmd; explain_cmd; run_cmd;
            native_cmd; cache_cmd; serve_cmd; client_cmd;
          ]))
