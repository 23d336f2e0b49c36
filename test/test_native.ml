(* The native JIT execution tier: Exo_native.{Host,Jit} and the registry's
   table upgrade (Registry.native_info / entry tiers / table dispatch).

   The load-bearing contracts pinned here:

   1. Host probe — the capability census is well-formed and the env
      switches ([UKRGEN_NATIVE], [UKRGEN_CC]) mask the tier per process,
      re-read on every call (no rebuild needed to toggle).

   2. Differential correctness — on every f32 kit whose bank compiles on
      this host, the serving table (native where certified) is bit-exact
      against the Bigarray tier on random tiles, and a full fringe-laden
      GEMM agrees across all four execution paths: native bank, Bigarray
      bank, the interpreter oracle, and the binary32 naive reference.

   3. Cache robustness — a corrupted cached [.so] reads as a miss and is
      recompiled; the rebuilt table serves native code again and computes
      the same tiles. A [.so] filed under the key formula that predates the
      emitter digest, under an older native ABI tag, or under a digest
      without the two-tile body, is never loaded; a two-tile entry that
      fails certification is not served.

   4. Graceful degradation — with the tier disabled or the compiler
      masked, the table still builds complete, serves the Bigarray tier
      (zero native dispatches), and the GEMM stays exact.

   Every case that needs a compiler skips (with a visible reason) on
   cc-less hosts rather than failing — the tier itself must degrade, so
   its tests must too. *)

module Store = Exo_cache.Store
module R = Exo_blis.Registry
module K = Exo_ukr_gen.Kits
module Host = Exo_native.Host
module Jit = Exo_native.Jit
module M = Exo_blis.Matrix
module G = Exo_blis.Gemm

let temp_dir () =
  let f = Filename.temp_file "exo-native-test" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* ambient-store + registry-memo scope: every case builds its tables from
   scratch into its own store and leaves no memoized table behind (a table
   built under one env setting must not leak into the next case) *)
let with_fresh_tables f =
  let dir = temp_dir () in
  Store.set_ambient (Some dir);
  R.clear_memos_for_bench ();
  Fun.protect
    ~finally:(fun () ->
      Store.set_ambient None;
      R.clear_memos_for_bench ();
      rm_rf dir)
    (fun () -> f dir)

(* [Unix.putenv] cannot unset, so restoration writes the value the reader
   treats as "unset": [UKRGEN_NATIVE=1] (any non-off value) re-enables,
   [UKRGEN_CC=] (empty) falls back to the PATH search. *)
let with_env var value f =
  let restore = match Sys.getenv_opt var with Some v -> v
    | None -> if var = Host.env_native then "1" else ""
  in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var restore) (fun () -> f ())

let f32_kits = List.filter (fun k -> k.K.dt = Exo_ir.Dtype.F32) K.all

let skip reason = Printf.printf "      [skipped: %s]\n%!" reason

(* run one table entry on a deterministic random tile (same scheme as the
   registry's certification probes, different seeds) *)
let exec (u : Exo_interp.Compile.ukr_ba) ~mr ~nr ~kc ~seed =
  let st = Random.State.make [| mr; nr; kc; seed |] in
  let mk n =
    let b = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      Bigarray.Array1.set b i (float_of_int (Random.State.int st 7 - 3))
    done;
    b
  in
  let ac = mk (kc * mr) and bc = mk (kc * nr) in
  let c = mk (mr * nr) in
  u ~kc ~ac ~ao:0 ~bc ~bo:0 ~c ~co:0;
  Array.init (mr * nr) (Bigarray.Array1.get c)

(* --- host probe ---------------------------------------------------------- *)

let test_host_probe () =
  let d = Host.describe () in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "describe carries %s" k)
        true (List.mem_assoc k d))
    [ "native_tier"; "cc"; "cc_identity"; "isa"; "tuning_flags" ];
  let isas = Host.isas () in
  Alcotest.(check bool) "census has no duplicates" true
    (List.length (List.sort_uniq compare isas) = List.length isas);
  List.iter (fun i -> Alcotest.(check bool) "supports agrees with census"
      true (Host.supports i)) isas;
  (match Host.cc () with
  | None -> ()
  | Some p ->
      Alcotest.(check bool) "resolved cc is executable" true (Sys.file_exists p);
      Alcotest.(check bool) "cc identity is non-empty" true
        (String.length (Host.cc_identity ()) > 0));
  List.iter
    (fun fl ->
      Alcotest.(check bool) "tuning flags are -m options" true
        (String.length fl > 2 && String.sub fl 0 2 = "-m"))
    (Host.march_flags ())

let test_env_switches () =
  with_env Host.env_native "0" (fun () ->
      Alcotest.(check bool) "UKRGEN_NATIVE=0 disables" false (Host.enabled ());
      Alcotest.(check bool) "disabled tier resolves no cc" true
        (Host.cc () = None));
  Alcotest.(check bool) "re-enabled after scope" true (Host.enabled ());
  with_env Host.env_cc "/nonexistent/cc-for-test" (fun () ->
      Alcotest.(check bool) "UKRGEN_CC pointing nowhere masks cc" true
        (Host.cc () = None))

(* --- differential correctness -------------------------------------------- *)

let test_differential kit () =
  with_fresh_tables @@ fun _dir ->
  let mr, nr = (4, 6) in
  let t = R.exo_table ~kit ~mr ~nr () in
  let ni = t.R.t_native_info in
  if ni.R.ni_entries = 0 then
    skip (Fmt.str "native tier unavailable (%s)" ni.R.ni_reason)
  else begin
    Alcotest.(check string) (kit.K.name ^ ": upgrade healthy") "ok"
      ni.R.ni_reason;
    Alcotest.(check int) (kit.K.name ^ ": no entry failed certification") 0
      ni.R.ni_rejected;
    (* tile level: the serving (native) entry vs the frozen Bigarray bank,
       random shapes and depths including the kc = 0 no-op *)
    let q =
      QCheck2.Test.make ~count:80
        ~name:(kit.K.name ^ ": native tile = bigarray tile")
        QCheck2.Gen.(
          pair
            (pair (int_range 1 mr) (int_range 1 nr))
            (pair (int_bound 33) (int_bound 1000)))
        (fun ((mr', nr'), (kc, seed)) ->
          exec (R.table_entry t ~mr:mr' ~nr:nr') ~mr:mr' ~nr:nr' ~kc ~seed
          = exec (R.entry t ~mr:mr' ~nr:nr').R.e_base ~mr:mr' ~nr:nr' ~kc ~seed)
    in
    QCheck2.Test.check_exn q;
    (* whole-GEMM level, fringes in both m and n: native bank = bigarray
       bank = interpreter oracle = binary32 naive reference *)
    let m, n, k = (3 * mr + 2, 2 * nr + 3, 37) in
    let a = M.init m k (fun i j -> float_of_int (((i + (2 * j)) mod 7) - 3)) in
    let b = M.init k n (fun i j -> float_of_int ((((3 * i) + j) mod 5) - 2)) in
    let blocking =
      Exo_blis.Analytical.compute Exo_isa.Machine.carmel ~mr ~nr ~dtype_bytes:4
    in
    let run kernels =
      let c = M.create m n in
      G.blis_ba ~blocking ~mr ~nr ~kernels a b c;
      c
    in
    R.reset_dispatch_counts ();
    let c_native = run (R.exo_bank ~kit ~mr ~nr ()) in
    let native_calls, _, fallback = R.ukr_tier_counts () in
    Alcotest.(check bool) (kit.K.name ^ ": native entries dispatched") true
      (native_calls > 0);
    Alcotest.(check int) (kit.K.name ^ ": no fallbacks") 0 fallback;
    let c_ba = run (R.exo_bank_ba ~kit ~mr ~nr ()) in
    let c_interp = M.create m n in
    G.blis_ba ~blocking ~mr ~nr ~kernels:(R.oracle_bank ~kit ~mr ~nr ())
      a b c_interp;
    let c_naive = M.create m n in
    G.naive_f32 a b c_naive;
    Alcotest.(check bool) (kit.K.name ^ ": native = bigarray") true
      (M.equal c_native c_ba);
    Alcotest.(check bool) (kit.K.name ^ ": native = interpreter") true
      (M.equal c_native c_interp);
    Alcotest.(check bool) (kit.K.name ^ ": native = naive f32") true
      (M.equal c_native c_naive)
  end

(* --- dispatch counters ------------------------------------------------------ *)

(* the counters count dispatches only: a cold build (Bigarray probes, native
   certification) and a warm rebuild from the store (re-proof, hydration,
   certification of the cached .so) move none of them; a GEMM moves the
   native counter by exactly its tile count *)
let test_counters_count_dispatches_only () =
  with_fresh_tables @@ fun _dir ->
  let kit = K.avx2_f32 and mr, nr = (4, 6) in
  let zero = Alcotest.(check (triple int int int)) in
  R.reset_dispatch_counts ();
  let t = R.exo_table ~kit ~mr ~nr () in
  if t.R.t_native_info.R.ni_entries = 0 then
    skip (Fmt.str "native tier unavailable (%s)" t.R.t_native_info.R.ni_reason)
  else begin
    zero "cold build dispatches nothing" (0, 0, 0) (R.ukr_tier_counts ());
    R.clear_memos_for_bench ();
    Store.reset_counts ();
    let t' = R.exo_table ~kit ~mr ~nr () in
    let hits, misses = Store.hit_miss_counts () in
    Alcotest.(check bool) "warm rebuild hydrated from the store" true
      (hits > 0 && misses = 0);
    Alcotest.(check int) "warm rebuild serves every entry native" (mr * nr)
      t'.R.t_native_info.R.ni_entries;
    zero "warm rebuild dispatches nothing" (0, 0, 0) (R.ukr_tier_counts ());
    (* 14×15 over 4×6 tiles is 4 row × 3 column panels, and k fits one kc
       block: 12 kernel calls *)
    let m, n, k = (14, 15, 37) in
    let a = M.init m k (fun i j -> float_of_int (((i + j) mod 5) - 2)) in
    let b = M.init k n (fun i j -> float_of_int ((((2 * i) + j) mod 5) - 2)) in
    let blocking = { Exo_blis.Analytical.mc = 64; kc = 64; nc = 60 } in
    G.blis_ba ~blocking ~mr ~nr ~kernels:(R.exo_bank ~kit ~mr ~nr ()) a b
      (M.create m n);
    zero "a GEMM counts its tiles, all native" (12, 0, 0) (R.ukr_tier_counts ())
  end

(* --- cached .so robustness ------------------------------------------------ *)

let test_corrupted_so_recompiles () =
  with_fresh_tables @@ fun dir ->
  let kit = K.avx2_f32 in
  let t1 = R.exo_table ~kit ~mr:4 ~nr:4 () in
  if t1.R.t_native_info.R.ni_entries = 0 then
    skip
      (Fmt.str "native tier unavailable (%s)" t1.R.t_native_info.R.ni_reason)
  else begin
    let so_dir = Filename.concat dir Jit.so_kind in
    Alcotest.(check bool) "a shared object was cached" true
      (Sys.file_exists so_dir);
    (* truncate every cached .so, then force a cold rebuild: the table
       must detect the damage, recompile, and serve native again *)
    let rec wreck path =
      if Sys.is_directory path then
        Array.iter (fun f -> wreck (Filename.concat path f)) (Sys.readdir path)
      else Unix.truncate path ((Unix.stat path).Unix.st_size / 2)
    in
    wreck so_dir;
    R.clear_memos_for_bench ();
    Store.reset_counts ();
    let compiles_before, _, _, _ = Jit.counts () in
    let t2 = R.exo_table ~kit ~mr:4 ~nr:4 () in
    let compiles_after, _, _, _ = Jit.counts () in
    let _, corrupt = Store.write_counts () in
    Alcotest.(check bool) "corruption detected as a miss" true (corrupt > 0);
    Alcotest.(check bool) "bank recompiled" true
      (compiles_after > compiles_before);
    Alcotest.(check int) "native tier restored"
      t1.R.t_native_info.R.ni_entries t2.R.t_native_info.R.ni_entries;
    Alcotest.(check (array (float 0.0))) "same tile after recompilation"
      (exec (R.table_entry t1 ~mr:3 ~nr:4) ~mr:3 ~nr:4 ~kc:17 ~seed:7)
      (exec (R.table_entry t2 ~mr:3 ~nr:4) ~mr:3 ~nr:4 ~kc:17 ~seed:7)
  end

(* The parts of the native store key ahead of the portable-nest digest,
   under ABI tag [abi]. *)
let key_parts abi (kit : K.t) ~mr ~nr ~target =
  [
    abi;
    Sys.ocaml_version;
    kit.K.name;
    K.digest kit;
    string_of_int kit.K.sched_steps;
    string_of_int mr;
    string_of_int nr;
    "simple";
    Exo_codegen.C_emit.native_target_name target;
    Host.cc_identity ();
    String.concat " " (Host.march_flags ());
  ]

(* The store key before it carried a digest of the emitted portable nests:
   a .so built by an older emitter sits under exactly this key. *)
let pre_digest_key kit ~mr ~nr ~target =
  Store.key (key_parts "native-v1" kit ~mr ~nr ~target)

(* The full store key under ABI tag [abi] for portable nests emitted at
   [lanes], every other part current. The digest renders the full tile's
   two-tile body where that tile is paired; [~pair:false] leaves it out,
   as the emitter did before the two-tile entry existed. *)
let abi_key ?(pair = true) abi kit ~mr ~nr ~target ~lanes =
  let module C_emit = Exo_codegen.C_emit in
  let b = Buffer.create 65536 in
  Buffer.add_string b (Printf.sprintf "lanes=%d\n" lanes);
  for idx = 0 to (mr * nr) - 1 do
    C_emit.portable_body b ~lanes ~mr:((idx / nr) + 1) ~nr:((idx mod nr) + 1)
  done;
  if pair && C_emit.paired_form ~lanes ~mr ~nr then
    C_emit.pair_body b ~lanes ~mr ~nr;
  Store.key
    (key_parts abi kit ~mr ~nr ~target
    @ [ Digest.to_hex (Digest.string (Buffer.contents b)) ])

(* every exported kernel a no-op: certification rejects any entry served
   from it, so loading it cannot go unnoticed *)
let decoy_source ~mr ~nr =
  String.concat ""
    (List.init (mr * nr) (fun idx ->
         let sym =
           Exo_codegen.C_emit.native_sym ~mr:((idx / nr) + 1)
             ~nr:((idx mod nr) + 1)
         in
         Exo_codegen.C_emit.native_abi_signature sym ^ " { (void)kc; }\n"))

let test_stale_emitter_so_not_loaded () =
  with_fresh_tables @@ fun dir ->
  let kit = K.neon_f32 and mr, nr = (4, 4) in
  match (R.native_target_for kit, Host.cc ()) with
  | None, _ -> skip "neon-f32 has no native target"
  | _, None -> skip "no C compiler on host"
  | Some target, Some _ -> (
      match Jit.compile_c ~src:(decoy_source ~mr ~nr) with
      | Error e -> Alcotest.fail ("decoy did not compile: " ^ e)
      | Ok decoy ->
          let st = Store.of_dir dir in
          let lanes = Host.f32_lanes () in
          (* a decoy under [stale] is never loaded: the (mr, nr) bank
             compiles afresh under the current key and every entry — the
             two-tile one included, where it is served — certifies *)
          let not_loaded ?(mr = mr) ?(nr = nr) name stale =
            let current = R.native_key kit ~mr ~nr ~target ~lanes in
            Alcotest.(check bool) (name ^ ": key differs from the current key")
              true (current <> stale);
            R.clear_memos_for_bench ();
            Store.remove st ~kind:Jit.so_kind ~key:current;
            ignore (Store.put st ~kind:Jit.so_kind ~key:stale decoy);
            Jit.reset_counts ();
            let t = R.exo_table ~kit ~mr ~nr () in
            let compiles, hits, _, _ = Jit.counts () in
            let ni = t.R.t_native_info in
            Alcotest.(check int) (name ^ ": the stale .so was not loaded") 0 hits;
            Alcotest.(check int) (name ^ ": the bank was compiled afresh") 1
              compiles;
            Alcotest.(check int) (name ^ ": no entry rejected") 0 ni.R.ni_rejected;
            Alcotest.(check int) (name ^ ": every entry native") (mr * nr)
              ni.R.ni_entries;
            Alcotest.(check bool) (name ^ ": the pair serves where it exists")
              (target = Exo_codegen.C_emit.Nat_portable
              && Exo_codegen.C_emit.paired_form ~lanes ~mr ~nr)
              ni.R.ni_pair
          in
          let current = R.native_key kit ~mr ~nr ~target ~lanes in
          not_loaded "pre-digest key" (pre_digest_key kit ~mr ~nr ~target);
          (* a .so built for the 5-argument ABI, with every other key part
             current: called through today's stub it would read a garbage
             stride *)
          Alcotest.(check string) "the key formula is the registry's" current
            (abi_key R.native_abi kit ~mr ~nr ~target ~lanes);
          not_loaded "native-v1 key"
            (abi_key "native-v1" kit ~mr ~nr ~target ~lanes);
          (* a .so whose portable nests were emitted for another lane
             count: at 16 lanes no shape of this 4×4 bank is paired, so
             there the rendered lane count alone moves the key *)
          List.iter
            (fun other ->
              if other <> lanes then
                not_loaded
                  (Printf.sprintf "lanes=%d key" other)
                  (abi_key R.native_abi kit ~mr ~nr ~target ~lanes:other))
            [ 1; 4; 8; 16 ];
          (* a .so emitted before the two-tile entry existed, for a bank
             whose full tile is paired at this lane count (lanes/2 × 2):
             its digest lacks the pair body, so its key is not today's *)
          let pmr = lanes / 2 in
          if
            target = Exo_codegen.C_emit.Nat_portable
            && Exo_codegen.C_emit.paired_form ~lanes ~mr:pmr ~nr:2
          then begin
            Alcotest.(check string) "pair bank: the key formula is the registry's"
              (R.native_key kit ~mr:pmr ~nr:2 ~target ~lanes)
              (abi_key R.native_abi kit ~mr:pmr ~nr:2 ~target ~lanes);
            not_loaded ~mr:pmr ~nr:2 "pre-pair key"
              (abi_key ~pair:false R.native_abi kit ~mr:pmr ~nr:2 ~target ~lanes)
          end;
          (* control: the same decoy under the current key IS loaded, and
             certification catches it — so a zero hit count above means
             the key moved, not that the decoy was unloadable *)
          R.clear_memos_for_bench ();
          Store.remove st ~kind:Jit.so_kind ~key:current;
          ignore (Store.put st ~kind:Jit.so_kind ~key:current decoy);
          Jit.reset_counts ();
          let t' = R.exo_table ~kit ~mr ~nr () in
          let _, hits', _, _ = Jit.counts () in
          Alcotest.(check int) "control: decoy under the current key loads" 1
            hits';
          Alcotest.(check bool) "control: certification rejects the decoy" true
            (t'.R.t_native_info.R.ni_rejected > 0))

(* --- the paired portable nest on real-valued data ------------------------- *)

(* Decision 13's claim beyond the integer probe domain: a paired vector
   nest performs, for every element, one fused multiply-add per k in k
   order from +0, then adds the sum to C once. The reference below spells
   exactly that out with [__builtin_fmaf], one element at a time, so the
   comparison holds on any data — real values, wide exponents, denormals,
   NaN and Inf. Each paired entry of the neon-f32 8×12 bank (at 16 lanes,
   and at the host's lane count) is compiled through the JIT and run
   against it on the same operands. A host without an FMA unit cannot
   fuse [a * b + c] at all; there the case skips. *)
let fma_reference ~mr ~nr =
  Printf.sprintf
    "void ref_%dx%d(int kc, const float *A, const float *B, float *C) {\n\
    \  for (int j = 0; j < %d; j++)\n\
    \    for (int i = 0; i < %d; i++) {\n\
    \      float acc = 0.0f;\n\
    \      for (int k = 0; k < kc; k++)\n\
    \        acc = __builtin_fmaf(A[k * %d + i], B[k * %d + j], acc);\n\
    \      C[j * %d + i] += acc;\n\
    \    }\n\
     }\n"
    mr nr nr mr mr nr mr

(* A portable bank of [shapes] at [lanes], with the two-tile entry of
   [pair] when given, the references of [shapes] and a probe of whether
   the host fuses [a * b + c]. Slots: the kernels in shape order, the
   pair when given, the references in shape order, then the probe. *)
let reference_bank ?pair ~lanes shapes =
  let module C_emit = Exo_codegen.C_emit in
  let src =
    C_emit.native_unit ?pair ~target:C_emit.Nat_portable ~lanes
      ~kernels:(List.map (fun (m, n) -> (m, n, None)) shapes)
      ()
    ^ String.concat "" (List.map (fun (m, n) -> fma_reference ~mr:m ~nr:n) shapes)
    ^ "void fuses(int kc, const float *A, const float *B, float *C) {\n\
      \  (void)kc; C[0] = A[0] * B[0] + C[0];\n\
       }\n"
  in
  let syms =
    List.map (fun (m, n) -> C_emit.native_sym ~mr:m ~nr:n) shapes
    @ Option.to_list (Option.map (fun (m, n) -> C_emit.pair_sym ~mr:m ~nr:n) pair)
    @ List.map (fun (m, n) -> Printf.sprintf "ref_%dx%d" m n) shapes
    @ [ "fuses" ]
  in
  match Result.bind (Jit.compile_c ~src) (fun so -> Jit.load_bytes ~so ~syms) with
  | Ok slots -> slots
  | Error e -> Alcotest.fail ("bank did not compile: " ^ e)

(* value kinds: real in [-1, 1), wide exponent (2^±100), denormal,
   signed zero, and — with [specials] — NaN and ±Inf *)
let any_value st ~specials =
  let r = Random.State.float st 2.0 -. 1.0 in
  match Random.State.int st 40 with
  | 0 when specials -> Float.nan
  | 1 when specials -> Float.infinity
  | 2 when specials -> Float.neg_infinity
  | 3 -> -0.0
  | n when n < 16 -> Float.ldexp r (Random.State.int st 201 - 100)
  | n when n < 24 -> Float.ldexp r (-140)
  | _ -> r

let fill_any st ~specials n =
  let ba = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (max 1 n) in
  for i = 0 to n - 1 do
    Bigarray.Array1.set ba i (any_value st ~specials)
  done;
  ba

let bits ba =
  Array.init (Bigarray.Array1.dim ba) (fun i ->
      Int64.bits_of_float (Bigarray.Array1.get ba i))

(* (1 + 2^-12)² − (1 + 2^-11) is 2^-24 when fused, 0 when the product is
   rounded first *)
let host_fuses slot =
  let one x = Bigarray.Array1.of_array Bigarray.float32 Bigarray.c_layout [| x |] in
  let x = one (Float.ldexp 1.0 (-12) +. 1.0) in
  let c = one (-.(Float.ldexp 1.0 (-11) +. 1.0)) in
  Jit.call ~slot ~kc:1 ~a:x ~ao:0 ~b:x ~bo:0 ~c ~co:0;
  Bigarray.Array1.get c 0 <> 0.0

let fma_kcs = [ 0; 1; 2; 3; 8; 17; 512 ]

let test_paired_nest_bit_identical () =
  match Host.cc () with
  | None -> skip "no C compiler on host"
  | Some _ ->
      let module C_emit = Exo_codegen.C_emit in
      let module BA1 = Bigarray.Array1 in
      let checked = ref 0 in
      List.iter
        (fun lanes ->
          let shapes =
            List.filter
              (fun (m, n) -> C_emit.paired_form ~lanes ~mr:m ~nr:n)
              (List.init 96 (fun idx -> ((idx / 12) + 1, (idx mod 12) + 1)))
          in
          let slots = reference_bank ~lanes shapes and n = List.length shapes in
          if host_fuses slots.(2 * n) then
            List.iteri
              (fun si (mr, nr) ->
                List.iter
                  (fun kc ->
                    List.iter
                      (fun specials ->
                        let st =
                          Random.State.make [| lanes; mr; nr; kc; Bool.to_int specials |]
                        in
                        let a = fill_any st ~specials (kc * mr)
                        and b = fill_any st ~specials (kc * nr)
                        and c1 = fill_any st ~specials:false (nr * mr) in
                        let c2 = BA1.create Bigarray.float32 Bigarray.c_layout (nr * mr) in
                        BA1.blit c1 c2;
                        Jit.call ~slot:slots.(n + si) ~kc ~a ~ao:0 ~b ~bo:0 ~c:c1 ~co:0;
                        Jit.call ~slot:slots.(si) ~kc ~a ~ao:0 ~b ~bo:0 ~c:c2 ~co:0;
                        incr checked;
                        Alcotest.(check (array int64))
                          (Printf.sprintf "%dx%d at %d lanes, kc=%d%s: same bits" mr
                             nr lanes kc
                             (if specials then ", NaN/Inf" else ""))
                          (bits c1) (bits c2))
                      [ false; true ])
                  fma_kcs)
              shapes)
        (List.sort_uniq compare [ 16; Host.f32_lanes () ]);
      if !checked = 0 then skip "the host compiler does not fuse multiply-add"

(* The two-tile entry on the same data: one call of [exo_ukr_<mr>x<nr>_x2]
   is bit for bit two calls of the single paired entry — on A's panels at
   0 and kc·mr and C's tiles at 0 and mr·nr — and two calls of the
   [__builtin_fmaf] reference, at 16 lanes and at the host's lane count,
   for the (lanes/2)×nr shapes with nr ∈ {2, 12}. *)
let test_pair_bit_identical () =
  match Host.cc () with
  | None -> skip "no C compiler on host"
  | Some _ ->
      let module BA1 = Bigarray.Array1 in
      let checked = ref 0 in
      List.iter
        (fun lanes ->
          List.iter
            (fun nr ->
              let mr = lanes / 2 in
              (* slots: single, pair, reference, probe *)
              let slots = reference_bank ~pair:(mr, nr) ~lanes [ (mr, nr) ] in
              if host_fuses slots.(3) then
                List.iter
                  (fun kc ->
                    List.iter
                      (fun specials ->
                        let st =
                          Random.State.make
                            [| 0x9a1; lanes; nr; kc; Bool.to_int specials |]
                        in
                        let a = fill_any st ~specials (2 * kc * mr)
                        and b = fill_any st ~specials (kc * nr)
                        and c_pair = fill_any st ~specials:false (2 * nr * mr) in
                        let copy () =
                          let c = BA1.create Bigarray.float32 Bigarray.c_layout (2 * nr * mr) in
                          BA1.blit c_pair c;
                          c
                        in
                        let c_single = copy () and c_ref = copy () in
                        Jit.call ~slot:slots.(1) ~kc ~a ~ao:0 ~b ~bo:0 ~c:c_pair ~co:0;
                        for t = 0 to 1 do
                          List.iter
                            (fun (slot, c) ->
                              Jit.call ~slot ~kc ~a ~ao:(t * kc * mr) ~b ~bo:0 ~c
                                ~co:(t * nr * mr))
                            [ (slots.(0), c_single); (slots.(2), c_ref) ]
                        done;
                        incr checked;
                        let name what =
                          Printf.sprintf "%dx%d pair at %d lanes, kc=%d%s: %s" mr nr
                            lanes kc
                            (if specials then ", NaN/Inf" else "")
                            what
                        in
                        Alcotest.(check (array int64))
                          (name "≡ two paired calls") (bits c_single) (bits c_pair);
                        Alcotest.(check (array int64))
                          (name "≡ two fmaf references") (bits c_ref) (bits c_pair))
                      [ false; true ])
                  fma_kcs)
            [ 2; 12 ])
        (List.sort_uniq compare [ 16; Host.f32_lanes () ]);
      if !checked = 0 then skip "the host compiler does not fuse multiply-add"

(* A two-tile entry that fails certification is not served: planted under
   the current key, a bank whose singles are the real nests and whose pair
   is a no-op serves every single natively, records the rejected pair,
   publishes no trailing slot, and its GEMM stays exact at one count per
   tile. The same bank compiled from the emitter serves the pair. *)
let test_rejected_pair_not_served () =
  with_fresh_tables @@ fun dir ->
  let module C_emit = Exo_codegen.C_emit in
  let kit = K.neon_f32 and lanes = Host.f32_lanes () in
  let mr = lanes / 2 and nr = 2 in
  match (R.native_target_for kit, Host.cc ()) with
  | _, None -> skip "no C compiler on host"
  | Some (C_emit.Nat_portable as target), Some _
    when C_emit.paired_form ~lanes ~mr ~nr -> (
      let gemm t =
        let m, n, k = ((5 * mr) + 3, (3 * nr) + 1, 23) in
        let a = M.init m k (fun i j -> float_of_int (((i + (2 * j)) mod 7) - 3)) in
        let b = M.init k n (fun i j -> float_of_int ((((3 * i) + j) mod 5) - 2)) in
        let c = M.create m n and c_ref = M.create m n in
        let blocking = { Exo_blis.Analytical.mc = 8 * mr; kc = 64; nc = 4 * nr } in
        R.reset_dispatch_counts ();
        G.blis_ba ~blocking ~mr ~nr ~kernels:(fun () -> t.R.t_bank) a b c;
        G.naive_f32 a b c_ref;
        Alcotest.(check bool) "GEMM exact" true (M.equal c c_ref);
        Alcotest.(check (triple int int int)) "one native count per tile"
          (((m + mr - 1) / mr) * ((n + nr - 1) / nr), 0, 0)
          (R.ukr_tier_counts ())
      in
      let served = R.exo_table ~kit ~mr ~nr () in
      Alcotest.(check bool) "control: the emitted pair serves" true
        served.R.t_native_info.R.ni_pair;
      Alcotest.(check int) "control: a trailing slot" ((mr * nr) + 1)
        (Array.length served.R.t_bank);
      gemm served;
      let shapes = List.init (mr * nr) (fun i -> ((i / nr) + 1, (i mod nr) + 1)) in
      let src =
        C_emit.native_unit ~target ~lanes
          ~kernels:(List.map (fun (m, n) -> (m, n, None)) shapes)
          ()
        ^ C_emit.native_abi_signature (C_emit.pair_sym ~mr ~nr)
        ^ " { (void)kc; }\n"
      in
      match Jit.compile_c ~src with
      | Error e -> Alcotest.fail ("decoy did not compile: " ^ e)
      | Ok so ->
          let st = Store.of_dir dir and key = R.native_key kit ~mr ~nr ~target ~lanes in
          Store.remove st ~kind:Jit.so_kind ~key;
          ignore (Store.put st ~kind:Jit.so_kind ~key so);
          R.clear_memos_for_bench ();
          Jit.reset_counts ();
          let t = R.exo_table ~kit ~mr ~nr () in
          let _, hits, _, _ = Jit.counts () in
          let ni = t.R.t_native_info in
          Alcotest.(check int) "the planted .so was loaded" 1 hits;
          Alcotest.(check bool) "the pair is not served" false ni.R.ni_pair;
          Alcotest.(check int) "the pair's rejection counted" 1 ni.R.ni_rejected;
          Alcotest.(check int) "every single native" (mr * nr) ni.R.ni_entries;
          Alcotest.(check int) "no trailing slot" (mr * nr)
            (Array.length t.R.t_bank);
          gemm t)
  | _ -> skip "the host's neon-f32 banks serve no two-tile entry"

(* A host cc that rejects [__builtin_shufflevector] (gcc before 12) still
   gets a native bank: the registry falls back to the loop nest at one
   lane instead of degrading the bank to the Bigarray tier. *)
let test_cc_without_shufflevector () =
  match Host.cc () with
  | None -> skip "no C compiler on host"
  | Some cc ->
      with_fresh_tables @@ fun dir ->
      let wrapper = Filename.concat dir "cc-no-shuffle" in
      Out_channel.with_open_text wrapper (fun oc ->
          Printf.fprintf oc
            "#!/bin/sh\n\
             for f in \"$@\"; do\n\
            \  case \"$f\" in *.c) grep -q __builtin_shufflevector \"$f\" && exit 1;; esac\n\
             done\n\
             exec %s \"$@\"\n"
            (Filename.quote cc));
      Unix.chmod wrapper 0o755;
      with_env Host.env_cc wrapper @@ fun () ->
      let kit = K.neon_f32 and mr, nr = (8, 2) in
      let t = R.exo_table ~kit ~mr ~nr () in
      let ni = t.R.t_native_info in
      Alcotest.(check int) "every entry native" (mr * nr) ni.R.ni_entries;
      Alcotest.(check int) "no entry rejected" 0 ni.R.ni_rejected;
      Alcotest.(check int) "emitted at one lane" 1 ni.R.ni_lanes

(* --- compiler identity ---------------------------------------------------- *)

(* A fresh [UKRGEN_CC] wrapper at [dir/name] that logs each [--version] it
   runs, then execs [cc]. A new path is a new memo key, so no banner of an
   earlier case is reused. Returns the wrapper and a count of its logged
   [--version] runs. *)
let logging_cc dir cc name =
  let wrapper = Filename.concat dir name in
  let log = wrapper ^ ".versions" in
  Out_channel.with_open_text wrapper (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh\n\
         case \"$1\" in --version) echo version >> %s;; esac\n\
         exec %s \"$@\"\n"
        (Filename.quote log) (Filename.quote cc));
  Unix.chmod wrapper 0o755;
  let versions () =
    if Sys.file_exists log then
      List.length (In_channel.with_open_text log In_channel.input_lines)
    else 0
  in
  (wrapper, versions)

(* No child process of this one is left, running or unreaped. *)
let no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

(* The table build starts the compiler's [--version] while its entries
   hydrate; the .so key then reads that banner: one [--version] per build,
   the same banner a synchronous call returns, no child left behind. *)
let test_identity_prefetched_once () =
  match Host.cc () with
  | None -> skip "no C compiler on host"
  | Some cc ->
      with_fresh_tables @@ fun dir ->
      let wrapper, versions = logging_cc dir cc "cc-table" in
      let banner =
        with_env Host.env_cc wrapper @@ fun () ->
        let t = R.exo_table ~kit:K.neon_f32 ~mr:4 ~nr:4 () in
        Alcotest.(check bool) "the bank serves native code" true
          (t.R.t_native_info.R.ni_entries > 0);
        Alcotest.(check int) "one --version for the table build" 1 (versions ());
        Alcotest.(check bool) "and was reaped before exo_table returned" true
          (no_children ());
        let banner = Host.cc_identity () in
        Alcotest.(check int) "cc_identity reads the memoized banner" 1
          (versions ());
        banner
      in
      let sync_wrapper, sync_versions = logging_cc dir cc "cc-sync" in
      let sync = with_env Host.env_cc sync_wrapper Host.cc_identity in
      Alcotest.(check int) "a synchronous call runs its own --version" 1
        (sync_versions ());
      Alcotest.(check string) "prefetched banner = synchronous banner" sync
        banner;
      Alcotest.(check bool) "no child process left" true (no_children ())

(* --- graceful degradation ------------------------------------------------- *)

(* the table must still build, serve the Bigarray tier for every call, and
   stay exact — the native tier is an upgrade, never a dependency *)
let check_degraded ~name ~reason_fragment () =
  let kit = K.avx2_f32 in
  let mr, nr = (4, 4) in
  let t = R.exo_table ~kit ~mr ~nr () in
  let ni = t.R.t_native_info in
  Alcotest.(check bool) (name ^ ": tier reports disabled") false ni.R.ni_enabled;
  Alcotest.(check int) (name ^ ": no native entries") 0 ni.R.ni_entries;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Fmt.str "%s: reason %S mentions %S" name ni.R.ni_reason reason_fragment)
    true
    (contains ni.R.ni_reason reason_fragment);
  Alcotest.(check bool) (name ^ ": every entry Bigarray") true
    (Array.for_all (fun e -> e.R.e_tier = R.Bigarray) t.R.t_entries);
  let m, n, k = (14, 10, 23) in
  let a = M.init m k (fun i j -> float_of_int (((i + j) mod 5) - 2)) in
  let b = M.init k n (fun i j -> float_of_int ((((2 * i) + j) mod 5) - 2)) in
  let c = M.create m n in
  let blocking =
    Exo_blis.Analytical.compute Exo_isa.Machine.carmel ~mr ~nr ~dtype_bytes:4
  in
  R.reset_dispatch_counts ();
  G.blis_ba ~blocking ~mr ~nr ~kernels:(R.exo_bank ~kit ~mr ~nr ()) a b c;
  let native_calls, ba_calls, _ = R.ukr_tier_counts () in
  Alcotest.(check int) (name ^ ": zero native dispatches") 0 native_calls;
  Alcotest.(check bool) (name ^ ": bigarray tier served") true (ba_calls > 0);
  let c_ref = M.create m n in
  G.naive_f32 a b c_ref;
  Alcotest.(check bool) (name ^ ": GEMM exact") true (M.equal c c_ref)

let test_degrades_without_tier () =
  with_fresh_tables @@ fun _dir ->
  with_env Host.env_native "0"
    (check_degraded ~name:"UKRGEN_NATIVE=0" ~reason_fragment:"disabled")

let test_degrades_without_cc () =
  with_fresh_tables @@ fun _dir ->
  with_env Host.env_cc "/nonexistent/cc-for-test"
    (check_degraded ~name:"UKRGEN_CC=/nonexistent"
       ~reason_fragment:"no C compiler")

let () =
  Alcotest.run "native"
    [
      ( "host",
        [
          Alcotest.test_case "capability probe is well-formed" `Quick
            test_host_probe;
          Alcotest.test_case "env switches mask the tier per process" `Quick
            test_env_switches;
        ] );
      ( "differential",
        List.map
          (fun kit ->
            Alcotest.test_case
              (kit.K.name ^ ": native = bigarray = interp = naive")
              `Quick (test_differential kit))
          f32_kits );
      ( "counters",
        [
          Alcotest.test_case "counters count dispatches only" `Quick
            test_counters_count_dispatches_only;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "corrupted cached .so recompiles" `Quick
            test_corrupted_so_recompiles;
          Alcotest.test_case "stale-emitter .so is not loaded" `Quick
            test_stale_emitter_so_not_loaded;
          Alcotest.test_case "paired nest: one FMA per k, on any data" `Quick
            test_paired_nest_bit_identical;
          Alcotest.test_case "pair ≡ two paired calls, on any data" `Quick
            test_pair_bit_identical;
          Alcotest.test_case "a rejected pair is not served" `Quick
            test_rejected_pair_not_served;
          Alcotest.test_case "cc without shufflevector: loop-nest bank" `Quick
            test_cc_without_shufflevector;
        ] );
      ( "identity",
        [
          Alcotest.test_case "table build: one --version, prefetched" `Quick
            test_identity_prefetched_once;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "UKRGEN_NATIVE=0: bigarray tier serves" `Quick
            test_degrades_without_tier;
          Alcotest.test_case "masked cc: bigarray tier serves" `Quick
            test_degrades_without_cc;
        ] );
    ]
