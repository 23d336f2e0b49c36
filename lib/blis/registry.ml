(** The micro-kernel registry: the three competitors of Section IV, in both
    numeric form (a kernel table for running real GEMMs through
    {!Gemm.blis_ba}) and model form (a {!Exo_sim.Kernel_model.impl} for the
    performance simulation).

    - [EXO]: the generated family — one specialized kernel per (mr, nr),
      produced on demand by {!Exo_ukr_gen.Family} and cached; numerics run
      through the serving table (native JIT code, else the Bigarray
      executors), checked against the oracle that runs the scheduled IR
      itself: the tree-walking interpreter.
    - [BLIS]: the monolithic 8×12 assembly kernel model (fringe logic,
      prefetch-capable).
    - [NEON]: the monolithic 8×12 hand-written-intrinsics kernel model
      (fringe logic, compiler-scheduled).

    Domain-safety: generated kernels are immutable IR values, so one
    process-wide {!Exo_par.Memo} serves every domain. The kernel table's
    executors are re-entrant (per-call scratch), so one immutable table per
    (kit, mr, nr) is built once and shared by every domain.

    The table holds one {!entry} record per (mr', nr'): shape, tier, and
    two bare executors (Bigarray and serving). An entry enters the table
    one way, {!admit}: its lowered access summary proves under
    {!Exo_check.Tierlint} and names its executor. Build-time probes call
    the executors bare; the one counting wrapper, {!counted}, is applied
    when the table publishes its bank, so the dispatch counters count
    dispatches only.

    Persistence: when an {!Exo_cache.Store} is ambient, an entry's
    artifact is its summary. A warm entry hydrates from it — skipping the
    schedule → certify → lower pipeline — after it re-proves; cold builds
    write the summaries back for the next process. *)

open Exo_ukr_gen
module KM = Exo_sim.Kernel_model
module B = Exo_interp.Buffer
module I = Exo_interp.Interp
module C = Exo_interp.Compile
module Tierlint = Exo_check.Tierlint
module Memo = Exo_par.Memo

(* ------------------------------------------------------------------ *)
(* Generated-kernel cache                                              *)

let cache : (string * int * int, Family.kernel) Memo.t = Memo.create ()

let exo_kernel ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () : Family.kernel =
  Memo.find_or_add cache (kit.Kits.name, mr, nr) (fun () ->
      (* persistent read-through: a warm ambient store answers from disk *)
      Family.generate_cached ~kit ~mr ~nr ())

(** Model impl for a generated kernel. *)
let exo_impl ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () : KM.impl =
  let k = exo_kernel ~kit ~mr ~nr () in
  KM.of_proc ~name:(Fmt.str "EXO %dx%d" mr nr) ~mr ~nr k.Family.proc

let base_8x12 ?(kit = Kits.neon_f32) () = (exo_kernel ~kit ~mr:8 ~nr:12 ()).Family.proc

let blis_impl ?kit () : KM.impl = KM.blis_asm_8x12 (base_8x12 ?kit ())
let neon_impl ?kit () : KM.impl = KM.neon_intrinsics_8x12 (base_8x12 ?kit ())

(* ------------------------------------------------------------------ *)
(* The interpreter oracle                                              *)

(* Eager, not [lazy]: a [Lazy.t] forced concurrently from two domains
   raises [Lazy.Undefined] in OCaml 5. The buffer is read-only (it backs
   the α/β scalar arguments), so sharing one across domains is safe. *)
let ones_buf = B.of_array Exo_ir.Dtype.F32 [ 1 ] [| 1.0 |]

(* The one Bigarray copy-through adapter: copy the tile's operands out to
   float arrays, run the interpreter over row-major buffers of the
   kernel's dtype, copy C back. Every call builds its own buffers, so the
   entry is re-entrant. *)
let interp_entry ~(dt : Exo_ir.Dtype.t) (proc : Exo_ir.Ir.proc) ~(mr : int)
    ~(nr : int) : C.ukr_ba =
  let module BA1 = Bigarray.Array1 in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    let copy ba o n = Array.init n (fun i -> BA1.get ba (o + i)) in
    let cf = copy c co (nr * mr) in
    I.run proc
      [
        I.VInt kc;
        I.VBuf ones_buf;
        I.VBuf (B.of_array dt [ kc; mr ] (copy ac ao (kc * mr)));
        I.VBuf (B.of_array dt [ kc; nr ] (copy bc bo (kc * nr)));
        I.VBuf ones_buf;
        I.VBuf (B.of_array dt [ nr; mr ] cf);
      ];
    Array.iteri (fun i v -> BA1.set c (co + i) v) cf

(* The kernel is resolved per call (a memo lookup), so building an entry
   or a bank generates nothing. *)
let oracle_entry ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () : C.ukr_ba =
 fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
  interp_entry ~dt:kit.Kits.dt (exo_kernel ~kit ~mr ~nr ()).Family.proc ~mr ~nr
    ~kc ~ac ~ao ~bc ~bo ~c ~co

let oracle_bank ?kit ~(mr : int) ~(nr : int) () : unit -> C.ukr_ba array =
  let bank =
    Array.init (mr * nr) (fun idx ->
        oracle_entry ?kit ~mr:((idx / nr) + 1) ~nr:((idx mod nr) + 1) ())
  in
  fun () -> bank

(* ------------------------------------------------------------------ *)
(* The monomorphized (mr' × nr') kernel table                          *)

module Obs = Exo_obs.Obs

type tier = Native | Bigarray

(* Dispatch counters, one per tier. The bench's fallback gate must see every
   call even in plain (non-profile) runs, so the authoritative counts are
   always on; the Obs counters mirror them for the profile exporter (Obs
   drops mutations while disabled).

   Each domain counts into its own cell, held in [Domain.DLS], so a kernel
   call writes no memory another domain writes. A cell is an int array
   whose two counts (indexed by [tier_index]) sit [pad] words in from
   either end, so two cells never share a cache line. Every cell is
   registered once, under [cells_lock], and stays registered for the life
   of the process: reads sum all of them. A GEMM's helpers finish before
   it returns (the pool joins them under its mutex), so the sums are exact
   between GEMMs. *)
let pad = 8
let cells : int array list ref = ref []
let cells_lock = Mutex.create ()

let cell_key : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let cell = Array.make ((2 * pad) + 2) 0 in
      Mutex.protect cells_lock (fun () -> cells := cell :: !cells);
      cell)

let tier_index = function Native -> 0 | Bigarray -> 1
let obs_native = Obs.counter "gemm.ukr_native_calls"
let obs_ba = Obs.counter "gemm.ukr_fast_calls"

(* The third count is the interpreter tier's, which no table serves since
   every entry enters service proved; it stays in the triple for the
   clients that read it. *)
let ukr_tier_counts () =
  Mutex.protect cells_lock (fun () ->
      let sum i = List.fold_left (fun acc cell -> acc + cell.(pad + i)) 0 !cells in
      (sum 0, sum 1, 0))

let reset_dispatch_counts () =
  Mutex.protect cells_lock (fun () ->
      List.iter (fun cell -> Array.fill cell pad 2 0) !cells)

(* The one counting wrapper, applied when a table publishes its bank: one
   closure hop and one increment of the calling domain's own cell per
   call, by [tiles] — the tiles one call computes (2 for the two-tile
   entry), so the counts stay one per tile. A process-wide atomic here,
   which every domain writes, cost a median 0.6-0.7 ms of a 15 ms 1008³
   GEMM on two domains (21k calls). *)
let counted ?(tiles = 1) (tier : tier) (u : C.ukr_ba) : C.ukr_ba =
  let i = pad + tier_index tier
  and obs = match tier with Native -> obs_native | Bigarray -> obs_ba in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    let cell = Domain.DLS.get cell_key in
    Array.unsafe_set cell i (Array.unsafe_get cell i + tiles);
    if Obs.enabled () then Obs.add obs tiles;
    u ~kc ~ac ~ao ~bc ~bo ~c ~co

type native_info = {
  ni_enabled : bool;  (** at least one entry serves JIT'd machine code *)
  ni_target : string;  (** ["intrinsics"] | ["portable"] | ["none"] *)
  ni_cc : string;  (** compiler path, or ["none"] *)
  ni_entries : int;  (** entries serving native code (certified) *)
  ni_rejected : int;  (** entries that failed certification *)
  ni_reason : string;  (** ["ok"], or why the tier is degraded *)
  ni_lanes : int;
      (** f32 lanes the bank's portable nests were emitted for (1: the
          loop nest everywhere), 0 without a native bank *)
  ni_pair : bool;  (** the full tile's two-tile entry certified and serves *)
}

(* Both executors are bare (uncounted): [e_base] is the Bigarray one,
   [e_exec] the serving one — [e_base] unless the upgrade went native. *)
type entry = {
  e_mr : int;
  e_nr : int;
  e_tier : tier;
  e_base : C.ukr_ba;
  e_exec : C.ukr_ba;
}

(* Entries flat at index [(mr'-1)·nr + nr'-1]; [t_bank] holds the same
   slots' [e_exec] wrapped by {!counted} — what {!Gemm.blis_ba} indexes —
   plus, when the native upgrade certified one, the two-tile entry at
   index mr·nr. *)
type table = {
  t_kit : Kits.t;
  t_mr : int;
  t_nr : int;
  t_entries : entry array;
  t_bank : C.ukr_ba array;
  t_native_info : native_info;
}

let slot who (t : table) ~mr ~nr =
  if mr < 1 || mr > t.t_mr || nr < 1 || nr > t.t_nr then
    invalid_arg ("Registry." ^ who ^ ": shape outside the table");
  ((mr - 1) * t.t_nr) + nr - 1

let entry (t : table) ~(mr : int) ~(nr : int) : entry =
  t.t_entries.(slot "entry" t ~mr ~nr)

let table_entry (t : table) ~(mr : int) ~(nr : int) : C.ukr_ba =
  t.t_bank.(slot "table_entry" t ~mr ~nr)

(* ------------------------------------------------------------------ *)
(* Admission and persistent kernel artifacts (Exo_cache)               *)

module Store = Exo_cache.Store

(* The one door into service, cold or warm: an entry's lowered access
   summary must prove under Tierlint, and its executor is the one
   {!C.ukr_ba_of_summary} selects from that summary. [Error] says why
   not. *)
let admit ~(mr : int) ~(nr : int) (s : C.Summary.t) : (C.ukr_ba, string) result =
  if s.C.Summary.mr <> mr || s.C.Summary.nr <> nr then
    Error (Fmt.str "summary is for %dx%d" s.C.Summary.mr s.C.Summary.nr)
  else
    let rep = Tierlint.check s in
    if not (Tierlint.proved rep) then Error (Fmt.str "%a" Tierlint.pp_report rep)
    else
      match C.ukr_ba_of_summary s with
      | Some u -> Ok u
      | None -> Error "no Bigarray executor (runtime predicates or kc >= 1)"

(* An entry's stored artifact is its summary itself: everything a later
   process needs to re-enter service without re-running schedule → certify
   → lower, and what the warm path re-proves before the entry may serve,
   so a stale or tampered artifact can never serve silently. Bump
   [entry_abi] whenever the stored type or executor selection changes
   meaning — old entries then simply miss. *)
let entry_abi = "regtable-v3"
let entry_kind = "kernel"

(* The content address: kit name + kit content digest (invalidates on any
   kit change), shape, pipeline variant, the kit's declared schedule-step
   count, and the compiler version (Marshal is not stable across compilers). *)
let entry_key (kit : Kits.t) ~(mr : int) ~(nr : int) : string =
  Store.key
    [
      entry_abi;
      Sys.ocaml_version;
      kit.Kits.name;
      Kits.digest kit;
      string_of_int kit.Kits.sched_steps;
      string_of_int mr;
      string_of_int nr;
      "simple";
    ]

(* One Bigarray entry. Warm when the ambient store holds a summary that
   still passes {!admit} (one that does not is dropped); cold otherwise:
   generate + certify + lower once, admit that summary, and persist it.
   A cold summary that fails admission fails the table build. *)
let load_entry ~(store : Store.t option) ~(kit : Kits.t) ~(mr : int)
    ~(nr : int) : entry =
  let key = entry_key kit ~mr ~nr in
  let warm st =
    Option.bind (Store.get st ~kind:entry_kind ~key) (fun s ->
        match admit ~mr ~nr s with
        | Ok u -> Some u
        | Error _ ->
            Store.remove st ~kind:entry_kind ~key;
            None)
  in
  let cold () =
    let refuse reason =
      invalid_arg
        (Fmt.str "Registry.exo_table: kit %s entry %dx%d does not prove: %s"
           kit.Kits.name mr nr reason)
    in
    match C.summarize_ukr (exo_kernel ~kit ~mr ~nr ()).Family.proc with
    | None -> refuse "the tape lowering refused the proc"
    | Some s -> (
        match admit ~mr ~nr s with
        | Error reason -> refuse reason
        | Ok u ->
            Option.iter
              (fun st -> ignore (Store.put st ~kind:entry_kind ~key s))
              store;
            u)
  in
  let u = match Option.bind store warm with Some u -> u | None -> cold () in
  { e_mr = mr; e_nr = nr; e_tier = Bigarray; e_base = u; e_exec = u }

let stored_summary (kit : Kits.t) ~(mr : int) ~(nr : int) : C.Summary.t option =
  Option.bind (Store.ambient ()) (fun st ->
      Store.get st ~kind:entry_kind ~key:(entry_key kit ~mr ~nr))

(* ------------------------------------------------------------------ *)
(* The native JIT tier                                                 *)

module Native = Exo_native.Jit
module Host = Exo_native.Host
module C_emit = Exo_codegen.C_emit

(* Part of the shared-object content address: bump whenever the emitted
   ABI, the eligibility rule, or symbol naming changes meaning. *)
let native_abi = "native-v2"

(* The vector ISA a kit's intrinsics emission needs, by naming convention
   (kit names lead with their ISA: neon-f32, avx2-f32, ...). *)
let required_isa (kit : Kits.t) : Host.isa option =
  let prefixed p = String.starts_with ~prefix:p kit.Kits.name in
  if prefixed "neon-" then Some Host.Neon
  else if prefixed "avx2-" then Some Host.Avx2
  else if prefixed "avx512-" then Some Host.Avx512
  else if prefixed "rvv-" then Some Host.Rvv
  else None

(** Which native lowering a kit gets on THIS host: its intrinsics when the
    machine executes the kit's ISA, the portable autovectorizable nest
    otherwise. [None] — no native tier — for non-f32 kits (the fixed ABI
    is float32). *)
let native_target_for (kit : Kits.t) : C_emit.native_target option =
  if kit.Kits.dt <> Exo_ir.Dtype.F32 then None
  else
    match required_isa kit with
    | Some isa when Host.supports isa -> Some C_emit.Nat_intrinsics
    | _ -> Some C_emit.Nat_portable

(* Digest of the portable nests a (mr, nr) bank emits at [lanes] — every
   entry's, since any intrinsics entry whose proc the emitter rejects gets
   the nest as its body, and the full tile's two-tile body where that tile
   is paired. It is the part of the source an emitter change moves without
   touching any other key part; rendering it is cheap and needs no kernel
   build. The lane count is rendered too, so the digest moves with it even
   for a bank where no shape takes the vector form. *)
let portable_digest ~(lanes : int) ~(mr : int) ~(nr : int) : string =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Fmt.str "lanes=%d\n" lanes);
  for idx = 0 to (mr * nr) - 1 do
    C_emit.portable_body b ~lanes ~mr:((idx / nr) + 1) ~nr:((idx mod nr) + 1)
  done;
  if C_emit.paired_form ~lanes ~mr ~nr then C_emit.pair_body b ~lanes ~mr ~nr;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Whether a bank exports its full tile's two-tile entry: only where the
   portable paired body serves that tile. An intrinsics full tile keeps
   its one entry. *)
let serves_pair ~(target : C_emit.native_target) ~(lanes : int) ~(mr : int)
    ~(nr : int) : bool =
  target = C_emit.Nat_portable && C_emit.paired_form ~lanes ~mr ~nr

(* The shared object's content address. Every input that determines the
   source (kit content, shape, pipeline variant, target) is a key part, and
   so is a digest of the emitter's portable nests, so a changed emitter is
   a different entry rather than a stale .so served under the old key; a
   warm hit still skips generating the bank's source. Compiler identity and
   tuning flags are parts too — a .so built by a different compiler, or
   for a different -march, is a different entry. *)
let native_key (kit : Kits.t) ~(mr : int) ~(nr : int)
    ~(target : C_emit.native_target) ~(lanes : int) : string =
  Store.key
    [
      native_abi;
      Sys.ocaml_version;
      kit.Kits.name;
      Kits.digest kit;
      string_of_int kit.Kits.sched_steps;
      string_of_int mr;
      string_of_int nr;
      "simple";
      C_emit.native_target_name target;
      Host.cc_identity ();
      String.concat " " (Host.march_flags ());
      portable_digest ~lanes ~mr ~nr;
    ]

(** The native-ABI C source for a whole kernel bank — one exported
    [exo_ukr_<mr'>x<nr'>] per table entry, plus the full tile's
    [exo_ukr_<mr>x<nr>_x2] where {!serves_pair}. Intrinsics emission pulls each
    scheduled proc from the kernel memo (already populated by the table
    build); the portable lowering needs only the shapes. *)
let native_source ~(kit : Kits.t) ~(mr : int) ~(nr : int)
    ~(target : C_emit.native_target) ~(lanes : int) () : string =
  let kernels =
    List.init (mr * nr) (fun idx ->
        let mr' = (idx / nr) + 1 and nr' = (idx mod nr) + 1 in
        let proc =
          match target with
          | C_emit.Nat_intrinsics ->
              Some (exo_kernel ~kit ~mr:mr' ~nr:nr' ()).Family.proc
          | C_emit.Nat_portable -> None
        in
        (mr', nr', proc))
  in
  let header_comment =
    Fmt.str
      "native kernel bank: kit=%s table=%dx%d target=%s abi=%s\ncc=%s\nlanes=%d"
      kit.Kits.name mr nr
      (C_emit.native_target_name target)
      native_abi (Host.cc_identity ()) lanes
  in
  let pair = if serves_pair ~target ~lanes ~mr ~nr then Some (mr, nr) else None in
  C_emit.native_unit ~header_comment ?pair ~target ~lanes ~kernels ()

(* A bound native kernel as a ukr_ba: the same operand contract as the
   Bigarray tier (ranges checked up front, Invalid_argument on violation)
   in front of the raw no-alloc call. The C tile is the contiguous
   transposed nr×mr layout every blis_ba dispatch site uses — the only one
   the native ABI takes. A two-tile entry ([tiles = 2]) reads two A panels
   and writes two C tiles, each pair contiguous. *)
let native_raw ?(tiles = 1) ~(mr : int) ~(nr : int) ~(slot : int) () : C.ukr_ba =
  let module BA1 = Bigarray.Array1 in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    if
      kc < 0 || ao < 0 || bo < 0 || co < 0
      || ao + (tiles * kc * mr) > BA1.dim ac
      || bo + (kc * nr) > BA1.dim bc
      || co + (tiles * nr * mr) > BA1.dim c
    then invalid_arg "Registry.native: operands out of range";
    Native.call ~slot ~kc ~a:ac ~ao ~b:bc ~bo ~c ~co

(* Decision 12's gate: JIT'd code is certified-then-trusted, never
   trusted-on-load. Bit-comparison against the serving Bigarray-tier entry
   on the integer probe domain (values in [-3, 3] — exact in f32 and f64
   alike, so accumulation order and FMA contraction cannot blur a real
   mismatch), over kc spanning 0, the vector widths and an odd tail. A
   two-tile entry ([tiles = 2]) is compared against [base] called on each
   of its tiles. *)
let certify_native ?(tiles = 1) ~(mr : int) ~(nr : int) ~(base : C.ukr_ba)
    ~(native : C.ukr_ba) () : bool =
  let module BA1 = Bigarray.Array1 in
  try
    List.for_all
      (fun kc ->
        let st = Random.State.make [| 0x9a71; mr; nr; kc |] in
        let mk n =
          let ba = BA1.create Bigarray.float32 Bigarray.c_layout (max 1 n) in
          for i = 0 to n - 1 do
            BA1.set ba i (float_of_int (Random.State.int st 7 - 3))
          done;
          ba
        in
        let a = mk (tiles * kc * mr) and b = mk (kc * nr) in
        let c1 = mk (tiles * nr * mr) in
        let c2 = BA1.create Bigarray.float32 Bigarray.c_layout (BA1.dim c1) in
        BA1.blit c1 c2;
        for t = 0 to tiles - 1 do
          base ~kc ~ac:a ~ao:(t * kc * mr) ~bc:b ~bo:0 ~c:c1 ~co:(t * nr * mr)
        done;
        native ~kc ~ac:a ~ao:0 ~bc:b ~bo:0 ~c:c2 ~co:0;
        let ok = ref true in
        for i = 0 to (tiles * nr * mr) - 1 do
          if not (Float.equal (BA1.get c1 i) (BA1.get c2 i)) then ok := false
        done;
        !ok)
      [ 0; 1; 2; 3; 8; 17 ]
  with _ -> false

let no_native reason =
  {
    ni_enabled = false;
    ni_target = "none";
    ni_cc = "none";
    ni_entries = 0;
    ni_rejected = 0;
    ni_reason = reason;
    ni_lanes = 0;
    ni_pair = false;
  }

(* Upgrade a freshly built table's entries to JIT'd machine code: one
   compilation unit for the whole bank (one cc run, one dlopen, one dlsym
   per kernel), cache-first through the ambient store, then each bound
   kernel certified against the bare Bigarray executor it would replace
   before it may serve. Every entry is eligible: each entered the table
   with a Tierlint proof (bounds, write-set, accumulation shape), which is
   what justifies emitting the canonical nest for its shape. Where
   {!serves_pair}, the full tile's two-tile entry is certified against two
   calls of that tile's bare executor and returned beside the entries; a
   rejected pair is not served and the bank serves singles. Any failure —
   no compiler, compile error on both targets, a certification mismatch —
   degrades that scope gracefully to the Bigarray tier and says why in the
   returned info. *)
let native_upgrade ~(kit : Kits.t) ~(mr : int) ~(nr : int)
    ~(store : Store.t option) (entries : entry array) :
    entry array * C.ukr_ba option * native_info =
  let degraded reason = (entries, None, no_native reason) in
  match native_target_for kit with
  | None -> degraded (Fmt.str "kit %s is not f32" kit.Kits.name)
  | Some primary -> (
      if not (Host.enabled ()) then
        degraded (Fmt.str "disabled (%s=0)" Host.env_native)
      else
        match Host.cc () with
        | None -> degraded "no C compiler on host"
        | Some cc_path -> (
            let syms =
              Array.to_list
                (Array.map (fun e -> C_emit.native_sym ~mr:e.e_mr ~nr:e.e_nr) entries)
            in
            let try_target (target, lanes) =
              let pair = serves_pair ~target ~lanes ~mr ~nr in
              match
                Native.get_or_compile ~store
                  ~key:(native_key kit ~mr ~nr ~target ~lanes)
                  ~src:(fun () -> native_source ~kit ~mr ~nr ~target ~lanes ())
                  ~syms:(if pair then syms @ [ C_emit.pair_sym ~mr ~nr ] else syms)
              with
              | Ok (slots, _from_cache) -> Some (target, lanes, pair, slots)
              | Error _ -> None
            in
            (* each target at the host's lane count, then at one lane: a
               cc without [__builtin_shufflevector] still gets the loop
               nest rather than no native bank *)
            let targets =
              (match primary with
              | C_emit.Nat_portable -> [ C_emit.Nat_portable ]
              | C_emit.Nat_intrinsics ->
                  [ C_emit.Nat_intrinsics; C_emit.Nat_portable ])
              |> List.concat_map (fun t -> [ (t, Host.f32_lanes ()); (t, 1) ])
            in
            match List.find_map try_target targets with
            | None -> degraded "native compilation failed"
            | Some (target, lanes, pair, slots) ->
                let certified = ref 0 and rejected = ref 0 in
                let upgraded =
                  Array.mapi
                    (fun idx e ->
                      let cand =
                        native_raw ~mr:e.e_mr ~nr:e.e_nr ~slot:slots.(idx) ()
                      in
                      if
                        certify_native ~mr:e.e_mr ~nr:e.e_nr ~base:e.e_base
                          ~native:cand ()
                      then begin
                        incr certified;
                        { e with e_tier = Native; e_exec = cand }
                      end
                      else begin
                        incr rejected;
                        e
                      end)
                    entries
                in
                let pair_exec =
                  if not pair then None
                  else
                    let cand =
                      native_raw ~tiles:2 ~mr ~nr ~slot:slots.(mr * nr) ()
                    in
                    if
                      certify_native ~tiles:2 ~mr ~nr
                        ~base:entries.((mr * nr) - 1).e_base ~native:cand ()
                    then Some cand
                    else begin
                      incr rejected;
                      None
                    end
                in
                ( upgraded,
                  pair_exec,
                  {
                    ni_enabled = !certified > 0;
                    ni_target = C_emit.native_target_name target;
                    ni_cc = cc_path;
                    ni_entries = !certified;
                    ni_rejected = !rejected;
                    ni_reason =
                      (if !certified > 0 then "ok"
                       else "all entries failed certification");
                    ni_lanes = lanes;
                    ni_pair = Option.is_some pair_exec;
                  } )))

(** The native-ABI artifacts for a bank without building a table: the
    target this host would pick and the C source ([None] for non-f32
    kits). The CLI's [ukrgen native] writes these out for inspection and
    CI artifact upload. *)
let native_emit ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () :
    (C_emit.native_target * string) option =
  Option.map
    (fun target ->
      (target, native_source ~kit ~mr ~nr ~target ~lanes:(Host.f32_lanes ()) ()))
    (native_target_for kit)

(* One immutable table per (kit, mr, nr) for the whole process. Executors
   are re-entrant (they allocate their scratch per call), so every domain
   of a pool shares the same table — no per-domain rebuilds. *)
let table_memo : (string * int * int, table) Memo.t = Memo.create ()

let exo_table ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () : table =
  if mr < 1 || nr < 1 then invalid_arg "Registry.exo_table: mr and nr must be ≥ 1";
  Memo.find_or_add table_memo (kit.Kits.name, mr, nr) (fun () ->
      Obs.with_span
        ~args:
          (if Obs.enabled () then
             [ ("kit", kit.Kits.name); ("shape", Fmt.str "%dx%d" mr nr) ]
           else [])
        "registry.build_table"
        (fun () ->
          let store = Store.ambient () in
          (* a kit with a native tier keys its .so with the compiler's
             banner: its subprocess runs while the entries hydrate *)
          let prefetch f =
            if Option.is_some (native_target_for kit) then
              Host.with_identity_prefetch f
            else f ()
          in
          prefetch @@ fun () ->
          let built =
            Array.init (mr * nr) (fun idx ->
                load_entry ~store ~kit ~mr:((idx / nr) + 1)
                  ~nr:((idx mod nr) + 1))
          in
          let entries, pair, native_info =
            native_upgrade ~kit ~mr ~nr ~store built
          in
          let bank = Array.map (fun e -> counted e.e_tier e.e_exec) entries in
          {
            t_kit = kit;
            t_mr = mr;
            t_nr = nr;
            t_entries = entries;
            t_bank =
              (match pair with
              | Some u -> Array.append bank [| counted ~tiles:2 Native u |]
              | None -> bank);
            t_native_info = native_info;
          }))

(** Forget every memoized kernel and table so the next {!exo_table} call
    exercises the cold path — the bench's cold/warm A-B harness and the
    cache tests need a genuine rebuild inside one process. Not for
    production paths. *)
let clear_memos_for_bench () =
  Memo.clear cache;
  Memo.clear table_memo

(** The {!Gemm.blis_ba} [kernels] thunk: called once per pool task, it
    resolves the shared table (building it on first use) and hands back
    the flat counted bank for O(1) dispatch. *)
let exo_bank ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () :
    unit -> C.ukr_ba array =
 fun () -> (exo_table ~kit ~mr ~nr ()).t_bank

(** The same table's bare Bigarray executors: the baseline side of the
    bench's native-vs-Bigarray A-B comparison. Uncounted, like the oracle
    banks. *)
let exo_bank_ba ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () :
    unit -> C.ukr_ba array =
 fun () -> Array.map (fun e -> e.e_base) (exo_table ~kit ~mr ~nr ()).t_entries
