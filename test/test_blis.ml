(* BLIS substrate: analytical blocking, packing, the five-loop macro-kernel
   (numerically, against naive GEMM), and the full-GEMM performance model's
   paper-shape properties. *)

module A = Exo_blis.Analytical
module M = Exo_blis.Matrix
module P = Exo_blis.Packing
module G = Exo_blis.Gemm
module D = Exo_blis.Driver
module R = Exo_blis.Registry
module Mach = Exo_isa.Machine

(* --- analytical model --------------------------------------------------- *)

let test_kc_512_on_carmel () =
  (* the paper: "we have set the Kc to 512, which is the value of BLIS
     packing for this ARM architecture" — the model must derive it *)
  let b = A.compute Mach.carmel ~mr:8 ~nr:12 ~dtype_bytes:4 in
  Alcotest.(check int) "kc = 512" 512 b.A.kc

let test_blocking_fits_caches () =
  List.iter
    (fun (mr, nr) ->
      let b = A.compute Mach.carmel ~mr ~nr ~dtype_bytes:4 in
      Alcotest.(check bool)
        (Fmt.str "%dx%d blocking fits" mr nr)
        true
        (A.fits Mach.carmel ~mr ~nr ~dtype_bytes:4 b))
    [ (8, 12); (8, 8); (8, 4); (4, 12); (4, 4); (16, 4) ]

let test_blocking_multiples () =
  let b = A.compute Mach.carmel ~mr:8 ~nr:12 ~dtype_bytes:4 in
  Alcotest.(check int) "mc multiple of mr" 0 (b.A.mc mod 8);
  Alcotest.(check int) "nc multiple of nr" 0 (b.A.nc mod 12)

let test_blocking_f16 () =
  (* halving the element size doubles kc *)
  let b32 = A.compute Mach.carmel ~mr:8 ~nr:12 ~dtype_bytes:4 in
  let b16 = A.compute Mach.carmel ~mr:8 ~nr:12 ~dtype_bytes:2 in
  Alcotest.(check int) "f16 kc doubles" (2 * b32.A.kc) b16.A.kc

(* --- matrix synthesis ---------------------------------------------------- *)

(* The draw order random_int promises: one Random.State.int per element,
   row-major — written out here the long way, through init's closure. *)
let reference_random_int ~bound rows cols st =
  M.init rows cols (fun _ _ ->
      float_of_int (Random.State.int st ((2 * bound) + 1) - bound))

let draw_shapes = [ (1, 1); (3, 5); (64, 7) ]

let test_random_int_draw_order () =
  List.iter
    (fun bound ->
      List.iter
        (fun (rows, cols) ->
          let seed = [| 17; rows; cols; bound |] in
          let want =
            reference_random_int ~bound rows cols (Random.State.make seed)
          in
          let got = M.random_int ~bound rows cols (Random.State.make seed) in
          Alcotest.(check bool)
            (Fmt.str "%dx%d bound %d" rows cols bound)
            true (M.equal want got))
        draw_shapes)
    [ 3; 1 ]

let test_fill_random_int_in_place () =
  List.iter
    (fun (rows, cols) ->
      let seed = [| 29; rows; cols |] in
      let want = reference_random_int ~bound:3 rows cols (Random.State.make seed) in
      let n = rows * cols in
      let data = Array.make (n + 5) 42.0 in
      M.fill_random_int { M.rows; cols; data } (Random.State.make seed);
      Alcotest.(check bool)
        (Fmt.str "%dx%d prefix" rows cols)
        true
        (M.equal want { M.rows; cols; data = Array.sub data 0 n });
      Alcotest.(check (array (float 0.0)))
        (Fmt.str "%dx%d tail untouched" rows cols)
        (Array.make 5 42.0) (Array.sub data n 5))
    draw_shapes;
  Alcotest.check_raises "short storage rejected"
    (Invalid_argument "Matrix.fill_random_int: storage shorter than rows*cols")
    (fun () ->
      M.fill_random_int { M.rows = 2; cols = 3; data = Array.make 5 0.0 }
        (Random.State.make [| 1 |]))

(* The OCaml draw loop, the oracle of the build-time C fill: one
   Random.State.int per element, in index order, over the first rows·cols
   slots. *)
let oracle_fill_random_int ~bound (t : M.t) st =
  let span = (2 * bound) + 1 in
  for i = 0 to (t.M.rows * t.M.cols) - 1 do
    t.M.data.(i) <- float_of_int (Random.State.int st span - bound)
  done

(* [bound]s: zero and one, the default, a wide one, 2^28 (span 2^29 + 1, so
   about half of all draws are rejected and redrawn) and the largest legal
   bound (span 2^30 - 1) *)
let fill_bounds = [ 0; 1; 3; 1000; 1 lsl 28; 0x1FFF_FFFF ]

(* C fill and oracle on twin states over sentinel-tailed buffers: the same
   values, the tail untouched, and the same state afterwards (serialized,
   and the next draws) *)
let fill_matches_oracle ~bound ~seed rows cols =
  let n = rows * cols and tail = 3 in
  let c = Array.make (n + tail) 42.0 and o = Array.make (n + tail) 42.0 in
  let sc = Random.State.make seed and so = Random.State.make seed in
  M.fill_random_int ~bound { M.rows; cols; data = c } sc;
  oracle_fill_random_int ~bound { M.rows; cols; data = o } so;
  let next st = List.init 4 (fun _ -> Random.State.bits st) in
  Array.for_all2 Float.equal c o
  && Array.for_all (Float.equal 42.0) (Array.sub c n tail)
  && Random.State.to_binary_string sc = Random.State.to_binary_string so
  && next sc = next so

let prop_fill_matches_oracle =
  QCheck2.Test.make ~name:"C fill_random_int ≡ OCaml oracle loop" ~count:300
    QCheck2.Gen.(
      quad (int_range 0 70) (int_range 0 70) (oneofl fill_bounds)
        (int_bound 1_000_000))
    (fun (rows, cols, bound, seed) ->
      fill_matches_oracle ~bound ~seed:[| seed |] rows cols)

let test_fill_large_buffer () =
  (* about 1M draws per bound: runs of rejections, far past a test size *)
  List.iter
    (fun bound ->
      Alcotest.(check bool)
        (Fmt.str "1024x1024 bound %d" bound)
        true
        (fill_matches_oracle ~bound ~seed:[| 0x5e12e; bound |] 1024 1024))
    [ 3; 1 lsl 28 ]

let test_fill_bound_range () =
  (* spans outside 1..2^30-1 are rejected, as Random.State.int rejects them *)
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun bound ->
      let t () = { M.rows = 2; cols = 2; data = Array.make 4 0.0 } in
      let st () = Random.State.make [| bound |] in
      Alcotest.(check bool)
        (Fmt.str "bound %d raises" bound)
        true
        (raises (fun () -> M.fill_random_int ~bound (t ()) (st ())));
      Alcotest.(check bool)
        (Fmt.str "the oracle agrees at bound %d" bound)
        true
        (raises (fun () -> oracle_fill_random_int ~bound (t ()) (st ()))))
    [ -1; -2; 0x2000_0000; 0x3FFF_FFFF ];
  Alcotest.(check bool) "empty matrix, bound out of range" true
    (raises (fun () ->
         M.fill_random_int ~bound:(-1)
           { M.rows = 0; cols = 0; data = [||] }
           (Random.State.make [| 0 |])))

let test_random_state_is_lxm () =
  (* the C fill reads Random.State.t as OCaml 5's four-word LXM state; a
     stdlib whose generator or layout changes fails here first *)
  let s = Random.State.to_binary_string (Random.State.make [| 1 |]) in
  Alcotest.(check string) "serialization prefix" "lxm1:" (String.sub s 0 5);
  Alcotest.(check int) "four 64-bit words" (5 + 32) (String.length s)

(* --- packing ------------------------------------------------------------ *)

let arena n =
  let b = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (max 1 n) in
  Bigarray.Array1.fill b 0.0;
  b

(* pack an A block into a fresh arena of exactly [a_arena_size]; panel i
   starts at i · kcb · mr *)
let pack_a a ~ic ~pc ~mcb ~kcb ~mr =
  let dst = arena (P.a_arena_size ~mcb ~kcb ~mr) in
  P.pack_a dst a ~ic ~pc ~mcb ~kcb ~mr;
  dst

let test_pack_a_layout () =
  let a = M.init 10 6 (fun i j -> float_of_int ((100 * i) + j)) in
  let p = pack_a a ~ic:2 ~pc:1 ~mcb:8 ~kcb:4 ~mr:4 in
  let pitch = 4 * 4 in
  Alcotest.(check int) "two full panels" (2 * pitch) (Bigarray.Array1.dim p);
  (* panel 0, k-major: element (kk=0, i=0) is A[2,1] *)
  Alcotest.(check (float 0.0)) "k-major origin" 201.0 (Bigarray.Array1.get p 0);
  (* a full panel has stride mr across k: (kk=1, i=3) of panel 0 is A[5,2] *)
  Alcotest.(check (float 0.0)) "panel 0 full width" 502.0
    (Bigarray.Array1.get p ((1 * 4) + 3));
  (* (kk=1, i=2) of panel 1 is A[2+4+2, 1+1] *)
  Alcotest.(check (float 0.0)) "panel 1 interior" 802.0
    (Bigarray.Array1.get p (pitch + (1 * 4) + 2))

let test_pack_a_edge_panel () =
  let a = M.init 10 6 (fun i j -> float_of_int ((100 * i) + j)) in
  let p = pack_a a ~ic:0 ~pc:0 ~mcb:10 ~kcb:3 ~mr:4 in
  let pitch = 3 * 4 in
  Alcotest.(check int) "three panel slots" (3 * pitch) (Bigarray.Array1.dim p);
  (* the 2-row fringe panel is k-major at its true width: (kk, i) sits at
     kk · 2 + i, a prefix of its slot *)
  Alcotest.(check (float 0.0)) "fringe (kk=0, i=1) is A[9,0]" 900.0
    (Bigarray.Array1.get p ((2 * pitch) + 1));
  Alcotest.(check (float 0.0)) "fringe (kk=2, i=1) is A[9,2]" 902.0
    (Bigarray.Array1.get p ((2 * pitch) + (2 * 2) + 1));
  Alcotest.(check (float 0.0)) "rest of the fringe slot untouched" 0.0
    (Bigarray.Array1.get p ((2 * pitch) + 6))

let test_pack_b_alpha () =
  let b = M.init 4 8 (fun i j -> float_of_int (i + j)) in
  let p = arena (P.b_arena_size ~ncb:8 ~kcb:4 ~nr:4) in
  P.pack_b ~alpha:2.0 p ~off:0 b ~pc:0 ~jc:0 ~kcb:4 ~ncb:8 ~nr:4;
  (* panel 1 starts at kcb · nr; its (kk=0, j=1) is alpha · B[0,5] *)
  Alcotest.(check (float 0.0)) "alpha applied" (2.0 *. 5.0)
    (Bigarray.Array1.get p ((4 * 4) + 1))

let test_pack_bounds () =
  let a = M.init 4 4 (fun _ _ -> 0.0) in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "out-of-range block rejected" true
    (raises (fun () -> pack_a a ~ic:2 ~pc:0 ~mcb:4 ~kcb:4 ~mr:4));
  Alcotest.(check bool) "short A arena rejected" true
    (raises (fun () ->
         P.pack_a (arena 15) a ~ic:0 ~pc:0 ~mcb:4 ~kcb:4 ~mr:4));
  Alcotest.(check bool) "out-of-range B block rejected" true
    (raises (fun () ->
         P.pack_b ~alpha:1.0 (arena 64) ~off:0 a ~pc:1 ~jc:0 ~kcb:4 ~ncb:4
           ~nr:4))

let test_pack_b_offset_bounds () =
  (* the record-free packers the driver calls: pack_b writes from an arena
     offset, and the offset counts against the arena's length *)
  let b = M.init 4 8 (fun i j -> float_of_int (i + j)) in
  let size = P.b_arena_size ~ncb:8 ~kcb:4 ~nr:4 in
  Alcotest.check_raises "offset past the end"
    (Invalid_argument "pack_b_ba: arena too small") (fun () ->
      P.pack_b ~alpha:1.0 (arena (size + 3)) ~off:4 b ~pc:0 ~jc:0 ~kcb:4
        ~ncb:8 ~nr:4);
  Alcotest.check_raises "negative offset"
    (Invalid_argument "pack_b_ba: arena too small") (fun () ->
      P.pack_b ~alpha:1.0 (arena (size + 3)) ~off:(-1) b ~pc:0 ~jc:0 ~kcb:4
        ~ncb:8 ~nr:4);
  Alcotest.check_raises "mr = 0"
    (Invalid_argument "pack_a_ba: block out of range") (fun () ->
      P.pack_a (arena 64) b ~ic:0 ~pc:0 ~mcb:4 ~kcb:4 ~mr:0);
  Alcotest.check_raises "storage shorter than rows*cols"
    (Invalid_argument "pack_b_ba: block out of range") (fun () ->
      P.pack_b ~alpha:1.0 (arena 64) ~off:0
        { b with M.data = Array.make 31 0.0 }
        ~pc:0 ~jc:0 ~kcb:4 ~ncb:8 ~nr:4);
  let dst = arena (size + 3) in
  Bigarray.Array1.fill dst 7.0;
  P.pack_b ~alpha:1.0 dst ~off:3 b ~pc:0 ~jc:0 ~kcb:4 ~ncb:8 ~nr:4;
  Alcotest.(check (float 0.0)) "prefix before the offset untouched" 7.0
    (Bigarray.Array1.get dst 2);
  Alcotest.(check (float 0.0)) "packing starts at the offset" 0.0
    (Bigarray.Array1.get dst 3)

(* The OCaml packing loops, the oracle of the build-time C packers: the
   same index arithmetic, with checked accesses, and the f32 rounding done
   by the Bigarray store. *)
let oracle_pack_a dst (a : M.t) ~ic ~pc ~mcb ~kcb ~mr =
  let lda = a.M.cols in
  for ir = 0 to ((mcb + mr - 1) / mr) - 1 do
    let w = min mr (mcb - (ir * mr)) in
    for kk = 0 to kcb - 1 do
      for i = 0 to w - 1 do
        Bigarray.Array1.set dst
          ((ir * kcb * mr) + (kk * w) + i)
          a.M.data.(((ic + (ir * mr) + i) * lda) + pc + kk)
      done
    done
  done

let oracle_pack_b ~alpha dst ~off (b : M.t) ~pc ~jc ~kcb ~ncb ~nr =
  let ldb = b.M.cols in
  for jr = 0 to ((ncb + nr - 1) / nr) - 1 do
    let w = min nr (ncb - (jr * nr)) in
    for kk = 0 to kcb - 1 do
      for j = 0 to w - 1 do
        Bigarray.Array1.set dst
          (off + (jr * kcb * nr) + (kk * w) + j)
          (alpha *. b.M.data.(((pc + kk) * ldb) + jc + (jr * nr) + j))
      done
    done
  done

(* real values across the f32 range: fractions that need rounding, f32
   subnormals, values that underflow to zero or overflow to infinity, and
   signed zeros *)
let wide_value st =
  match Random.State.int st 8 with
  | 0 -> 1e-40 *. (Random.State.float st 2.0 -. 1.0)
  | 1 -> 1e-50
  | 2 -> 3.5e38 *. (Random.State.float st 2.0 -. 1.0)
  | 3 -> -0.0
  | _ -> ldexp (Random.State.float st 2.0 -. 1.0) (Random.State.int st 40 - 20)

let same_bits (x : P.ba32) (y : P.ba32) =
  Bigarray.Array1.dim x = Bigarray.Array1.dim y
  && (let ok = ref true in
      for i = 0 to Bigarray.Array1.dim x - 1 do
        if
          Int32.bits_of_float (Bigarray.Array1.get x i)
          <> Int32.bits_of_float (Bigarray.Array1.get y i)
        then ok := false
      done;
      !ok)

let prop_packers_match_oracle =
  (* random blocks inside a larger matrix, fringe panel widths included,
     packed into sentinel-filled arenas (B at a random offset): the C and
     OCaml arenas agree bit for bit, so the C packers also write nothing
     outside the slots the oracle writes *)
  QCheck2.Test.make ~name:"C packers ≡ OCaml oracle loops" ~count:200
    QCheck2.Gen.(
      pair
        (quad (int_range 1 16) (int_range 1 16) (int_range 0 40)
           (int_range 0 40))
        (quad (int_range 0 9) (int_range 0 9) (int_range 0 5)
           (oneofl [ 1.0; 2.0; -0.5 ])))
    (fun ((mr, nr, blk, kcb), (i0, p0, off, alpha)) ->
      let st = Random.State.make [| mr; nr; blk; kcb; i0; p0; off |] in
      let mat rows cols = M.init rows cols (fun _ _ -> wide_value st) in
      let sentinel n =
        let d = arena n in
        Bigarray.Array1.fill d 7.0;
        d
      in
      let a = mat (i0 + blk + 2) (p0 + kcb + 3) in
      let na = P.a_arena_size ~mcb:blk ~kcb ~mr + 2 in
      let ca = sentinel na and oa = sentinel na in
      P.pack_a ca a ~ic:i0 ~pc:p0 ~mcb:blk ~kcb ~mr;
      oracle_pack_a oa a ~ic:i0 ~pc:p0 ~mcb:blk ~kcb ~mr;
      let b = mat (p0 + kcb + 1) (i0 + blk + 4) in
      let nb = off + P.b_arena_size ~ncb:blk ~kcb ~nr + 2 in
      let cb = sentinel nb and ob = sentinel nb in
      P.pack_b ~alpha cb ~off b ~pc:p0 ~jc:i0 ~kcb ~ncb:blk ~nr;
      oracle_pack_b ~alpha ob ~off b ~pc:p0 ~jc:i0 ~kcb ~ncb:blk ~nr;
      same_bits ca oa && same_bits cb ob)

(* --- macro-kernel numerics ---------------------------------------------- *)

let small_blocking = { A.mc = 16; kc = 8; nc = 24 }

(* the serving bank (native where certified, Bigarray executors elsewhere)
   and the interpreter oracle bank of the 8x12 family *)
let serving () = R.exo_bank ~mr:8 ~nr:12 ()
let interp_bank = R.oracle_bank ~mr:8 ~nr:12 ()

let test_blis_exact_vs_naive () =
  let st = Random.State.make [| 1 |] in
  List.iter
    (fun (m, n, k) ->
      let a = M.random_int m k st and b = M.random_int k n st in
      let c1 = M.random_int m n st in
      let c2 = M.copy c1 in
      G.naive_f32 a b c1;
      G.blis_ba ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:interp_bank a b c2;
      Alcotest.(check bool) (Fmt.str "%dx%dx%d exact" m n k) true (M.equal c1 c2))
    [ (8, 12, 8); (16, 24, 16); (17, 25, 9); (1, 1, 1); (40, 36, 33); (5, 7, 31) ]

let test_blis_with_exo_kernels () =
  let st = Random.State.make [| 2 |] in
  let m, n, k = (29, 31, 17) in
  let a = M.random_int m k st and b = M.random_int k n st in
  let c1 = M.random_int m n st in
  let c2 = M.copy c1 in
  G.naive_f32 a b c1;
  G.blis_ba ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:(serving ()) a b c2;
  Alcotest.(check bool) "the Exo kernel bank drives the macro-kernel" true
    (M.equal c1 c2)

let test_blis_compiled_vs_interpreted_ukr () =
  (* the compiled serving bank (native code, else the monomorphized
     Bigarray executors) against the tree-walking oracle, through the full
     macro-kernel: bit-identical C *)
  let st = Random.State.make [| 4 |] in
  let m, n, k = (19, 23, 13) in
  let a = M.random_int m k st and b = M.random_int k n st in
  let c1 = M.random_int m n st in
  let c2 = M.copy c1 in
  G.blis_ba ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:(serving ()) a b c1;
  G.blis_ba ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:interp_bank a b c2;
  Alcotest.(check bool) "compiled ≡ interpreted through the macro-kernel" true
    (M.equal c1 c2)

let test_blis_alpha_beta () =
  let st = Random.State.make [| 3 |] in
  let m, n, k = (13, 11, 7) in
  let a = M.random_int m k st and b = M.random_int k n st in
  let c1 = M.random_int m n st in
  let c2 = M.copy c1 in
  G.naive_f32 ~alpha:2.0 ~beta:(-1.0) a b c1;
  G.blis_ba ~alpha:2.0 ~beta:(-1.0) ~blocking:small_blocking ~mr:8 ~nr:12
    ~kernels:interp_bank a b c2;
  Alcotest.(check bool) "alpha/beta handled" true (M.equal c1 c2)

(* fringe-heavy DL shapes: m and n deliberately not multiples of mr/nr, so
   every jc/ic block ends in fringe panels driven by specialized kernels *)
let fringe_shapes = [ (49, 50, 16); (23, 100, 7); (50, 13, 21); (49, 31, 33) ]

let test_blis_exo_fringe_heavy () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun (m, n, k) ->
      let a = M.random_int m k st and b = M.random_int k n st in
      let c1 = M.random_int m n st in
      let c2 = M.copy c1 in
      G.naive_f32 a b c1;
      G.blis_ba ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:(serving ()) a b
        c2;
      Alcotest.(check bool)
        (Fmt.str "%dx%dx%d fringe-heavy exact" m n k)
        true (M.equal c1 c2))
    fringe_shapes

let test_blis_pool_width_invariance () =
  (* nc = nr splits n into many jc blocks: the result is bit-identical no
     matter how many domains execute them *)
  let st = Random.State.make [| 11 |] in
  let m, n, k = (49, 100, 33) in
  let a = M.random_int m k st and b = M.random_int k n st in
  let c0 = M.random_int m n st in
  let run jobs =
    let c = M.copy c0 in
    let pool = Exo_par.Pool.create ~jobs () in
    G.blis_ba ~alpha:2.0 ~beta:(-1.0) ~pool ~ws:(G.workspace ())
      ~blocking:{ A.mc = 16; kc = 8; nc = 12 } ~mr:8 ~nr:12
      ~kernels:(serving ()) a b c;
    c
  in
  let c1 = run 1 and c2 = run 2 and c4 = run 4 in
  Alcotest.(check bool) "jobs 1 ≡ jobs 2 (bit-exact)" true (M.equal c1 c2);
  Alcotest.(check bool) "jobs 1 ≡ jobs 4 (bit-exact)" true (M.equal c1 c4)

let test_blis_workspace_reuse () =
  (* repeated GEMMs through one workspace reuse (and grow) the same arenas
     and stay correct *)
  let st = Random.State.make [| 13 |] in
  let ws = G.workspace () in
  List.iter
    (fun (m, n, k) ->
      let a = M.random_int m k st and b = M.random_int k n st in
      let c1 = M.random_int m n st in
      let c2 = M.copy c1 in
      G.naive_f32 a b c1;
      G.blis_ba ~ws ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:(serving ())
        a b c2;
      Alcotest.(check bool) (Fmt.str "%dx%dx%d via shared ws" m n k) true
        (M.equal c1 c2))
    [ (40, 36, 33); (5, 7, 31); (49, 50, 16); (16, 24, 16) ]

let batch_problems seed =
  let st = Random.State.make [| seed |] in
  let mk (m, n, k) =
    let a = M.random_int m k st and b = M.random_int k n st in
    let c = M.random_int m n st in
    (a, b, M.copy c, c)
  in
  let probs = List.map mk [ (49, 50, 16); (16, 24, 16); (5, 7, 31) ] in
  List.iter (fun (a, b, _, c_ref) -> G.naive_f32 ~beta:0.5 a b c_ref) probs;
  let ps =
    List.map
      (fun (a, b, c, _) ->
        {
          G.p_a = a;
          p_b = b;
          p_c = c;
          p_alpha = 1.0;
          p_beta = 0.5;
          p_blocking = small_blocking;
          p_mr = 8;
          p_nr = 12;
        })
      probs
  in
  (probs, ps)

let test_gemm_batch () =
  (* a workload list through one workspace + pool on the interpreter
     oracle bank matches per-problem naive *)
  let probs, ps = batch_problems 17 in
  G.batch_ba ~ws:(G.workspace ()) ~kernels:interp_bank ps;
  List.iter
    (fun (_, _, c, c_ref) ->
      Alcotest.(check bool) "batch layer exact" true (M.equal c c_ref))
    probs

(* --- monomorphized Bigarray tier ----------------------------------------- *)

module K = Exo_ukr_gen.Kits

let test_table_complete_all_families () =
  (* the generated dispatch table builds on every kit and covers every
     (mr', nr') pair at its own slot, each entry served by native code or
     its proved Bigarray executor — the monomorphized nest for f32, the
     tape for f16 and i32 *)
  List.iter
    (fun kit ->
      let t = R.exo_table ~kit ~mr:8 ~nr:12 () in
      Alcotest.(check int)
        (Fmt.str "%s: 96 entries" kit.K.name)
        96
        (Array.length t.R.t_entries);
      Array.iteri
        (fun idx (e : R.entry) ->
          Alcotest.(check (pair int int))
            (Fmt.str "%s: slot %d shape" kit.K.name idx)
            ((idx / 12) + 1, (idx mod 12) + 1)
            (e.R.e_mr, e.R.e_nr);
          Alcotest.(check bool)
            (Fmt.str "%s: %dx%d Bigarray or Native" kit.K.name e.R.e_mr e.R.e_nr)
            true
            (match e.R.e_tier with R.Bigarray | R.Native -> true))
        t.R.t_entries)
    K.all

let test_table_dispatch_is_array_indexing () =
  (* dispatch is O(1): table_entry is the flat-bank element at
     (mr'-1)·nr + nr'-1, and repeated table builds hit the per-domain memo *)
  let t = R.exo_table ~mr:8 ~nr:12 () in
  for mr' = 1 to 8 do
    for nr' = 1 to 12 do
      let by_index = t.R.t_bank.(((mr' - 1) * 12) + nr' - 1) in
      Alcotest.(check bool)
        (Fmt.str "entry (%d,%d) is the indexed slot" mr' nr')
        true
        (R.table_entry t ~mr:mr' ~nr:nr' == by_index)
    done
  done;
  Alcotest.(check bool) "table memoized process-wide" true
    (R.exo_table ~mr:8 ~nr:12 () == t);
  (* one immutable table for the whole process: every domain of every pool
     width resolves the same physical table (no per-domain rebuilds) *)
  List.iter
    (fun jobs ->
      let pool = Exo_par.Pool.create ~jobs () in
      List.iter
        (fun t' ->
          Alcotest.(check bool)
            (Fmt.str "width %d: physically the shared table" jobs)
            true (t' == t))
        (Exo_par.Pool.map pool
           (fun _ -> R.exo_table ~mr:8 ~nr:12 ())
           [ 0; 1; 2; 3 ]))
    [ 1; 2; 4 ];
  Alcotest.check_raises "shape outside the table"
    (Invalid_argument "Registry.table_entry: shape outside the table")
    (fun () ->
      let _e : G.ukr_ba = R.table_entry t ~mr:9 ~nr:1 in
      ());
  Alcotest.check_raises "nr outside the table"
    (Invalid_argument "Registry.table_entry: shape outside the table")
    (fun () ->
      let _e : G.ukr_ba = R.table_entry t ~mr:1 ~nr:13 in
      ())

let test_blis_ba_exact_and_counters () =
  (* the Bigarray tier matches naive_f32 on fringe-heavy shapes and never
     touches the interpreter fallback *)
  let st = Random.State.make [| 19 |] in
  let kernels = R.exo_bank ~mr:8 ~nr:12 () in
  R.reset_dispatch_counts ();
  List.iter
    (fun (m, n, k) ->
      let a = M.random_int m k st and b = M.random_int k n st in
      let c1 = M.random_int m n st in
      let c2 = M.copy c1 in
      G.naive_f32 ~alpha:2.0 ~beta:(-1.0) a b c1;
      G.blis_ba ~alpha:2.0 ~beta:(-1.0) ~blocking:small_blocking ~mr:8 ~nr:12
        ~kernels a b c2;
      Alcotest.(check bool)
        (Fmt.str "%dx%dx%d bigarray tier exact" m n k)
        true (M.equal c1 c2))
    ((1, 1, 1) :: (7, 11, 3) :: (5, 7, 0) :: fringe_shapes);
  let native, ba, fallback = R.ukr_tier_counts () in
  Alcotest.(check bool) "monomorphized entries fired" true (native + ba > 0);
  Alcotest.(check int) "no interpreter fallbacks" 0 fallback

let test_blis_ba_pool_width_invariance () =
  (* the row-slice split: a small-n shape with a single B panel still fans
     out over m, bit-identical at every width *)
  let st = Random.State.make [| 29 |] in
  let m, n, k = (61, 12, 17) in
  let a = M.random_int m k st and b = M.random_int k n st in
  let c0 = M.random_int m n st in
  let kernels = R.exo_bank ~mr:8 ~nr:12 () in
  let run jobs =
    let c = M.copy c0 in
    let pool = Exo_par.Pool.create ~jobs () in
    G.blis_ba ~alpha:2.0 ~beta:(-1.0) ~pool ~ws:(G.workspace ())
      ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels a b c;
    c
  in
  let c_ref = M.copy c0 in
  G.naive_f32 ~alpha:2.0 ~beta:(-1.0) a b c_ref;
  let c1 = run 1 and c2 = run 2 and c4 = run 4 in
  Alcotest.(check bool) "width 1 exact vs naive" true (M.equal c_ref c1);
  Alcotest.(check bool) "jobs 1 ≡ jobs 2 (bit-exact)" true (M.equal c1 c2);
  Alcotest.(check bool) "jobs 1 ≡ jobs 4 (bit-exact)" true (M.equal c1 c4)

(* bit-for-bit equality of two matrices: unlike [M.equal], +0 and -0
   differ here, and NaN equals only the same NaN *)
let bits_equal (x : M.t) (y : M.t) =
  x.M.rows = y.M.rows && x.M.cols = y.M.cols
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       (Array.sub x.M.data 0 (x.M.rows * x.M.cols))
       (Array.sub y.M.data 0 (y.M.rows * y.M.cols))

(* [blis_ba] at widths 1-4 against naive f32 on fresh copies of [c0], bit
   for bit *)
let check_widths ~name ?(alpha = 1.0) ?(beta = 1.0) ?ws ~blocking a b c0 =
  let c_ref = M.copy c0 in
  G.naive_f32 ~alpha ~beta a b c_ref;
  List.iter
    (fun jobs ->
      let c = M.copy c0 in
      let ws = match ws with Some ws -> ws | None -> G.workspace () in
      G.blis_ba ~alpha ~beta ~pool:(Exo_par.Pool.create ~jobs ()) ~ws
        ~blocking ~mr:8 ~nr:12 ~kernels:(serving ()) a b c;
      Alcotest.(check bool)
        (Fmt.str "%s, width %d" name jobs)
        true (bits_equal c c_ref))
    [ 1; 2; 3; 4 ]

let test_blis_ba_decomposition_edges () =
  (* the pack-B-once, row-sliced decomposition against naive f32 at widths
     1-4, on the shapes where its split arithmetic is easiest to get wrong,
     and the C accumulator's: three and more pc blocks with a short last
     one, several jc blocks (the last one narrow), and beta outside {0, 1}
     folded into the gather *)
  let st = Random.State.make [| 37 |] in
  let default = A.compute Mach.carmel ~mr:8 ~nr:12 ~dtype_bytes:4 in
  let cases =
    [
      (* name, (m, n, k), blocking, alpha, beta *)
      ("default blocking, m crosses mc", (903, 25, 21), default, 1.0, 1.0);
      ("default blocking, beta 0", (40, 36, 33), default, 1.0, 0.0);
      ("m < mr (one panel)", (5, 30, 9), small_blocking, 1.0, 1.0);
      ("m < mr * width", (12, 30, 9), small_blocking, 2.0, 0.5);
      ("width > B panels", (29, 7, 11), small_blocking, 1.0, 1.0);
      ("n_jc > 1 and n_pc > 1", (37, 61, 30), small_blocking, 1.0, 1.0);
      ("fringe rows, alpha and beta", (61, 50, 19), small_blocking, 2.0, -1.0);
      ("mc not a multiple of mr", (45, 26, 17), { A.mc = 20; kc = 8; nc = 24 },
       -1.0, 2.0);
      ("k = 0 still scales by beta", (13, 14, 0), small_blocking, 2.0, -1.0);
      ("n_pc 3, last kc 5, n_jc 3", (61, 50, 21), small_blocking, 1.0, 1.0);
      ("n_pc 5, last kc 1, n_jc 2", (43, 37, 33), { A.mc = 24; kc = 8; nc = 36 },
       2.0, 1.0);
      ("beta 0.5, n_pc 2", (29, 26, 16), small_blocking, 1.0, 0.5);
      ("beta -3, n_pc 4, n_jc 3", (50, 61, 27), small_blocking, -1.0, -3.0);
    ]
  in
  List.iter
    (fun (name, (m, n, k), blocking, alpha, beta) ->
      let a = M.random_int m k st and b = M.random_int k n st in
      check_widths
        ~name:(Fmt.str "%s (%dx%dx%d)" name m n k)
        ~alpha ~beta ~blocking a b (M.random_int m n st))
    cases

(* --- the f32 C accumulator ----------------------------------------------- *)

let test_accumulator_no_stale_tiles () =
  (* one workspace reused big -> small -> big: between calls C is
     overwritten and the accumulator filled with NaN, so a tile that
     skipped its gather would show up in the result *)
  let st = Random.State.make [| 47 |] in
  let ws = G.workspace () in
  List.iter
    (fun (m, n, k, beta) ->
      let a = M.random_int m k st and b = M.random_int k n st in
      let c0 = M.init m n (fun i j -> float_of_int (1000 + (i * n) + j)) in
      let _, _, cw = G.arenas ws in
      Bigarray.Array1.fill cw Float.nan;
      check_widths
        ~name:(Fmt.str "%dx%dx%d beta %g, reused workspace" m n k beta)
        ~beta ~ws ~blocking:small_blocking a b c0)
    [ (61, 50, 30, 1.0); (9, 13, 5, 0.5); (61, 50, 30, 0.0); (20, 30, 17, 2.0) ]

let test_accumulator_steady_state () =
  (* a second same-shape GEMM on one workspace regrows no arena, the
     arenas start on a 64-byte boundary, and the call allocates no more
     minor words than the per-kc-block tile copy it replaced did at this
     shape and width (4289 on the native tier, 5669 on the Bigarray tier) *)
  let st = Random.State.make [| 41 |] in
  let m, n, k = (61, 50, 30) in
  let a = M.random_int m k st and b = M.random_int k n st in
  let c = M.random_int m n st in
  let pool = Exo_par.Pool.create ~jobs:1 () and ws = G.workspace () in
  let kernels = serving () in
  let run () =
    G.blis_ba ~beta:0.5 ~pool ~ws ~blocking:small_blocking ~mr:8 ~nr:12
      ~kernels a b c
  in
  run ();
  let aw, bw, cw = G.arenas ws in
  let native0, _, _ = R.ukr_tier_counts () in
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  let native1, _, _ = R.ukr_tier_counts () in
  let aw', bw', cw' = G.arenas ws in
  Alcotest.(check bool) "A arena kept" true (aw == aw');
  Alcotest.(check bool) "B arena kept" true (bw == bw');
  Alcotest.(check bool) "C accumulator kept" true (cw == cw');
  List.iter
    (fun (name, ar) ->
      Alcotest.(check int) (name ^ " 64-byte aligned") 0
        (Exo_native.Jit.address ar land 63))
    [ ("A arena", aw); ("B arena", bw); ("C accumulator", cw) ];
  let bound = if native1 > native0 then 4289.0 else 5669.0 in
  if words > bound then
    Alcotest.failf "steady-state call allocated %.0f minor words (bound %.0f)"
      words bound

let test_blis_ba_beta_bit_identical () =
  (* the C gather and scatter at beta 0 (a zero-filled slot), 0.5 and 1,
     with one pc block (a per-slice slot) and with three and four (the
     tile-major accumulator), bit for bit against naive f32 *)
  let st = Random.State.make [| 53 |] in
  List.iter
    (fun beta ->
      List.iter
        (fun (label, (m, n, k)) ->
          let a = M.random_int m k st and b = M.random_int k n st in
          check_widths
            ~name:(Fmt.str "beta %g, %s (%dx%dx%d)" beta label m n k)
            ~alpha:2.0 ~beta ~blocking:small_blocking a b (M.random_int m n st))
        [
          ("n_pc = 1", (37, 50, 8));
          ("n_pc = 3", (37, 50, 21));
          ("n_pc = 4, n_jc = 2", (61, 29, 32));
        ])
    [ 0.0; 0.5; 1.0 ]

let test_beta0_never_reads_c () =
  (* BLAS semantics: at beta = 0, C is output only. A C full of NaN, Inf
     or -Inf leaves no trace, at k = 0 (no kernel call), k <= kc (one pc
     block) and k > kc (the accumulator), at every width, and naive_f32
     follows the same rule *)
  let st = Random.State.make [| 59 |] in
  List.iter
    (fun (fill, v) ->
      List.iter
        (fun (label, (m, n, k)) ->
          let a = M.random_int m k st and b = M.random_int k n st in
          let c0 = M.create ~init:v m n in
          let c_ref = M.copy c0 in
          G.naive_f32 ~beta:0.0 a b c_ref;
          Alcotest.(check bool)
            (Fmt.str "naive_f32: %s in C, %s, finite" fill label)
            true
            (Array.for_all Float.is_finite c_ref.M.data);
          let c_zero = M.create m n in
          G.naive_f32 ~beta:0.0 a b c_zero;
          Alcotest.(check bool)
            (Fmt.str "naive_f32: %s in C, %s, as from a zero C" fill label)
            true (bits_equal c_ref c_zero);
          check_widths
            ~name:(Fmt.str "%s in C, beta 0, %s (%dx%dx%d)" fill label m n k)
            ~beta:0.0 ~blocking:small_blocking a b c0)
        [
          ("k = 0", (13, 14, 0));
          ("k <= kc", (29, 37, 8));
          ("k > kc", (29, 37, 30));
        ])
    [ ("NaN", Float.nan); ("Inf", Float.infinity); ("-Inf", Float.neg_infinity) ]

(* --- dispatch counters ---------------------------------------------------- *)

(* the kernel calls a GEMM makes: one per (pc block, row panel, column
   panel), whatever the width, since slices are whole row panels *)
let tile_calls ~(blocking : A.blocking) (m, n, k) =
  let n_pc = (k + blocking.A.kc - 1) / blocking.A.kc in
  let col_panels = ref 0 in
  let jc = ref 0 in
  while !jc < n do
    col_panels := !col_panels + ((min blocking.A.nc (n - !jc) + 11) / 12);
    jc := !jc + blocking.A.nc
  done;
  n_pc * ((m + 7) / 8) * !col_panels

let test_counters_exact_per_tile () =
  (* per-domain cells summed: exactly one count per kernel call at widths
     1-4, all native where the table serves native code *)
  let t = R.exo_table ~mr:8 ~nr:12 () in
  let all_native = t.R.t_native_info.R.ni_entries = 96 in
  let st = Random.State.make [| 61 |] in
  List.iter
    (fun ((m, n, k) as shape) ->
      let a = M.random_int m k st and b = M.random_int k n st in
      let tiles = tile_calls ~blocking:small_blocking shape in
      List.iter
        (fun jobs ->
          R.reset_dispatch_counts ();
          G.blis_ba ~pool:(Exo_par.Pool.create ~jobs ()) ~ws:(G.workspace ())
            ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:(serving ()) a b
            (M.create m n);
          let native, ba, fallback = R.ukr_tier_counts () in
          let name = Fmt.str "%dx%dx%d, width %d" m n k jobs in
          if all_native then
            Alcotest.(check (triple int int int))
              (name ^ ": every tile native") (tiles, 0, 0)
              (native, ba, fallback)
          else
            Alcotest.(check (pair int int))
              (name ^ ": every tile counted, no fallback") (tiles, 0)
              (native + ba, fallback))
        [ 1; 2; 3; 4 ])
    [ (61, 50, 21); (16, 24, 8); (5, 7, 31); (97, 13, 9) ]

let test_reset_zeroes_helper_cells () =
  (* two items on a width-2 pool, each waiting until both have started, so
     the pool's helper domain runs one of them: each bumps its own
     domain's cell through the counted bank, the totals sum both cells, and
     a reset zeroes the helper's cell as well as the caller's *)
  let t = R.exo_table ~mr:8 ~nr:12 () in
  let kernel = R.table_entry t ~mr:1 ~nr:1 in
  let started = Atomic.make 0 in
  let call _ =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    let ac = arena 1 and bc = arena 1 and c = arena 1 in
    kernel ~kc:1 ~ac ~ao:0 ~bc ~bo:0 ~c ~co:0;
    Domain.self ()
  in
  R.reset_dispatch_counts ();
  let doms = Exo_par.Pool.map (Exo_par.Pool.create ~jobs:2 ()) call [ 0; 1 ] in
  Alcotest.(check bool) "the two calls ran on two domains" true
    (match doms with [ d0; d1 ] -> d0 <> d1 | _ -> false);
  let native, ba, fallback = R.ukr_tier_counts () in
  Alcotest.(check int) "both domains' cells summed" 2 (native + ba + fallback);
  R.reset_dispatch_counts ();
  Alcotest.(check (triple int int int)) "reset zeroes every cell" (0, 0, 0)
    (R.ukr_tier_counts ())

(* --- driver allocation ---------------------------------------------------- *)

let test_driver_allocation_per_gemm () =
  (* with tracing off the driver allocates nothing per block or per tile:
     a steady-state GEMM at width 1 allocates a small fixed number of minor
     words (the pool fan-outs of each (jc, pc) block and the table lookup),
     the same for one mc block as for nine. Checked on a no-op kernel
     table, which isolates the driver, and on the serving bank where it is
     native (counting wrapper and native call included); the Bigarray
     executors allocate per call of their own *)
  let pool = Exo_par.Pool.create ~jobs:1 () in
  let words kernels (m, n, k) =
    let st = Random.State.make [| m; n; k |] in
    let a = M.random_int m k st and b = M.random_int k n st in
    let c = M.random_int m n st in
    let ws = G.workspace () in
    let run () =
      G.blis_ba ~beta:0.5 ~pool ~ws ~blocking:small_blocking ~mr:8 ~nr:12
        ~kernels a b c
    in
    run ();
    let w0 = Gc.minor_words () in
    run ();
    Gc.minor_words () -. w0
  in
  let noop : G.ukr_ba = fun ~kc:_ ~ac:_ ~ao:_ ~bc:_ ~bo:_ ~c:_ ~co:_ -> () in
  let noop_bank = Array.make 96 noop in
  let native = (R.exo_table ~mr:8 ~nr:12 ()).R.t_native_info.R.ni_entries = 96 in
  List.iter
    (fun (name, kernels) ->
      let one = words kernels (16, 50, 30) and many = words kernels (141, 50, 30) in
      Alcotest.(check (float 0.0)) (name ^ ": one mc block ≡ nine") one many;
      if one > 1500.0 then
        Alcotest.failf "%s: steady-state GEMM allocated %.0f minor words (bound 1500)"
          name one)
    (("no-op kernels", fun () -> noop_bank)
    :: (if native then [ ("native serving bank", serving ()) ] else []))

let test_gemm_batch_ba () =
  (* the workload batch through the serving bank matches per-problem naive *)
  let probs, ps = batch_problems 31 in
  G.batch_ba ~ws:(G.workspace ()) ~kernels:(serving ()) ps;
  List.iter
    (fun (_, _, c, c_ref) ->
      Alcotest.(check bool) "batch_ba layer exact" true (M.equal c c_ref))
    probs

let prop_blis_ba_cross_tier_all_kits =
  (* random shapes including m < mr, n < nr and k = 0, across every kit:
     the serving bank and the interpreter oracle agree bit for bit, and
     both match naive_f32 (integer data keeps every dtype exact:
     |Σ| ≤ 3·3·24 + 3 < 2^11, within f16's exact-integer range) *)
  QCheck2.Test.make
    ~name:"serving bank ≡ interp oracle ≡ naive (all kits)"
    ~count:8
    QCheck2.Gen.(triple (int_range 1 20) (int_range 1 30) (int_range 0 24))
    (fun (m, n, k) ->
      List.for_all
        (fun kit ->
          let st = Random.State.make [| m; n; k; 37 |] in
          let a = M.random_int m k st and b = M.random_int k n st in
          let c0 = M.random_int m n st in
          let c_naive = M.copy c0 in
          G.naive_f32 a b c_naive;
          let run kernels =
            let c = M.copy c0 in
            G.blis_ba ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels a b c;
            c
          in
          let c_ba = run (R.exo_bank ~kit ~mr:8 ~nr:12 ()) in
          let c_interp = run (R.oracle_bank ~kit ~mr:8 ~nr:12 ()) in
          M.equal c_naive c_ba && M.equal c_ba c_interp)
        K.all)

let prop_blis_exo_fringe_random =
  QCheck2.Test.make
    ~name:"blocked GEMM + specialized kernels ≡ naive (fringe-heavy sizes)"
    ~count:25
    QCheck2.Gen.(triple (int_range 1 60) (int_range 1 60) (int_range 1 40))
    (fun (m0, n0, k) ->
      (* skew away from tile multiples so fringes dominate *)
      let m = if m0 mod 8 = 0 then m0 + 1 else m0 in
      let n = if n0 mod 12 = 0 then n0 + 1 else n0 in
      let st = Random.State.make [| m; n; k; 23 |] in
      let a = M.random_int m k st and b = M.random_int k n st in
      let c1 = M.random_int m n st in
      let c2 = M.copy c1 in
      G.naive_f32 a b c1;
      G.blis_ba ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:(serving ()) a b
        c2;
      M.equal c1 c2)

let prop_blis_equals_naive =
  QCheck2.Test.make ~name:"blocked GEMM ≡ naive (random sizes)" ~count:30
    QCheck2.Gen.(triple (int_range 1 33) (int_range 1 29) (int_range 1 21))
    (fun (m, n, k) ->
      let st = Random.State.make [| m; n; k |] in
      let a = M.random_int m k st and b = M.random_int k n st in
      let c1 = M.random_int m n st in
      let c2 = M.copy c1 in
      G.naive_f32 a b c1;
      G.blis_ba ~blocking:small_blocking ~mr:8 ~nr:12 ~kernels:interp_bank a b c2;
      M.equal c1 c2)

let prop_blis_exo_random_blocking =
  QCheck2.Test.make ~name:"blocked GEMM ≡ naive under random blockings" ~count:15
    QCheck2.Gen.(
      quad (int_range 1 20) (int_range 1 20) (int_range 1 15) (int_range 1 4))
    (fun (m, n, k, f) ->
      let blocking = { A.mc = 8 * f; kc = 3 * f; nc = 12 * f } in
      let st = Random.State.make [| m; n; k; f |] in
      let a = M.random_int m k st and b = M.random_int k n st in
      let c1 = M.random_int m n st in
      let c2 = M.copy c1 in
      G.naive_f32 a b c1;
      G.blis_ba ~blocking ~mr:8 ~nr:12 ~kernels:interp_bank a b c2;
      M.equal c1 c2)

(* --- the two-tile entry ------------------------------------------------- *)

(* A pair over the Bigarray executors, in the slot the registry publishes
   a native one: two calls of the full tile's executor, on A's panels at
   [ao] and [ao + kc·mr] and C's tiles at [co] and [co + mr·nr]. It drives
   the driver's two-tile path on any host, with or without a native
   pair. *)
let bigarray_pair_bank =
  let single = R.exo_bank_ba ~mr:8 ~nr:12 () () in
  let full = single.(95) in
  Array.append single
    [|
      (fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
        full ~kc ~ac ~ao ~bc ~bo ~c ~co;
        full ~kc ~ac ~ao:(ao + (kc * 8)) ~bc ~bo ~c ~co:(co + 96));
    |]

let pair_pools = List.map (fun jobs -> Exo_par.Pool.create ~jobs ()) [ 1; 2; 3; 4 ]

(* One case of the two-tile property: at β ∈ {0, 0.5, 1} the Interp
   oracle bank at width 1 is the reference, and at widths 1-4 the serving
   bank (with its trailing slot where this host serves a pair), the same
   bank without that slot and [bigarray_pair_bank] must give it bit for
   bit *)
let pair_case_ok ~blocking (m, n, k) =
  let st = Random.State.make [| m; n; k; blocking.A.mc; blocking.A.kc; 43 |] in
  let a = M.random_int m k st and b = M.random_int k n st in
  let c0 = M.random_int m n st in
  let serving = serving () () in
  let banks = [ serving; Array.sub serving 0 96; bigarray_pair_bank ] in
  List.for_all
    (fun beta ->
      let run ?pool kernels =
        let c = M.copy c0 in
        G.blis_ba ~beta ?pool ~ws:(G.workspace ()) ~blocking ~mr:8 ~nr:12
          ~kernels a b c;
        c
      in
      let c_ref = run ~pool:(List.hd pair_pools) interp_bank in
      List.for_all
        (fun pool ->
          List.for_all
            (fun bank -> bits_equal (run ~pool (fun () -> bank)) c_ref)
            banks)
        pair_pools)
    [ 0.0; 0.5; 1.0 ]

let test_pair_driver_cases () =
  (* the shapes the two-tile path is easiest to get wrong, each named *)
  List.iter
    (fun (name, blocking, shape) ->
      Alcotest.(check bool) name true (pair_case_ok ~blocking shape))
    [
      ("mc = 3 mr: an odd last tile per block, n_pc = 1",
       { A.mc = 24; kc = 16; nc = 24 }, (61, 30, 9));
      ("mc = 5 mr + 3, n_pc = 3, n_jc = 2",
       { A.mc = 43; kc = 8; nc = 24 }, (77, 37, 21));
      ("an even tile count, every tile paired", { A.mc = 32; kc = 8; nc = 36 },
       (64, 36, 8));
      ("m < 2 mr: no pair fits", { A.mc = 32; kc = 8; nc = 24 }, (13, 25, 17));
      ("fringe columns only", { A.mc = 64; kc = 8; nc = 24 }, (48, 7, 11));
      ("k = 0", small_blocking, (40, 25, 0));
    ]

let prop_blis_ba_pair =
  QCheck2.Test.make
    ~name:"two-tile slot ≡ singles ≡ interp oracle (random blockings, widths 1-4)"
    ~count:30
    QCheck2.Gen.(
      pair
        (triple (int_range 1 70) (int_range 1 40) (int_range 0 30))
        (quad (int_range 1 6) (int_range 0 7) (int_range 2 16) (int_range 1 3)))
    (fun (shape, (f, r, kc, g)) ->
      pair_case_ok ~blocking:{ A.mc = (8 * f) + r; kc; nc = 12 * g } shape)

(* --- driver (performance model) ----------------------------------------- *)

let machine = Mach.carmel

let gflops setup m n k = D.gflops machine setup ~m ~n ~k

let test_fig14_blis_wins_squarish () =
  List.iter
    (fun sz ->
      let blis = gflops (D.blis_lib ()) sz sz sz in
      let alg_exo = gflops (D.alg_exo ()) sz sz sz in
      let alg_blis = gflops (D.alg_blis ()) sz sz sz in
      let alg_neon = gflops (D.alg_neon ()) sz sz sz in
      Alcotest.(check bool) (Fmt.str "BLIS best at %d" sz) true (blis >= alg_exo);
      Alcotest.(check bool) (Fmt.str "ALG+EXO > ALG+BLIS at %d" sz) true
        (alg_exo > alg_blis);
      Alcotest.(check bool) (Fmt.str "ALG+BLIS > ALG+NEON at %d" sz) true
        (alg_blis > alg_neon))
    [ 2000; 4000; 5000 ]

let test_fig14_sane_magnitudes () =
  let g = gflops (D.blis_lib ()) 4000 4000 4000 in
  Alcotest.(check bool) "squarish BLIS between 80% and 100% of peak" true
    (g > 0.8 *. Mach.peak_gflops machine Exo_ir.Dtype.F32
    && g <= Mach.peak_gflops machine Exo_ir.Dtype.F32)

let test_exo_wins_skinny_m () =
  (* the DL fringe case the paper motivates: m = 49 *)
  let exo = gflops (D.alg_exo ()) 49 2048 512 in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("ALG+EXO wins m=49 vs " ^ D.name_of s) true
        (exo > gflops s 49 2048 512))
    [ D.blis_lib (); D.alg_blis (); D.alg_neon () ]

let test_driver_positive_and_bounded () =
  List.iter
    (fun s ->
      let g = gflops s 784 128 512 in
      Alcotest.(check bool) (D.name_of s ^ " positive") true (g > 0.0);
      Alcotest.(check bool) (D.name_of s ^ " ≤ peak") true
        (g <= Mach.peak_gflops machine Exo_ir.Dtype.F32))
    (D.all_setups ())

let test_tuner_ranking () =
  let results = Exo_blis.Tuner.sweep machine ~m:784 ~n:512 ~k:256 in
  Alcotest.(check bool) "several candidates" true (List.length results >= 5);
  let sorted =
    List.for_all2
      (fun (a : Exo_blis.Tuner.result) b -> a.Exo_blis.Tuner.gflops >= b.Exo_blis.Tuner.gflops)
      (List.filteri (fun i _ -> i < List.length results - 1) results)
      (List.tl results)
  in
  Alcotest.(check bool) "sorted best first" true sorted

let test_tuner_best_at_least_family_choice () =
  (* exhaustive tuning can only match or beat the default family selection *)
  List.iter
    (fun (m, n, k) ->
      let tuned = (Exo_blis.Tuner.best machine ~m ~n ~k).Exo_blis.Tuner.gflops in
      let default = D.gflops machine (D.alg_exo ()) ~m ~n ~k in
      Alcotest.(check bool)
        (Fmt.str "(%d,%d,%d): tuned %.2f ≥ default %.2f" m n k tuned default)
        true
        (tuned >= default -. 1e-9))
    [ (2000, 2000, 2000); (49, 2048, 512); (3136, 64, 64) ]

let test_tuner_feasibility () =
  (* shapes that exceed the register file are rejected up front *)
  Alcotest.(check bool) "24x16 infeasible on 32 regs" false
    (Exo_blis.Tuner.feasible machine ~lanes:4 ~mr:24 ~nr:16);
  Alcotest.(check bool) "8x12 feasible" true
    (Exo_blis.Tuner.feasible machine ~lanes:4 ~mr:8 ~nr:12);
  Alcotest.(check bool) "odd mr infeasible" false
    (Exo_blis.Tuner.feasible machine ~lanes:4 ~mr:6 ~nr:8)

let test_tuner_memoized () =
  let a = Exo_blis.Tuner.sweep machine ~m:100 ~n:100 ~k:100 in
  let b = Exo_blis.Tuner.sweep machine ~m:100 ~n:100 ~k:100 in
  Alcotest.(check bool) "same list object (memoized)" true (a == b)

let test_tuner_shapes_not_conflated () =
  (* regression: the memo key must include the candidate-shape list — a
     custom [?shapes] sweep on a problem already swept with the defaults
     used to return the default-shapes ranking *)
  let m, n, k = (101, 103, 107) in
  let _ = Exo_blis.Tuner.sweep machine ~m ~n ~k in
  let custom = Exo_blis.Tuner.sweep ~shapes:[ (4, 4) ] machine ~m ~n ~k in
  Alcotest.(check int) "one candidate" 1 (List.length custom);
  let r = List.hd custom in
  Alcotest.(check int) "mr = 4" 4 r.Exo_blis.Tuner.mr;
  Alcotest.(check int) "nr = 4" 4 r.Exo_blis.Tuner.nr;
  (* and the default entry is still intact afterwards *)
  let again = Exo_blis.Tuner.sweep machine ~m ~n ~k in
  Alcotest.(check bool) "default entry preserved" true (List.length again > 1)

let test_tuner_key_no_name_aliasing () =
  (* regression: the memo key holds the machine and kit names as separate
     tuple fields. The old key concatenated them, so machine "colneon" with
     kit "-f32" aliased machine "col" with kit "neon-f32" and the second
     sweep stole the first one's ranking. *)
  let kit = Exo_ukr_gen.Kits.neon_f32 in
  Alcotest.(check string) "kit name" "neon-f32" kit.Exo_ukr_gen.Kits.name;
  let m1 = { machine with Exo_isa.Machine.name = "colneon" } in
  let k1 = { kit with Exo_ukr_gen.Kits.name = "-f32" } in
  let m2 = { machine with Exo_isa.Machine.name = "col" } in
  let m, n, k = (211, 223, 227) in
  let a = Exo_blis.Tuner.sweep ~kit:k1 m1 ~m ~n ~k in
  let b = Exo_blis.Tuner.sweep ~kit m2 ~m ~n ~k in
  Alcotest.(check bool) "distinct memo entries" false (a == b);
  (* and each configuration still hits its own entry *)
  Alcotest.(check bool) "entry 1 memoized" true
    (a == Exo_blis.Tuner.sweep ~kit:k1 m1 ~m ~n ~k);
  Alcotest.(check bool) "entry 2 memoized" true
    (b == Exo_blis.Tuner.sweep ~kit m2 ~m ~n ~k)

let test_tuner_jobs_identical () =
  (* the ranking is identical no matter how many domains price it *)
  let m, n, k = (311, 313, 317) in
  Exo_blis.Tuner.clear_cache ();
  let one = Exo_blis.Tuner.sweep ~jobs:1 machine ~m ~n ~k in
  Exo_blis.Tuner.clear_cache ();
  let four = Exo_blis.Tuner.sweep ~jobs:4 machine ~m ~n ~k in
  Alcotest.(check bool) "rankings identical at 1 vs 4 domains" true (one = four)

let test_driver_no_feasible_shape () =
  (* a machine whose register file fits no candidate shape must fail with a
     descriptive error, not a bare List.hd exception *)
  let tiny =
    {
      machine with
      Exo_isa.Machine.name = "tiny-regs";
      vec = { machine.Exo_isa.Machine.vec with Exo_isa.Memories.num_regs = 2 };
    }
  in
  match D.time tiny (D.alg_exo ()) ~m:96 ~n:96 ~k:96 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      let has_substr s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Fmt.str "message %S names the problem" msg)
        true
        (has_substr msg "no register-feasible" && has_substr msg "tiny-regs")

let test_driver_time_memoized () =
  let s = D.alg_exo () in
  let a = D.time machine s ~m:301 ~n:303 ~k:305 in
  let b = D.time machine s ~m:301 ~n:303 ~k:305 in
  Alcotest.(check bool) "same result object (memoized)" true (a == b);
  (* distinct setups must not collide on a key *)
  let c = D.time machine (D.blis_lib ()) ~m:301 ~n:303 ~k:305 in
  let d = D.time machine (D.alg_blis ()) ~m:301 ~n:303 ~k:305 in
  Alcotest.(check bool) "prefetch distinguishes setups" true (fst c <> fst d)

let test_driver_key_no_name_aliasing () =
  (* regression: the time memo key was a '/'-joined string, so machine
     "col/blis" with kernel "-asm" aliased machine "col" with kernel
     "blis/-asm" and the second configuration stole the first's cached
     timing. The key is now a structured tuple. *)
  let base = R.base_8x12 () in
  let impl = Exo_sim.Kernel_model.blis_asm_8x12 base in
  let m1 = { machine with Exo_isa.Machine.name = "col/blis" } in
  let s1 =
    D.Monolithic
      { impl = { impl with Exo_sim.Kernel_model.name = "-asm" }; prefetch = true }
  in
  let m2 = { machine with Exo_isa.Machine.name = "col" } in
  let s2 =
    D.Monolithic
      {
        impl = { impl with Exo_sim.Kernel_model.name = "blis/-asm" };
        prefetch = true;
      }
  in
  let m, n, k = (401, 403, 405) in
  let a = D.time m1 s1 ~m ~n ~k in
  let b = D.time m2 s2 ~m ~n ~k in
  Alcotest.(check bool) "distinct memo entries" false (a == b);
  (* and each configuration still hits its own entry *)
  Alcotest.(check bool) "entry 1 memoized" true (a == D.time m1 s1 ~m ~n ~k);
  Alcotest.(check bool) "entry 2 memoized" true (b == D.time m2 s2 ~m ~n ~k)

let test_f16_gemm_speedup () =
  (* the contributed f16 path roughly doubles end-to-end throughput *)
  let f16 = D.Exo_family Exo_ukr_gen.Kits.neon_f16 in
  let f32 = D.alg_exo () in
  List.iter
    (fun (m, n, k) ->
      let r =
        D.gflops Mach.carmel_fp16 f16 ~m ~n ~k /. D.gflops machine f32 ~m ~n ~k
      in
      Alcotest.(check bool)
        (Fmt.str "(%d,%d,%d): f16/f32 ratio %.2f in [1.5, 2.1]" m n k r)
        true
        (r >= 1.5 && r <= 2.1))
    [ (2000, 2000, 2000); (784, 512, 128) ]

let test_setup_names () =
  Alcotest.(check (list string)) "legend names"
    [ "ALG+NEON"; "ALG+BLIS"; "ALG+EXO"; "BLIS" ]
    (List.map D.name_of (D.all_setups ()))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_blis_equals_naive; prop_blis_exo_random_blocking;
        prop_blis_exo_fringe_random; prop_blis_ba_cross_tier_all_kits;
        prop_blis_ba_pair;
      ]
  in
  Alcotest.run "blis"
    [
      ( "analytical",
        [
          Alcotest.test_case "kc = 512 on Carmel" `Quick test_kc_512_on_carmel;
          Alcotest.test_case "fits caches" `Quick test_blocking_fits_caches;
          Alcotest.test_case "multiples" `Quick test_blocking_multiples;
          Alcotest.test_case "f16 doubles kc" `Quick test_blocking_f16;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "random_int draw order" `Quick
            test_random_int_draw_order;
          Alcotest.test_case "fill_random_int in place" `Quick
            test_fill_random_int_in_place;
          QCheck_alcotest.to_alcotest prop_fill_matches_oracle;
          Alcotest.test_case "fill ≡ oracle on a 1M buffer" `Quick
            test_fill_large_buffer;
          Alcotest.test_case "fill bound range" `Quick test_fill_bound_range;
          Alcotest.test_case "Random.State is LXM" `Quick
            test_random_state_is_lxm;
        ] );
      ( "packing",
        [
          Alcotest.test_case "A layout" `Quick test_pack_a_layout;
          Alcotest.test_case "A edge panel" `Quick test_pack_a_edge_panel;
          Alcotest.test_case "B alpha" `Quick test_pack_b_alpha;
          Alcotest.test_case "bounds" `Quick test_pack_bounds;
          Alcotest.test_case "B at an arena offset" `Quick
            test_pack_b_offset_bounds;
          QCheck_alcotest.to_alcotest prop_packers_match_oracle;
        ] );
      ( "gemm",
        [
          Alcotest.test_case "exact vs naive" `Quick test_blis_exact_vs_naive;
          Alcotest.test_case "with Exo kernels" `Quick test_blis_with_exo_kernels;
          Alcotest.test_case "compiled vs interpreted ukr" `Quick
            test_blis_compiled_vs_interpreted_ukr;
          Alcotest.test_case "alpha/beta" `Quick test_blis_alpha_beta;
          Alcotest.test_case "fringe-heavy DL shapes" `Quick
            test_blis_exo_fringe_heavy;
          Alcotest.test_case "pool-width invariance" `Quick
            test_blis_pool_width_invariance;
          Alcotest.test_case "workspace reuse" `Quick test_blis_workspace_reuse;
          Alcotest.test_case "batch" `Quick test_gemm_batch;
          Alcotest.test_case "table complete (all families)" `Quick
            test_table_complete_all_families;
          Alcotest.test_case "table dispatch is array indexing" `Quick
            test_table_dispatch_is_array_indexing;
          Alcotest.test_case "bigarray tier exact + no fallbacks" `Quick
            test_blis_ba_exact_and_counters;
          Alcotest.test_case "bigarray tier row-slice invariance" `Quick
            test_blis_ba_pool_width_invariance;
          Alcotest.test_case "row-sliced decomposition edges, widths 1-4"
            `Quick test_blis_ba_decomposition_edges;
          Alcotest.test_case "batch (bigarray tier)" `Quick test_gemm_batch_ba;
          Alcotest.test_case "accumulator leaks no stale tiles" `Quick
            test_accumulator_no_stale_tiles;
          Alcotest.test_case "accumulator steady state" `Quick
            test_accumulator_steady_state;
          Alcotest.test_case "beta 0, 0.5, 1 bit-identical, n_pc 1 and 3+"
            `Quick test_blis_ba_beta_bit_identical;
          Alcotest.test_case "beta 0 never reads C (NaN, Inf), widths 1-4"
            `Quick test_beta0_never_reads_c;
          Alcotest.test_case "counters: one per tile, widths 1-4" `Quick
            test_counters_exact_per_tile;
          Alcotest.test_case "counters: reset zeroes helper cells" `Quick
            test_reset_zeroes_helper_cells;
          Alcotest.test_case "driver allocation fixed per GEMM" `Quick
            test_driver_allocation_per_gemm;
          Alcotest.test_case "two-tile slot: named edge cases, widths 1-4"
            `Quick test_pair_driver_cases;
        ]
        @ props );
      ( "driver",
        [
          Alcotest.test_case "Fig. 14 orderings" `Quick test_fig14_blis_wins_squarish;
          Alcotest.test_case "Fig. 14 magnitudes" `Quick test_fig14_sane_magnitudes;
          Alcotest.test_case "skinny-m EXO win" `Quick test_exo_wins_skinny_m;
          Alcotest.test_case "positive and bounded" `Quick test_driver_positive_and_bounded;
          Alcotest.test_case "setup names" `Quick test_setup_names;
          Alcotest.test_case "tuner ranking" `Quick test_tuner_ranking;
          Alcotest.test_case "tuner beats default" `Quick test_tuner_best_at_least_family_choice;
          Alcotest.test_case "tuner feasibility" `Quick test_tuner_feasibility;
          Alcotest.test_case "tuner memoized" `Quick test_tuner_memoized;
          Alcotest.test_case "tuner shapes not conflated" `Quick
            test_tuner_shapes_not_conflated;
          Alcotest.test_case "tuner key no name aliasing" `Quick
            test_tuner_key_no_name_aliasing;
          Alcotest.test_case "tuner jobs identical" `Quick test_tuner_jobs_identical;
          Alcotest.test_case "driver no feasible shape" `Quick
            test_driver_no_feasible_shape;
          Alcotest.test_case "driver time memoized" `Quick test_driver_time_memoized;
          Alcotest.test_case "driver key no name aliasing" `Quick
            test_driver_key_no_name_aliasing;
          Alcotest.test_case "f16 gemm speedup" `Quick test_f16_gemm_speedup;
        ] );
    ]
