(* C emission: structure of the generated code, golden 8x12 kernel, and —
   when a host C compiler is available — syntactic validation of the AVX-512
   retargeting plus a numeric end-to-end check compiled and executed on the
   host. *)

module C = Exo_codegen.C_emit
module Family = Exo_ukr_gen.Family

let gen ?kit ~mr ~nr () = (Family.generate ?kit ~mr ~nr ()).Family.proc

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains msg hay needle =
  Alcotest.(check bool) (msg ^ ": contains " ^ needle) true (contains hay needle)

let test_8x12_structure () =
  let c = C.proc_to_c (gen ~mr:8 ~nr:12 ()) in
  check_contains "decl" c "float32x4_t C_reg[12][2];";
  check_contains "A regs" c "float32x4_t A_reg[2];";
  check_contains "B regs" c "float32x4_t B_reg[3];";
  check_contains "k loop" c "for (int_fast32_t k = 0; k < KC; k++)";
  check_contains "vld" c "vld1q_f32(&Ac[k * 8 + 0])";
  check_contains "fmla" c
    "vfmaq_laneq_f32(C_reg[4 * jt + jtt][it], A_reg[it], B_reg[jt], jtt)";
  check_contains "vst" c "vst1q_f32(&C[";
  check_contains "signature" c
    "void uk_8x12_neon_f32(int_fast32_t KC, const float* alpha, const float* Ac, const float* Bc, const float* beta, float* C)"

let test_const_qualifiers () =
  let c = C.proc_to_c (gen ~mr:8 ~nr:12 ()) in
  check_contains "read-only A" c "const float* Ac";
  check_contains "written C is not const" c ", float* C)"

let test_row_kernel_emits () =
  let c = C.proc_to_c (gen ~mr:1 ~nr:12 ()) in
  check_contains "scalar-broadcast fma" c "vfmaq_n_f32";
  check_contains "C loads vectorized over j" c "vld1q_f32(&C["

let test_f16_kernel_emits () =
  let c = C.proc_to_c (gen ~kit:Exo_ukr_gen.Kits.neon_f16 ~mr:8 ~nr:16 ()) in
  check_contains "f16 type" c "float16x8_t";
  check_contains "f16 intrinsics" c "vfmaq_laneq_f16";
  check_contains "f16 pointers" c "const float16_t* Ac"

let test_scalar_kernel_emits () =
  let c = C.proc_to_c (gen ~mr:3 ~nr:5 ()) in
  check_contains "plain loops" c "C[j * 3 + i] += Ac[k * 3 + i] * Bc[k * 5 + j];"

let test_compilation_unit () =
  let procs = [ gen ~mr:8 ~nr:12 (); gen ~mr:8 ~nr:8 () ] in
  let unit_ = C.compilation_unit ~header_comment:"test" procs in
  check_contains "header include once" unit_ "#include <arm_neon.h>";
  check_contains "both kernels" unit_ "uk_8x8_neon_f32";
  let h = C.header procs in
  check_contains "prototypes" h "void uk_8x12_neon_f32(";
  check_contains "guard" h "#ifndef EXO_UKR_GENERATED_H"

let test_register_access_rejected () =
  (* a kernel that still addresses a register buffer element-wise (i.e. was
     never fully vectorized) must not emit *)
  let open Exo_ir in
  let open Ir in
  let open Builder in
  let reg = Sym.fresh "reg" and out = Sym.fresh "out" and i = Sym.fresh "i" in
  let p =
    mk_proc ~name:"bad"
      ~args:[ tensor_arg out Dtype.F32 [ int 4 ] ]
      [
        SAlloc (reg, Dtype.F32, [ int 4 ], Exo_isa.Neon.mem);
        loopn i (int 4) [ assign reg [ var i ] (flt 0.0) ];
        loopn (Sym.fresh "i") (int 4) [ assign out [ var i ] (rd reg [ var i ]) ];
      ]
  in
  Alcotest.(check bool) "unvectorized register access rejected" true
    (try
       ignore (C.proc_to_c p);
       false
     with C.Codegen_error _ -> true)

(* --- host-compiler validation ---------------------------------------- *)

let have_gcc = Sys.command "gcc --version > /dev/null 2>&1" = 0

let have_avx512 =
  have_gcc && Sys.command "echo | gcc -mavx512f -E - > /dev/null 2>&1" = 0

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let have_avx2 =
  have_gcc && Sys.command "echo | gcc -mavx2 -mfma -E - > /dev/null 2>&1" = 0

let test_avx2_compiles () =
  if not have_avx2 then ()
  else begin
    let p = gen ~kit:Exo_ukr_gen.Kits.avx2_f32 ~mr:16 ~nr:6 () in
    let dir = Filename.temp_file "exoukr2" "" in
    Sys.remove dir;
    ignore (Sys.command (Fmt.str "mkdir -p %s" dir));
    let cfile = Filename.concat dir "uk.c" in
    write_file cfile (C.compilation_unit [ p ]);
    let rc =
      Sys.command
        (Fmt.str "gcc -mavx2 -mfma -O2 -c %s -o %s 2> /dev/null" cfile
           (Filename.concat dir "uk.o"))
    in
    Alcotest.(check int) "gcc accepts the emitted AVX2 C" 0 rc
  end

(* Compile an AVX2 kernel with a checking main() and run it: most x86-64
   hosts (unlike AVX-512) can execute this. *)
let test_avx2_runs () =
  if not have_avx2 then ()
  else begin
    let cpu_has = Sys.command "grep -q avx2 /proc/cpuinfo 2>/dev/null" = 0 in
    let cpu_fma = Sys.command "grep -q fma /proc/cpuinfo 2>/dev/null" = 0 in
    if not (cpu_has && cpu_fma) then ()
    else begin
      let p = gen ~kit:Exo_ukr_gen.Kits.avx2_f32 ~mr:8 ~nr:4 () in
      let main =
        {|
#include <stdio.h>
int main(void) {
  enum { MR = 8, NR = 4, KC = 29 };
  static float Ac[KC*MR], Bc[KC*NR], C[NR*MR], R[NR*MR], one = 1.0f;
  for (int i = 0; i < KC*MR; i++) Ac[i] = (float)(i % 7 - 3);
  for (int i = 0; i < KC*NR; i++) Bc[i] = (float)(i % 5 - 2);
  for (int i = 0; i < NR*MR; i++) C[i] = R[i] = (float)(i % 3);
  for (int k = 0; k < KC; k++)
    for (int j = 0; j < NR; j++)
      for (int i = 0; i < MR; i++)
        R[j*MR + i] += Ac[k*MR + i] * Bc[k*NR + j];
  uk_8x4_avx2_f32(KC, &one, Ac, Bc, &one, C);
  for (int i = 0; i < NR*MR; i++)
    if (C[i] != R[i]) { printf("mismatch at %d: %f vs %f\n", i, C[i], R[i]); return 1; }
  return 0;
}
|}
      in
      let dir = Filename.temp_file "exoukr3" "" in
      Sys.remove dir;
      ignore (Sys.command (Fmt.str "mkdir -p %s" dir));
      let cfile = Filename.concat dir "run.c" in
      write_file cfile (C.compilation_unit [ p ] ^ main);
      let exe = Filename.concat dir "run" in
      let rc =
        Sys.command (Fmt.str "gcc -mavx2 -mfma -O2 %s -o %s 2> /dev/null" cfile exe)
      in
      Alcotest.(check int) "compiles" 0 rc;
      Alcotest.(check int) "emitted AVX2 kernel computes correctly on this host" 0
        (Sys.command exe)
    end
  end

let test_avx512_compiles () =
  if not have_avx512 then ()
  else begin
    let p = gen ~kit:Exo_ukr_gen.Kits.avx512_f32 ~mr:32 ~nr:6 () in
    let dir = Filename.temp_file "exoukr" "" in
    Sys.remove dir;
    ignore (Sys.command (Fmt.str "mkdir -p %s" dir));
    let cfile = Filename.concat dir "uk.c" in
    write_file cfile (C.compilation_unit [ p ]);
    let rc =
      Sys.command
        (Fmt.str "gcc -mavx512f -O2 -c %s -o %s 2> /dev/null" cfile
           (Filename.concat dir "uk.o"))
    in
    Alcotest.(check int) "gcc accepts the emitted AVX-512 C" 0 rc
  end

(* Compile an AVX-512 kernel together with a checking main() and execute it:
   real-hardware validation of the emitted code (runs only on x86-64 hosts
   with AVX-512; gcc's -mavx512f alone does not guarantee the CPU has it,
   so we let the harness tell us). *)
let test_avx512_runs () =
  if not have_avx512 then ()
  else begin
    let cpu_has = Sys.command "grep -q avx512f /proc/cpuinfo 2>/dev/null" = 0 in
    if not cpu_has then ()
    else begin
      let p = gen ~kit:Exo_ukr_gen.Kits.avx512_f32 ~mr:16 ~nr:4 () in
      let main =
        {|
#include <stdio.h>
#include <stdlib.h>
int main(void) {
  enum { MR = 16, NR = 4, KC = 37 };
  static float Ac[KC*MR], Bc[KC*NR], C[NR*MR], R[NR*MR], one = 1.0f;
  for (int i = 0; i < KC*MR; i++) Ac[i] = (float)(i % 7 - 3);
  for (int i = 0; i < KC*NR; i++) Bc[i] = (float)(i % 5 - 2);
  for (int i = 0; i < NR*MR; i++) C[i] = R[i] = (float)(i % 3);
  for (int k = 0; k < KC; k++)
    for (int j = 0; j < NR; j++)
      for (int i = 0; i < MR; i++)
        R[j*MR + i] += Ac[k*MR + i] * Bc[k*NR + j];
  uk_16x4_avx512_f32(KC, &one, Ac, Bc, &one, C);
  for (int i = 0; i < NR*MR; i++)
    if (C[i] != R[i]) { printf("mismatch at %d: %f vs %f\n", i, C[i], R[i]); return 1; }
  return 0;
}
|}
      in
      let dir = Filename.temp_file "exoukr" "" in
      Sys.remove dir;
      ignore (Sys.command (Fmt.str "mkdir -p %s" dir));
      let cfile = Filename.concat dir "run.c" in
      write_file cfile (C.compilation_unit [ p ] ^ main);
      let exe = Filename.concat dir "run" in
      let rc = Sys.command (Fmt.str "gcc -mavx512f -O2 %s -o %s 2> /dev/null" cfile exe) in
      Alcotest.(check int) "compiles" 0 rc;
      Alcotest.(check int) "emitted kernel computes the right values on hardware" 0
        (Sys.command exe)
    end
  end

(* The exported wrappers of a native unit, each as its text from its
   signature line to the blank line that closes it. *)
let native_wrappers unit_ =
  let lines = String.split_on_char '\n' unit_ in
  let rec go acc cur = function
    | [] -> List.rev (match cur with Some w -> w :: acc | None -> acc)
    | l :: rest -> (
        if String.starts_with ~prefix:"void exo_ukr_" l then
          go (match cur with Some w -> w :: acc | None -> acc) (Some l) rest
        else
          match cur with
          | Some w when l = "" -> go (w :: acc) None rest
          | Some w -> go acc (Some (w ^ "\n" ^ l)) rest
          | None -> go acc None rest)
  in
  go [] None lines

(* Every native-bank entry has exactly one body: an intrinsics wrapper
   whose proc was emitted only calls it (no portable accumulator behind a
   layout branch), the portable unit is the nest alone, and the ABI
   carries no stride. Renders C only, so it runs on any host. *)
let test_native_unit_one_body () =
  let kit = Exo_ukr_gen.Kits.avx2_f32 and mr, nr = (4, 6) in
  let shapes = List.init (mr * nr) (fun i -> ((i / nr) + 1, (i mod nr) + 1)) in
  let intrinsics =
    C.native_unit ~target:C.Nat_intrinsics ~lanes:8
      ~kernels:
        (List.map
           (fun (m, n) ->
             (m, n, Some (Exo_blis.Registry.exo_kernel ~kit ~mr:m ~nr:n ()).Family.proc))
           shapes)
      ()
  in
  let portable =
    C.native_unit ~target:C.Nat_portable ~lanes:8
      ~kernels:(List.map (fun (m, n) -> (m, n, None)) shapes)
      ()
  in
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check int) (name ^ ": one exported kernel per entry") (mr * nr)
        (List.length (native_wrappers unit_));
      Alcotest.(check bool) (name ^ ": no ldc anywhere") false
        (contains unit_ "ldc"))
    [ ("intrinsics", intrinsics); ("portable", portable) ];
  let calls w = contains w "(kc, &one, A, B, &one, C);" in
  let wrappers = native_wrappers intrinsics in
  Alcotest.(check bool) "intrinsics: some wrapper calls its proc" true
    (List.exists calls wrappers);
  List.iter
    (fun w ->
      if calls w then
        Alcotest.(check bool) "a wrapper that calls its proc has no twin" false
          (contains w "acc["))
    wrappers;
  List.iter
    (fun w ->
      Alcotest.(check bool) "portable: every wrapper is the nest alone" true
        (contains w "acc[" && not (calls w)))
    (native_wrappers portable)

(* The loop nest as the emitter rendered it before the paired vector
   form existed, with and without the unroll pragmas (mr a multiple of 4
   or not). A shape outside {!C.paired_form} must keep exactly this text:
   the 7×11 nest must stay rolled (unrolled, gcc made it ~2× slower), and
   an 8×12 kernel on an 8-lane host has no column pairs to form. *)
let loop_nest ~mr ~nr =
  let u n = if mr mod 4 = 0 then Printf.sprintf "#pragma GCC unroll %d\n" n else "" in
  String.concat ""
    [
      Printf.sprintf "  float acc[%d][%d];\n" nr mr;
      u nr; Printf.sprintf "  for (int j = 0; j < %d; j++)\n" nr;
      u mr; Printf.sprintf "    for (int i = 0; i < %d; i++)\n" mr;
      "      acc[j][i] = 0.0f;\n";
      "  for (int k = 0; k < kc; k++) {\n";
      Printf.sprintf "    const float *restrict a = A + (ptrdiff_t)k * %d;\n" mr;
      Printf.sprintf "    const float *restrict bp = B + (ptrdiff_t)k * %d;\n" nr;
      u nr; Printf.sprintf "    for (int j = 0; j < %d; j++) {\n" nr;
      "      const float bj = bp[j];\n";
      "#pragma GCC ivdep\n";
      u mr; Printf.sprintf "      for (int i = 0; i < %d; i++)\n" mr;
      "        acc[j][i] += a[i] * bj;\n";
      "    }\n";
      "  }\n";
      u nr; Printf.sprintf "  for (int j = 0; j < %d; j++)\n" nr;
      u mr; Printf.sprintf "    for (int i = 0; i < %d; i++)\n" mr;
      Printf.sprintf "      C[j * %d + i] += acc[j][i];\n" mr;
    ]

let test_ineligible_shapes_keep_loop_nest () =
  let body ~lanes ~mr ~nr =
    let b = Buffer.create 1024 in
    C.portable_body b ~lanes ~mr ~nr;
    Buffer.contents b
  in
  List.iter
    (fun (lanes, mr, nr) ->
      let name = Printf.sprintf "%dx%d at %d lanes" mr nr lanes in
      Alcotest.(check bool) (name ^ ": not paired") false
        (C.paired_form ~lanes ~mr ~nr);
      Alcotest.(check string) (name ^ ": today's loop nest") (loop_nest ~mr ~nr)
        (body ~lanes ~mr ~nr))
    [ (16, 7, 11); (8, 8, 12); (16, 8, 11); (1, 8, 12) ];
  (* and the eligible shape does change form *)
  let paired = body ~lanes:16 ~mr:8 ~nr:12 in
  Alcotest.(check bool) "8x12 at 16 lanes: paired" true
    (C.paired_form ~lanes:16 ~mr:8 ~nr:12);
  check_contains "8x12 at 16 lanes" paired "vector_size(64)";
  check_contains "8x12 at 16 lanes" paired "vacc acc[6];";
  check_contains "8x12 at 16 lanes" paired
    "__builtin_shufflevector(a, a, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7)"

(* The two-tile entry: exported only when asked for, with 12 accumulators
   holding one column of both tiles each, the second A panel at kc·mr,
   and only for a paired shape *)
let test_native_unit_pair () =
  let unit_ ?pair ~lanes () =
    C.native_unit ?pair ~target:C.Nat_portable ~lanes ~kernels:[ (8, 12, None) ] ()
  in
  Alcotest.(check bool) "no pair unless asked for" false
    (contains (unit_ ~lanes:16 ()) "_x2");
  let u = unit_ ~pair:(8, 12) ~lanes:16 () in
  Alcotest.(check string) "pair symbol" "exo_ukr_8x12_x2" (C.pair_sym ~mr:8 ~nr:12);
  check_contains "pair" u "void exo_ukr_8x12_x2(int kc, const float *restrict A";
  check_contains "pair" u "vacc acc[12];";
  check_contains "pair" u "A + ((ptrdiff_t)kc + k) * 8";
  check_contains "pair" u
    "__builtin_shufflevector(a0, a1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)";
  check_contains "pair" u "acc[11] += a * bp[11];";
  check_contains "pair: second C tile" u "C + 184";
  Alcotest.(check bool) "pair: no ldc" false (contains u "ldc");
  Alcotest.check_raises "a shape that is not paired"
    (Invalid_argument "C_emit.native_unit: pair of a shape that is not paired")
    (fun () -> ignore (unit_ ~pair:(8, 12) ~lanes:8 ()))

(* The emitted bytes, pinned. Every .so key digests the portable nests
   (Registry.native_key), so any change to these bytes moves every key and
   strands every cached bank: an emitter edit must move these values on
   purpose. The neon-f32 8×12 bank's portable unit at one lane (the loop
   nest everywhere), at 8 lanes, and at 16 lanes with its two-tile entry;
   and three fringe bodies (rolled loop nest, paired at 8 and 16 lanes). *)
let test_emitted_bytes_pinned () =
  let hex s = Digest.to_hex (Digest.string s) in
  let bank ?pair ~lanes () =
    C.native_unit ?pair ~target:C.Nat_portable ~lanes
      ~kernels:(List.init 96 (fun i -> ((i / 12) + 1, (i mod 12) + 1, None)))
      ()
  in
  List.iter
    (fun (name, expected, unit_) ->
      Alcotest.(check string) ("8x12 bank, " ^ name) expected (hex unit_))
    [
      ("1 lane", "6dac146595c6dc4a89082192435fab3d", bank ~lanes:1 ());
      ("8 lanes", "6dca360a488c0ca91b8b4a8d97357107", bank ~lanes:8 ());
      ( "16 lanes with the pair",
        "534391023ab2f40a4f6b068ab7f0ec10",
        bank ~pair:(8, 12) ~lanes:16 () );
    ];
  List.iter
    (fun (lanes, mr, nr, expected) ->
      let b = Buffer.create 1024 in
      C.portable_body b ~lanes ~mr ~nr;
      Alcotest.(check string)
        (Printf.sprintf "%dx%d body at %d lanes" mr nr lanes)
        expected
        (hex (Buffer.contents b)))
    [
      (16, 7, 11, "1778b50f5a9babbd799749499dcf1ca4");
      (8, 4, 12, "aa25a4319085be7df4693331a6f82167");
      (16, 8, 6, "481443874443fe757ef6321552e0535e");
    ]

let () =
  Alcotest.run "codegen"
    [
      ( "emission",
        [
          Alcotest.test_case "8x12 structure" `Quick test_8x12_structure;
          Alcotest.test_case "const qualifiers" `Quick test_const_qualifiers;
          Alcotest.test_case "row kernel" `Quick test_row_kernel_emits;
          Alcotest.test_case "f16 kernel" `Quick test_f16_kernel_emits;
          Alcotest.test_case "scalar kernel" `Quick test_scalar_kernel_emits;
          Alcotest.test_case "compilation unit" `Quick test_compilation_unit;
          Alcotest.test_case "register access rejected" `Quick test_register_access_rejected;
          Alcotest.test_case "native unit: one body per entry" `Quick
            test_native_unit_one_body;
          Alcotest.test_case "ineligible shapes keep the loop nest" `Quick
            test_ineligible_shapes_keep_loop_nest;
          Alcotest.test_case "native unit: the two-tile entry" `Quick
            test_native_unit_pair;
          Alcotest.test_case "native unit: emitted bytes pinned" `Quick
            test_emitted_bytes_pinned;
        ] );
      ( "host-compiler",
        [
          Alcotest.test_case "avx512 compiles" `Quick test_avx512_compiles;
          Alcotest.test_case "avx512 runs" `Quick test_avx512_runs;
          Alcotest.test_case "avx2 compiles" `Quick test_avx2_compiles;
          Alcotest.test_case "avx2 runs" `Quick test_avx2_runs;
        ] );
    ]
