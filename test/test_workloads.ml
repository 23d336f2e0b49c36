(* DNN workloads: Tables I and II recomputed from the layer shapes, and the
   IM2ROW lowering validated against direct convolution. *)

module C = Exo_workloads.Conv
module W = Exo_workloads.Models
module M = Exo_blis.Matrix

let triple = Alcotest.(triple int int int)

let test_table1_recomputed () =
  List.iter2
    (fun (l : W.layer) expected ->
      Alcotest.check triple (Fmt.str "ResNet50 layer %d" l.W.id) expected (W.gemm_dims l))
    W.resnet50 W.table1_expected

let test_table2_recomputed () =
  List.iter2
    (fun (l : W.layer) expected ->
      if l.W.id = 7 then
        (* the paper's Table II prints n = 256 here; VGG16 conv4_1 has 512
           output channels (see Models) *)
        let m, n, k = W.gemm_dims l in
        Alcotest.check triple "VGG16 layer 7 (paper typo corrected)" (784, 512, 2304)
          (m, n, k)
      else
        Alcotest.check triple (Fmt.str "VGG16 layer %d" l.W.id) expected (W.gemm_dims l))
    W.vgg16 W.table2_expected

let test_layer_counts () =
  (* ResNet50 v1.5 has 53 conv layers; Table I covers all of them *)
  let total = List.fold_left (fun acc (l : W.layer) -> acc + l.W.count) 0 W.resnet50 in
  Alcotest.(check int) "53 conv layers in ResNet50 v1.5" 53 total;
  let vgg = List.fold_left (fun acc (l : W.layer) -> acc + l.W.count) 0 W.vgg16 in
  Alcotest.(check int) "13 conv layers in VGG16" 13 vgg

let test_out_dims () =
  (* conv1 of ResNet50: 224 → 112 under 7x7/s2/p3 *)
  let l = List.hd W.resnet50 in
  Alcotest.(check (pair int int)) "7x7 s2 p3 output" (112, 112)
    (C.out_dims l.W.spec ~h:224 ~w:224)

let test_im2row_shape () =
  let spec = { C.cin = 3; cout = 5; kh = 3; kw = 3; stride = 1; pad = 1 } in
  let input = C.tensor_create ~init:1.0 8 8 3 in
  let m = C.im2row spec input in
  Alcotest.(check int) "rows = output pixels" 64 m.M.rows;
  Alcotest.(check int) "cols = patch size" 27 m.M.cols

let test_im2row_padding_zeros () =
  let spec = { C.cin = 1; cout = 1; kh = 3; kw = 3; stride = 1; pad = 1 } in
  let input = C.tensor_create ~init:1.0 4 4 1 in
  let m = C.im2row spec input in
  (* the first row corresponds to output (0,0): its top-left taps are pad *)
  Alcotest.(check (float 0.0)) "padded corner is zero" 0.0 (M.get m 0 0);
  Alcotest.(check (float 0.0)) "center is data" 1.0 (M.get m 0 4)

let check_conv_equiv name spec h w =
  let st = Random.State.make [| h; w; spec.C.cin; spec.C.cout |] in
  let input = C.tensor_random h w spec.C.cin st in
  let weights = M.random_int (spec.C.kh * spec.C.kw * spec.C.cin) spec.C.cout st in
  let d = C.direct spec input weights in
  let g = C.via_gemm spec input weights in
  Alcotest.(check bool) (name ^ ": im2row∘gemm ≡ direct") true (C.tensor_equal d g)

let test_lowering_equivalence_cases () =
  check_conv_equiv "3x3 s1 p1" { C.cin = 3; cout = 4; kh = 3; kw = 3; stride = 1; pad = 1 } 6 6;
  check_conv_equiv "1x1 s1 p0" { C.cin = 5; cout = 2; kh = 1; kw = 1; stride = 1; pad = 0 } 5 7;
  check_conv_equiv "3x3 s2 p1" { C.cin = 2; cout = 3; kh = 3; kw = 3; stride = 2; pad = 1 } 9 9;
  check_conv_equiv "7x7 s2 p3" { C.cin = 3; cout = 2; kh = 7; kw = 7; stride = 2; pad = 3 } 14 14;
  check_conv_equiv "5x5 s1 p2 rect" { C.cin = 1; cout = 1; kh = 5; kw = 5; stride = 1; pad = 2 } 7 11

let gen_conv_case : (C.spec * int * int) QCheck2.Gen.t =
  let open QCheck2.Gen in
  int_range 1 3 >>= fun cin ->
  int_range 1 3 >>= fun cout ->
  oneofl [ 1; 3 ] >>= fun kh ->
  int_range 1 2 >>= fun stride ->
  int_range 0 1 >>= fun pad ->
  int_range (max kh 4) 8 >>= fun h ->
  int_range (max kh 4) 8 >>= fun w ->
  return ({ C.cin; cout; kh; kw = kh; stride; pad }, h, w)

let prop_lowering_equivalence =
  QCheck2.Test.make ~name:"im2row∘gemm ≡ direct conv (random specs)" ~count:25
    gen_conv_case
    (fun (spec, h, w) ->
      let st = Random.State.make [| h; w; spec.C.cout |] in
      let input = C.tensor_random h w spec.C.cin st in
      let weights = M.random_int (spec.C.kh * spec.C.kw * spec.C.cin) spec.C.cout st in
      C.tensor_equal (C.direct spec input weights) (C.via_gemm spec input weights))

let test_conv_via_blis_gemm () =
  (* the whole stack together: im2row + blocked GEMM with Exo kernels *)
  let spec = { C.cin = 3; cout = 8; kh = 3; kw = 3; stride = 1; pad = 1 } in
  let st = Random.State.make [| 11 |] in
  let input = C.tensor_random 6 6 3 st in
  let weights = M.random_int 27 8 st in
  let d = C.direct spec input weights in
  let a = C.im2row spec input in
  let c = M.create 36 8 in
  Exo_blis.Gemm.blis_ba
    ~blocking:{ Exo_blis.Analytical.mc = 16; kc = 8; nc = 24 }
    ~mr:8 ~nr:12
    ~kernels:(Exo_blis.Registry.exo_bank ~mr:8 ~nr:12 ())
    a weights c;
  let ok = ref true in
  for oi = 0 to 5 do
    for oj = 0 to 5 do
      for co = 0 to 7 do
        if Float.abs (C.tget d oi oj co -. M.get c ((oi * 6) + oj) co) > 1e-9 then
          ok := false
      done
    done
  done;
  Alcotest.(check bool) "conv via im2row + BLIS + Exo kernels" true !ok

let () =
  Alcotest.run "workloads"
    [
      ( "tables",
        [
          Alcotest.test_case "Table I recomputed" `Quick test_table1_recomputed;
          Alcotest.test_case "Table II recomputed" `Quick test_table2_recomputed;
          Alcotest.test_case "layer counts" `Quick test_layer_counts;
          Alcotest.test_case "output dims" `Quick test_out_dims;
        ] );
      ( "im2row",
        [
          Alcotest.test_case "shape" `Quick test_im2row_shape;
          Alcotest.test_case "padding" `Quick test_im2row_padding_zeros;
          Alcotest.test_case "lowering cases" `Quick test_lowering_equivalence_cases;
          QCheck_alcotest.to_alcotest prop_lowering_equivalence;
          Alcotest.test_case "conv via full stack" `Quick test_conv_via_blis_gemm;
        ] );
    ]
