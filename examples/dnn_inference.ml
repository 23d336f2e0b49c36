(* DNN inference GEMMs: the paper's Section IV-C scenario.

   Deep-learning convolutions, lowered with IM2ROW, produce the "highly
   rectangular" GEMMs of Tables I and II — full of tiles that do not match
   a monolithic 8x12 kernel. This example:

   1. takes a real conv layer, lowers it with the actual IM2ROW transform,
      runs it through the BLIS-like GEMM over the bank of Exo-generated
      kernels, and checks the result against direct convolution;
   2. sweeps every distinct ResNet50 v1.5 and VGG16 conv GEMM through the
      performance model (Figs. 15-18) and reports per-layer winners and the
      aggregated inference times.

   Run with: dune exec examples/dnn_inference.exe *)

module C = Exo_workloads.Conv
module W = Exo_workloads.Models
module M = Exo_blis.Matrix
module D = Exo_blis.Driver

let machine = Exo_isa.Machine.carmel

let numeric_conv_demo () =
  Fmt.pr "--- numeric: conv3x3(16 -> 8) via IM2ROW + BLIS + Exo kernels ---@.";
  let spec = { C.cin = 16; cout = 8; kh = 3; kw = 3; stride = 1; pad = 1 } in
  let st = Random.State.make [| 7 |] in
  let input = C.tensor_random 14 14 16 st in
  let weights = M.random_int (3 * 3 * 16) 8 st in
  let reference = C.direct spec input weights in
  (* lower: one GEMM of (196, 8, 144) *)
  let a = C.im2row spec input in
  let m, n, k = C.gemm_dims spec ~h:14 ~w:14 in
  Fmt.pr "lowered GEMM: m=%d n=%d k=%d@." m n k;
  let out = M.create m n in
  Exo_blis.Gemm.blis_ba
    ~blocking:(Exo_blis.Analytical.compute machine ~mr:8 ~nr:12 ~dtype_bytes:4)
    ~mr:8 ~nr:12
    ~kernels:(Exo_blis.Registry.exo_bank ~mr:8 ~nr:12 ())
    a weights out;
  let ok = ref true in
  for oi = 0 to 13 do
    for oj = 0 to 13 do
      for co = 0 to 7 do
        if Float.abs (C.tget reference oi oj co -. M.get out ((oi * 14) + oj) co) > 1e-9
        then ok := false
      done
    done
  done;
  Fmt.pr "direct conv vs im2row+GEMM(Exo kernels): %s@.@."
    (if !ok then "exact match" else "MISMATCH")

let model_sweep name layers =
  Fmt.pr "--- %s: per-layer GFLOPS on the modeled Carmel (Figs. 15/17) ---@." name;
  let setups = D.all_setups () in
  let totals = Hashtbl.create 4 in
  Fmt.pr "%4s %20s" "id" "(m, n, k)";
  List.iter (fun s -> Fmt.pr " %9s" (D.name_of s)) setups;
  Fmt.pr "  best (EXO kernel)@.";
  List.iter
    (fun (l : W.layer) ->
      let m, n, k = W.gemm_dims l in
      Fmt.pr "%4d %20s" l.W.id (Fmt.str "(%d, %d, %d)" m n k);
      let results =
        List.map
          (fun s ->
            let t, _ = D.time machine s ~m ~n ~k in
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals (D.name_of s)) in
            Hashtbl.replace totals (D.name_of s) (prev +. (t *. float_of_int l.W.count));
            (D.name_of s, 2.0 *. float_of_int (m * n) *. float_of_int k /. t /. 1e9))
          setups
      in
      List.iter (fun (_, g) -> Fmt.pr " %9.2f" g) results;
      let best, _ =
        List.fold_left (fun (bn, bg) (nm, g) -> if g > bg then (nm, g) else (bn, bg))
          ("", 0.0) results
      in
      Fmt.pr "  %s (%s)@." best
        (D.selected_kernel machine (D.alg_exo ()) ~m ~n ~k))
    layers;
  Fmt.pr "@.aggregated inference time (Figs. 16/18):@.";
  List.iter
    (fun s ->
      Fmt.pr "  %10s : %7.2f ms@." (D.name_of s)
        (1e3 *. Option.value ~default:0.0 (Hashtbl.find_opt totals (D.name_of s))))
    setups;
  Fmt.pr "@."

let () =
  Fmt.pr "=== DNN inference GEMMs (Section IV-C) ===@.@.";
  numeric_conv_demo ();
  model_sweep "ResNet50 v1.5" W.resnet50;
  model_sweep "VGG16" W.vgg16
