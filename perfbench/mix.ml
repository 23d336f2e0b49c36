(** The benchmark's generated inputs: the ResNet50 pass in network order,
    the daemon workload's seeded request stream and send schedule, and the
    output identities the benchmark checks results against. Everything
    here is a pure function of its arguments, so one seed always yields
    the same inputs. *)

module Models = Exo_workloads.Models
module Matrix = Exo_blis.Matrix

(** Every conv of ResNet50 v1.5 at batch 1, as its IM2ROW GEMM (m, n, k),
    in network order: Table I's rows expanded by their layer numbers. *)
let resnet50_pass : (int * int * int) list =
  Models.resnet50
  |> List.concat_map (fun (l : Models.layer) ->
         List.map
           (fun num -> (int_of_string num, Models.gemm_dims l))
           (String.split_on_char '/' l.Models.layer_numbers))
  |> List.sort compare |> List.map snd

let dedup l = List.sort_uniq compare l

(** The daemon's RUN verb caps every dimension at this size. *)
let run_dim_cap = 2048

(** The RUN shapes: the ResNet50 layer GEMMs the daemon accepts whose work
    is one layer's 784×128×512 multiply-adds — m from 784 down to 49, so
    fringe tiles vary while every RUN costs about the same, which keeps the
    RUN latency class narrow. *)
let run_shapes : (int * int * int) list =
  List.filter
    (fun (m, n, k) ->
      m <= run_dim_cap && n <= run_dim_cap && k <= run_dim_cap
      && m * n * k = 784 * 128 * 512)
    (dedup resnet50_pass)

(** Distinct ResNet50 and VGG16 layer GEMMs: the TUNE key space. *)
let tune_dims : (int * int * int) list =
  dedup (List.map Models.gemm_dims (Models.resnet50 @ Models.vgg16))

(** The kits GENERATE/LINT name. The daemon must warm every one of them:
    a request for an unwarmed f32 kit builds (and compiles) its whole
    table on the request path. *)
let serve_kits = [ "neon-f32"; "neon-f16" ]

(* ------------------------------------------------------------------ *)
(* The request stream                                                  *)

type verb = Generate | Lint | Tune | Run

type request = { verb : verb; line : string }

(** Latency classes: a repeat of a GENERATE/LINT/TUNE key already sent
    earlier in the stream is answered from the daemon's in-memory memo;
    a key's first request reads the store; RUN executes a GEMM. *)
type cls = Memo_hit | First_key | Run_op

(** Each block of the stream holds exactly this verb mix, shuffled by the
    seed, so class shares do not depend on the seed: 50% GENERATE, 10%
    LINT, 15% TUNE, 25% RUN. *)
let block = [ (Generate, 10); (Lint, 2); (Tune, 3); (Run, 5) ]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [k] distinct items of [xs], in seeded order *)
let pick st k xs =
  let a = Array.of_list xs in
  shuffle st a;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

(* rank r of a hot set drawn with weight 1/(r+1): a few keys dominate *)
let zipf st n =
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (r + 1))
  done;
  let u = Random.State.float st !total in
  let rec go r acc =
    let acc = acc +. (1.0 /. float_of_int (r + 1)) in
    if u < acc || r = n - 1 then r else go (r + 1) acc
  in
  go 0 0.0

let hot_keys = 8
let hot_dims = 4

(** [stream ~seed n]: the first [n] requests of the seeded daemon mix.
    GENERATE/LINT draw from a hot set of kit×shape keys (shapes within
    the warm 8×12 family), TUNE from a hot set of layer dims, and RUN
    cycles through every {!run_shapes} entry in a reshuffled order, so
    each shape runs equally often whatever the seed. *)
let stream ~(seed : int) (n : int) : request array =
  let st = Random.State.make [| 0x5e7e; seed |] in
  let shapes =
    List.concat_map
      (fun kit ->
        List.concat
          (List.init 8 (fun i -> List.init 12 (fun j -> (kit, i + 1, j + 1)))))
      serve_kits
  in
  let keys = Array.of_list (pick st hot_keys shapes) in
  let dims = Array.of_list (pick st hot_dims tune_dims) in
  let runs = Array.of_list run_shapes in
  let run_pos = ref (Array.length runs) in
  let next_run () =
    if !run_pos = Array.length runs then begin
      shuffle st runs;
      run_pos := 0
    end;
    let r = runs.(!run_pos) in
    incr run_pos;
    r
  in
  let make verb =
    let line =
      match verb with
      | Generate | Lint ->
          let kit, mr, nr = keys.(zipf st (Array.length keys)) in
          Printf.sprintf "%s %s %dx%d"
            (if verb = Generate then "GENERATE" else "LINT")
            kit mr nr
      | Tune ->
          let m, n, k = dims.(zipf st (Array.length dims)) in
          Printf.sprintf "TUNE %d %d %d" m n k
      | Run ->
          let m, n, k = next_run () in
          Printf.sprintf "RUN %d %d %d" m n k
    in
    { verb; line }
  in
  let out = ref [] and len = ref 0 in
  while !len < n do
    let b =
      Array.of_list
        (List.concat_map (fun (v, c) -> List.init c (fun _ -> v)) block)
    in
    shuffle st b;
    Array.iter
      (fun v ->
        if !len < n then begin
          out := make v :: !out;
          incr len
        end)
      b
  done;
  Array.of_list (List.rev !out)

(** Class of every request of a stream (a key's first request vs its
    repeats), in stream order. *)
let classes (reqs : request array) : cls array =
  let seen = Hashtbl.create 64 in
  Array.map
    (fun r ->
      match r.verb with
      | Run -> Run_op
      | Generate | Lint | Tune ->
          if Hashtbl.mem seen r.line then Memo_hit
          else begin
            Hashtbl.add seen r.line ();
            First_key
          end)
    reqs

let share (cs : cls array) (c : cls) : float =
  let k = Array.fold_left (fun s x -> if x = c then s + 1 else s) 0 cs in
  float_of_int k /. float_of_int (max 1 (Array.length cs))

(** [schedule ~seed ~rate n]: due times (seconds from the start) of [n]
    requests offered at [rate] per second: [n] uniform draws over
    [0, n / rate), sorted — Poisson arrivals conditioned on their count,
    so every seed offers exactly the same load. *)
let schedule ~(seed : int) ~(rate : float) (n : int) : float array =
  let st = Random.State.make [| 0x5c4ed; seed |] in
  let span = float_of_int n /. rate in
  let a = Array.init n (fun _ -> Random.State.float st span) in
  Array.sort Float.compare a;
  a

(* ------------------------------------------------------------------ *)
(* Output identities                                                   *)

(** Σ_ij (A·B)_ij = Σ_k colsum(A)_k · rowsum(B)_k — the value the daemon's
    RUN [checksum] line must carry, without forming A·B. Exact in f64 for
    the small-integer matrices the daemon generates. *)
let checksum (a : Matrix.t) (b : Matrix.t) : float =
  let k = a.Matrix.cols in
  if b.Matrix.rows <> k then invalid_arg "Mix.checksum: inner dimensions differ";
  let acc = ref 0.0 in
  for p = 0 to k - 1 do
    let col = ref 0.0 in
    for i = 0 to a.Matrix.rows - 1 do
      col := !col +. a.Matrix.data.((i * k) + p)
    done;
    let row = ref 0.0 in
    for j = 0 to b.Matrix.cols - 1 do
      row := !row +. b.Matrix.data.((p * b.Matrix.cols) + j)
    done;
    acc := !acc +. (!col *. !row)
  done;
  !acc

(** The inputs the daemon generates for problem [i] of [RUN m n k]. This
    mirrors its RUN handler: one random state per problem, and B drawn
    before A (the handler's problem record evaluates its fields right to
    left). A test pins the mirror against the handler itself. *)
let run_inputs ~m ~n ~k i : Matrix.t * Matrix.t =
  let st = Random.State.make [| 0x5e12e; m; n; k; i |] in
  let b = Matrix.random_int k n st in
  let a = Matrix.random_int m k st in
  (a, b)

(** [C(i, j)] of [A·B] as an f64 dot product: the reference each sampled
    GEMM output entry is compared with (exact on integer inputs). *)
let dot (a : Matrix.t) (b : Matrix.t) i j : float =
  let k = a.Matrix.cols and n = b.Matrix.cols in
  let s = ref 0.0 in
  for p = 0 to k - 1 do
    s := !s +. (a.Matrix.data.((i * k) + p) *. b.Matrix.data.((p * n) + j))
  done;
  !s
