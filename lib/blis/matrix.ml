(** Dense row-major matrices over [float array] — the numeric substrate the
    macro-kernel, packing routines and DNN workloads compute with. *)

type t = { rows : int; cols : int; data : float array }

let create ?(init = 0.0) rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dims";
  { rows; cols; data = Array.make (max 1 (rows * cols)) init }

let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let copy m = { m with data = Array.copy m.data }

(* The draw loop is build-time C (blis_stubs.c): OCaml 5's LXM step and
   Random.State.int's rejection rule, reading and advancing the state in
   place. It trusts its arguments: the storage and the bound are checked
   below. The OCaml loop it replaced lives on in [test/test_blis.ml] as
   the oracle it is checked against. *)
external fill_random_int_stub :
  Random.State.t -> float array -> int -> int -> unit
  = "exo_blis_fill_random_int"
[@@noalloc]

(* the largest bound whose span 2·bound+1 is a legal Random.State.int bound *)
let max_bound = 0x1FFF_FFFF

(** Fill the first [rows·cols] entries of [t.data], in index order, with
    small integers in [\[-bound, bound\]]: one [Random.State.int] draw per
    element, row-major. Entries past [rows·cols] are left as they are, so
    a buffer sized for a larger matrix can be refilled in place. *)
let fill_random_int ?(bound = 3) t (st : Random.State.t) =
  let n = t.rows * t.cols in
  if Array.length t.data < n then
    invalid_arg "Matrix.fill_random_int: storage shorter than rows*cols";
  if bound < 0 || bound > max_bound then
    invalid_arg "Matrix.fill_random_int: bound out of range";
  fill_random_int_stub st t.data n bound

(** Random matrix of small integer values: sums of products stay exactly
    representable in binary32, so differently-blocked GEMMs compare for
    exact equality in tests. *)
let random_int ?bound rows cols (st : Random.State.t) =
  let m = create rows cols in
  fill_random_int ?bound m st;
  m

let random rows cols (st : Random.State.t) =
  init rows cols (fun _ _ -> Random.State.float st 2.0 -. 1.0)

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.equal x y) a.data b.data

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then infinity
  else
    let m = ref 0.0 in
    Array.iteri
      (fun i x ->
        let d = Float.abs (x -. b.data.(i)) in
        if d > !m then m := d)
      a.data;
    !m

let frobenius m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let pp ppf m =
  Fmt.pf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      Fmt.pf ppf "%8.3f " (get m i j)
    done;
    Fmt.pf ppf "@,"
  done;
  Fmt.pf ppf "@]"
