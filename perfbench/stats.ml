(** Order statistics over float samples. *)

(** [percentile xs p] for [p] in [0, 100]: linear interpolation between
    the closest ranks of the sorted samples (numpy's default). Raises
    [Invalid_argument] on an empty sample set. *)
let percentile (xs : float array) (p : float) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let h = p /. 100.0 *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (lo + 1) (n - 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median xs = percentile xs 50.0

let mean (xs : float array) : float =
  if Array.length xs = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)
