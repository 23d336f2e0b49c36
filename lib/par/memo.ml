(** Domain-safe memo tables.

    The execution story built in PR 1 and PR 2 leans on global memo caches:
    generated kernels ({!Exo_blis.Registry}), full-GEMM prices
    ({!Exo_blis.Driver}), tuner rankings ({!Exo_blis.Tuner}). A plain
    [Hashtbl] corrupts under concurrent [replace] from several domains —
    resized buckets race and lookups can crash or spin. This module is the
    one domain-safe wrapper they all go through: a mutex-guarded table with
    the compute step OUTSIDE the lock.

    Contract:
    - the lock is held only for table lookups and inserts, never while the
      caller's compute function runs — so a memoized compute may itself hit
      other memo tables (the Registry's kernel cache inside the Driver's
      time cache) without lock-ordering deadlocks;
    - first writer wins: when two domains race to fill the same key, the
      value inserted first is returned to both, so repeated lookups are
      physically equal ([==]) ever after — the property the memoization
      tests pin. The loser's computed value is dropped;
    - a compute may therefore run more than once per key under contention
      (never more than once per racing domain). Computes must be pure.

    Per-DOMAIN state (anything mutable that is not re-entrant across
    domains) does not belong here — use [Domain.DLS] for it. *)

type ('a, 'b) t = { lock : Mutex.t; tbl : ('a, 'b) Hashtbl.t }

let create ?(size = 32) () = { lock = Mutex.create (); tbl = Hashtbl.create size }

let[@inline] locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let find_opt t k = locked t (fun () -> Hashtbl.find_opt t.tbl k)
let mem t k = locked t (fun () -> Hashtbl.mem t.tbl k)
let length t = locked t (fun () -> Hashtbl.length t.tbl)
let clear t = locked t (fun () -> Hashtbl.reset t.tbl)

(** [find_or_add t k compute] — the memoized value for [k], computing it
    (outside the lock) if absent. First writer wins. *)
let find_or_add (t : ('a, 'b) t) (k : 'a) (compute : unit -> 'b) : 'b =
  match find_opt t k with
  | Some v -> v
  | None ->
      let v = compute () in
      locked t (fun () ->
          match Hashtbl.find_opt t.tbl k with
          | Some w -> w (* another domain won the race; keep its value *)
          | None ->
              Hashtbl.add t.tbl k v;
              v)
