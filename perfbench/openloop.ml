(** The open-loop load generator: requests are offered on a fixed seeded
    schedule whatever the daemon's speed, with at most [cap] connections
    in flight (one connection per request, like [ukrgen client]). Every
    request carries four timestamps so that its latency counts from when
    it was due — a stall delays every later request and shows in their
    latencies — and the generator's own lateness is reported apart. *)

type record = {
  due : float;  (** absolute time the schedule says to send *)
  mutable seen : float;  (** when the generator noticed it was due *)
  mutable sent : float;  (** when its request line went out *)
  mutable finished : float;  (** when its response was complete *)
  mutable response : string list;  (** status line, then payload *)
  mutable complete : bool;  (** the response ended with the terminator *)
}

let record due =
  {
    due;
    seen = nan;
    sent = nan;
    finished = nan;
    response = [];
    complete = false;
  }

(** Per-request accounting, all in seconds. *)

(** From due to response: the latency a user offered this load sees. *)
let latency r = r.finished -. r.due

(** How late the generator noticed the request (its own timer lag). *)
let lateness r = r.seen -. r.due

(** Time spent waiting for a free connection slot. *)
let queued r = r.sent -. r.seen

(** Connection round trip: request out to response complete. *)
let rtt r = r.finished -. r.sent

(** The generator fell behind its schedule: its p90 lateness exceeds
    [limit] seconds. Such a run measures the generator, not the daemon,
    and is reported as failed. *)
let behind ~(limit : float) (rs : record array) : bool =
  Array.length rs > 0
  && Stats.percentile (Array.map lateness rs) 90.0 > limit

(* response bytes -> lines, without the "." terminator *)
let lines_of (buf : Buffer.t) : string list =
  let s = Buffer.contents buf in
  let s =
    if String.length s >= 2 then String.sub s 0 (String.length s - 2) else s
  in
  List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* Seconds before a due time when the generator stops sleeping and polls. *)
let spin = 0.0005

let terminated (buf : Buffer.t) =
  let n = Buffer.length buf in
  (n = 2 && Buffer.contents buf = ".\n")
  || (n >= 3 && Buffer.sub buf (n - 3) 3 = "\n.\n")

(** [run ~socket ~cap ~deadline lines due]: offer [lines.(i)] at absolute
    time [due.(i)] (sorted) over the Unix socket, at most [cap] in
    flight. Returns one record per request; a request whose connection
    failed or whose response is missing at [deadline] stays incomplete. *)
let run ~(socket : string) ~(cap : int) ~(deadline : float)
    (lines : string array) (due : float array) : record array =
  let n = Array.length lines in
  let recs = Array.map record due in
  let next_seen = ref 0 and next_send = ref 0 in
  let inflight : (Unix.file_descr * int * Buffer.t) list ref = ref [] in
  let chunk = Bytes.create 65536 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let finish fd i buf now =
    close fd;
    recs.(i).finished <- now;
    recs.(i).complete <- terminated buf;
    recs.(i).response <- lines_of buf;
    inflight := List.filter (fun (f, _, _) -> f != fd) !inflight
  in
  let send i =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let msg = Bytes.of_string (lines.(i) ^ "\n") in
    match
      Unix.connect fd (Unix.ADDR_UNIX socket);
      ignore (Unix.write fd msg 0 (Bytes.length msg))
    with
    | () ->
        recs.(i).sent <- Unix.gettimeofday ();
        inflight := (fd, i, Buffer.create 256) :: !inflight
    | exception Unix.Unix_error _ ->
        let now = Unix.gettimeofday () in
        recs.(i).sent <- now;
        recs.(i).finished <- now;
        close fd
  in
  let running = ref true in
  while !running do
    let now = Unix.gettimeofday () in
    while !next_seen < n && due.(!next_seen) <= now do
      recs.(!next_seen).seen <- now;
      incr next_seen
    done;
    while !next_send < !next_seen && List.length !inflight < cap do
      send !next_send;
      incr next_send
    done;
    if now > deadline then begin
      List.iter (fun (fd, i, buf) -> finish fd i buf now) !inflight;
      running := false
    end
    else if !next_seen = n && !inflight = [] && !next_send = n then
      running := false
    else begin
      (* wake for the next due time even when every slot is busy, so
         lateness measures the generator and not the slots *)
      let timeout =
        if !next_seen < n then
          (* sleep to just before the due time, then poll: the kernel's
             timer slack would otherwise make every wake-up late *)
          Float.max 0.0 (due.(!next_seen) -. now -. spin)
        else Float.max 0.0 (deadline -. now)
      in
      let fds = List.map (fun (fd, _, _) -> fd) !inflight in
      match Unix.select fds [] [] timeout with
      | ready, _, _ ->
          List.iter
            (fun fd ->
              match List.find_opt (fun (f, _, _) -> f == fd) !inflight with
              | None -> ()
              | Some (_, i, buf) -> (
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> finish fd i buf (Unix.gettimeofday ())
                  | k ->
                      Buffer.add_subbytes buf chunk 0 k;
                      if terminated buf then
                        finish fd i buf (Unix.gettimeofday ())
                  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _)
                    ->
                      ()
                  | exception Unix.Unix_error _ ->
                      finish fd i buf (Unix.gettimeofday ())))
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  recs
