(* Sources live in a dense slot array in first-request order, which is also
   the rotation: the scan after slot [i] continues at [i + 1], wrapping.
   Each slot queues its requests in a ring over parallel arrays, so a
   request allocates nothing once the ring has grown to the source's
   outstanding depth. *)
type slot = {
  s_src : int;
  mutable q_at : int array;  (* capacity: a power of two *)
  mutable q_beats : int array;
  mutable q_extra : int array;
  mutable q_read : bool array;
  mutable q_grant : (Fabric.grant -> unit) array;
  mutable q_head : int;  (* ring index of the oldest request *)
  mutable q_len : int;
}

type t = {
  sched : Ccsim.Sched.t;
  p : Params.t;
  obs : Obs.Trace.t;
  faults : Fault.Injector.t;
  uplink : uplink option;
  return_latency : int;
  mutable slots : slot array;
  mutable n_slots : int;
  mutable index : int array;  (* src -> slot ([no_slot] if none), grown on demand *)
  mutable last_slot : int;  (* slot of the last winner, [no_slot] before any grant *)
  mutable free_at : int;
  mutable beats : int;
  mutable queued : int;
  (* Earliest cycle known to hold a live arbitration event ([min_int] =
     none known).  A schedule at or after it is skipped — see
     [schedule_arbitration] for the covering argument. *)
  mutable armed : int;
  mutable entry : unit -> unit;  (* preallocated arbitrate closure *)
  grant : Fabric.grant;  (* the record every grant callback receives *)
}

and uplink = { root : t; as_src : int; hop : int }

let no_slot = -1
let ring_capacity = 4

let no_source =
  { s_src = -1; q_at = [||]; q_beats = [||]; q_extra = [||]; q_read = [||];
    q_grant = [||]; q_head = 0; q_len = 0 }

let params t = t.p
let busy_until t = t.free_at
let total_beats t = t.beats
let queued t = t.queued

(* Source ids (instance ids and cluster numbers) index an array directly, so
   the per-request slot lookup hashes nothing. *)
let find_slot t src =
  if src < Array.length t.index then t.index.(src) else no_slot

let set_slot t src i =
  let n = Array.length t.index in
  if src >= n then begin
    let grown = Array.make (Int.max (2 * n) (src + 1)) no_slot in
    Array.blit t.index 0 grown 0 n;
    t.index <- grown
  end;
  t.index.(src) <- i

(* Register [src] at the rotation tail (first-request order). *)
let slot_of t src =
  match find_slot t src with
  | -1 ->
      let i = t.n_slots in
      if i = Array.length t.slots then begin
        let grown = Array.make (Int.max 8 (2 * i)) no_source in
        Array.blit t.slots 0 grown 0 i;
        t.slots <- grown
      end;
      t.slots.(i) <-
        { s_src = src;
          q_at = Array.make ring_capacity 0;
          q_beats = Array.make ring_capacity 0;
          q_extra = Array.make ring_capacity 0;
          q_read = Array.make ring_capacity false;
          q_grant = Array.make ring_capacity ignore;
          q_head = 0; q_len = 0 };
      t.n_slots <- i + 1;
      set_slot t src i;
      i
  | i -> i

(* Double a full ring, unwrapping it so the oldest request lands at 0. *)
let grow sl =
  let cap = Array.length sl.q_at in
  let unwrap a fill =
    let b = Array.make (2 * cap) fill in
    let first = cap - sl.q_head in
    Array.blit a sl.q_head b 0 first;
    Array.blit a 0 b first sl.q_head;
    b
  in
  sl.q_at <- unwrap sl.q_at 0;
  sl.q_beats <- unwrap sl.q_beats 0;
  sl.q_extra <- unwrap sl.q_extra 0;
  sl.q_read <- unwrap sl.q_read false;
  sl.q_grant <- unwrap sl.q_grant ignore;
  sl.q_head <- 0

let head_arrival sl = sl.q_at.(sl.q_head)

let next_slot t i = if i + 1 = t.n_slots then 0 else i + 1

(* Slot the grant scan starts from: just after the last winner, wrapping;
   slot 0 when no grant happened yet. *)
let scan_start t = if t.last_slot = no_slot then 0 else next_slot t t.last_slot

let sources t = List.init t.n_slots (fun i -> t.slots.(i).s_src)

let scan_order t =
  let start = scan_start t in
  List.init t.n_slots (fun k -> t.slots.((start + k) mod t.n_slots).s_src)

(* The scans below are top-level loops over the rotation, so arbitration
   allocates nothing. *)

(* First slot in scan order from [i] whose head request has arrived by
   [now]. *)
let rec find_from t ~now i remaining =
  if remaining = 0 then no_slot
  else
    let sl = t.slots.(i) in
    if sl.q_len > 0 && head_arrival sl <= now then i
    else find_from t ~now (next_slot t i) (remaining - 1)

let find_winner t ~now = find_from t ~now (scan_start t) t.n_slots

(* Earliest head arrival over every slot from [i] on, [max_int] if none. *)
let rec min_head_arrival t best i =
  if i = t.n_slots then best
  else
    let sl = t.slots.(i) in
    let best = if sl.q_len > 0 then Int.min best (head_arrival sl) else best in
    min_head_arrival t best (i + 1)

(* ---- event scheduling with chained coalescing ----

   A schedule at [cycle] can be dropped whenever a live arbitration event
   already sits at some cycle [a <= cycle]: that event runs no earlier than
   the correct next grant cycle is reachable and its handler re-arms so the
   chain lands on every subsequent grant cycle exactly — a grant re-arms at
   the later of [data_done] and the earliest queued arrival (the next grant
   cycle by definition), a no-winner wake re-arms at the earliest arrival,
   and a busy wake re-arms at [free_at] (the bus can't grant sooner).  So
   while any request is queued there is always a live event at or before
   the next grant cycle, chaining forward without skipping one; the
   skipped event could at best have arbitrated at [cycle >= a], which the
   chain already covers.  [armed] tracks the earliest live event's cycle;
   when that event fires the chain's re-arm re-establishes it.  Losing
   track (an untracked later event) only costs a harmless duplicate:
   arbitration is idempotent within a cycle, and a busy or no-winner wake
   recomputes the identical re-arm. *)

let schedule_arbitration t ~cycle =
  if t.armed <> min_int && t.armed <= cycle then
    Obs.Counters.incr Obs.Counters.events_coalesced
  else begin
    t.armed <- cycle;
    Ccsim.Sched.at t.sched ~cycle ~rank:Ccsim.Sched.rank_arbitrate t.entry
  end

(* Cycle a grant finishing at [data_done] should re-arm at: [data_done]
   itself if any queued head has arrived by then, else the earliest later
   arrival.  Walks the rotation from the post-winner scan position so the
   early exit hits the next grant's candidate first — in sustained
   contention the walk is O(1). *)
let rec rearm_from t ~data_done best i remaining =
  if remaining = 0 then best
  else
    let sl = t.slots.(i) in
    if sl.q_len = 0 then rearm_from t ~data_done best (next_slot t i) (remaining - 1)
    else
      let a = head_arrival sl in
      if a <= data_done then data_done
      else rearm_from t ~data_done (Int.min best a) (next_slot t i) (remaining - 1)

let rearm_after t ~data_done =
  rearm_from t ~data_done max_int (scan_start t) t.n_slots

let request t ~src ~at ~beats ~is_read ~extra_latency ~on_grant =
  if beats <= 0 then invalid_arg "Arbiter.request: beats must be positive";
  if src < 0 then invalid_arg "Arbiter.request: negative source id";
  let at = Int.max at (Ccsim.Sched.now t.sched) in
  let sl = t.slots.(slot_of t src) in
  if sl.q_len = Array.length sl.q_at then grow sl;
  let i = (sl.q_head + sl.q_len) land (Array.length sl.q_at - 1) in
  sl.q_at.(i) <- at;
  sl.q_beats.(i) <- beats;
  sl.q_extra.(i) <- extra_latency;
  sl.q_read.(i) <- is_read;
  sl.q_grant.(i) <- on_grant;
  sl.q_len <- sl.q_len + 1;
  t.queued <- t.queued + 1;
  schedule_arbitration t ~cycle:(Int.max at t.free_at)

(* One grant: the winning burst holds the bus until [data_done].  A local
   arbiter hands the burst on to its root; otherwise the requester gets the
   arbiter's one grant record, valid until its callback returns. *)
let do_grant t ~now i =
  let sl = t.slots.(i) in
  let h = sl.q_head in
  let at = sl.q_at.(h) and beats = sl.q_beats.(h) and is_read = sl.q_read.(h)
  and extra_latency = sl.q_extra.(h) and on_grant = sl.q_grant.(h) in
  sl.q_head <- (h + 1) land (Array.length sl.q_at - 1);
  sl.q_len <- sl.q_len - 1;
  t.queued <- t.queued - 1;
  t.last_slot <- i;
  let g = t.grant in
  Fabric.resolve t.p ~obs:t.obs ~faults:t.faults ~src:sl.s_src ~at
    ~granted_at:now ~beats ~is_read ~extra_latency g;
  t.free_at <- g.Fabric.data_done;
  t.beats <- t.beats + beats;
  if t.queued > 0 then
    schedule_arbitration t ~cycle:(rearm_after t ~data_done:g.Fabric.data_done);
  match t.uplink with
  | Some u ->
      request u.root ~src:u.as_src ~at:(g.Fabric.granted_at + u.hop) ~beats
        ~is_read ~extra_latency ~on_grant
  | None ->
      g.Fabric.completed <- g.Fabric.completed + t.return_latency;
      on_grant g

let arbitrate t () =
  (* Entry bookkeeping: this event is no longer live; free its arm slot. *)
  let now = Ccsim.Sched.now t.sched in
  if t.armed = now then t.armed <- min_int;
  if t.free_at <= now then begin
    match find_winner t ~now with
    | -1 ->
        (* Bus idle but every queued request arrives later: re-arm at the
           earliest arrival.  (A grant while we slept re-arms on its own.) *)
        let a = min_head_arrival t max_int 0 in
        if a < max_int && a > now then schedule_arbitration t ~cycle:a
    | i -> do_grant t ~now i
  end
  else begin
    (* Bus busy: pushes that coalesced onto this event still need coverage
       once the bus frees. *)
    if t.queued > 0 then schedule_arbitration t ~cycle:t.free_at
  end

let create ?(obs = Obs.Trace.null) ?(faults = Fault.Injector.none) ?uplink
    ?(return_latency = 0) ~sched p =
  let t =
    {
      sched; p; obs; faults; uplink; return_latency;
      slots = [||];
      n_slots = 0;
      index = [||];
      last_slot = no_slot;
      free_at = 0;
      beats = 0;
      queued = 0;
      armed = min_int;
      entry = ignore;
      grant = Fabric.grant ();
    }
  in
  (* One arbitrate closure for the arbiter's whole life: scheduling used to
     allocate a fresh partial application per event. *)
  t.entry <- arbitrate t;
  t
