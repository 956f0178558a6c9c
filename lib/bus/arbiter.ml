type req = {
  at : int;
  beats : int;
  is_read : bool;
  extra_latency : int;
  on_grant : Fabric.grant -> unit;
}

(* Sources live in a doubly-linked ring over a dense slot array, kept in
   first-request order, so registration, unregistration and the grant scan
   are allocation-free and O(1) amortized (the old list rotation was O(K²)
   to register and allocated a K-cell scan list per arbitration). *)
type slot = {
  mutable s_src : int;
  s_q : req Queue.t;
  mutable s_prev : int;
  mutable s_next : int;
  mutable s_active : bool;
}

type t = {
  sched : Ccsim.Sched.t;
  p : Params.t;
  obs : Obs.Trace.t;
  faults : Fault.Injector.t;
  mutable slots : slot array;
  mutable n_slots : int;  (* slots ever allocated (dense prefix) *)
  mutable free_slots : int list;  (* recycled after unregister *)
  index : (int, int) Hashtbl.t;  (* src -> slot *)
  mutable head : int;  (* first active slot in rotation order, -1 if none *)
  mutable tail : int;
  mutable active : int;
  mutable last_granted : int;  (* source id, -1 before any grant *)
  mutable last_slot : int;  (* slot hint for [last_granted], may be stale *)
  mutable free_at : int;
  mutable beats : int;
  mutable queued : int;
  (* Earliest cycle known to hold a live arbitration event ([min_int] =
     none known).  A schedule at or after it is skipped — see
     [schedule_arbitration] for the covering argument. *)
  mutable armed : int;
  mutable entry : unit -> unit;  (* preallocated arbitrate closure *)
}

let no_slot = -1

let params t = t.p
let busy_until t = t.free_at
let total_beats t = t.beats
let queued t = t.queued

let slot_alloc t =
  match t.free_slots with
  | i :: rest ->
      t.free_slots <- rest;
      i
  | [] ->
      let i = t.n_slots in
      if i = Array.length t.slots then begin
        let cap = max 8 (2 * i) in
        let fresh =
          Array.init cap (fun j ->
              if j < i then t.slots.(j)
              else
                { s_src = -1; s_q = Queue.create (); s_prev = no_slot;
                  s_next = no_slot; s_active = false })
        in
        t.slots <- fresh
      end;
      t.n_slots <- i + 1;
      i

(* Register [src] at the rotation tail (first-request order; a re-registered
   source re-appends, exactly as the old [rotation @ [src]] did). *)
let slot_of t src =
  match Hashtbl.find_opt t.index src with
  | Some i -> i
  | None ->
      let i = slot_alloc t in
      let sl = t.slots.(i) in
      sl.s_src <- src;
      sl.s_prev <- t.tail;
      sl.s_next <- no_slot;
      sl.s_active <- true;
      if t.tail = no_slot then t.head <- i else t.slots.(t.tail).s_next <- i;
      t.tail <- i;
      t.active <- t.active + 1;
      Hashtbl.add t.index src i;
      i

let unregister t ~src =
  match Hashtbl.find_opt t.index src with
  | None -> false
  | Some i ->
      let sl = t.slots.(i) in
      if not (Queue.is_empty sl.s_q) then false
      else begin
        Hashtbl.remove t.index src;
        if sl.s_prev = no_slot then t.head <- sl.s_next
        else t.slots.(sl.s_prev).s_next <- sl.s_next;
        if sl.s_next = no_slot then t.tail <- sl.s_prev
        else t.slots.(sl.s_next).s_prev <- sl.s_prev;
        sl.s_active <- false;
        sl.s_src <- -1;
        t.active <- t.active - 1;
        t.free_slots <- i :: t.free_slots;
        true
      end

let sources t =
  let rec go acc i =
    if i = no_slot then List.rev acc else go (t.slots.(i).s_src :: acc) (t.slots.(i).s_next)
  in
  go [] t.head

(* Slot the grant scan starts from: just after the last winner, wrapping;
   the rotation head when no grant happened yet or the last winner has been
   unregistered since. *)
let scan_start t =
  if t.last_granted = -1 then t.head
  else begin
    let i = t.last_slot in
    let i =
      if i >= 0 && i < t.n_slots && t.slots.(i).s_active
         && t.slots.(i).s_src = t.last_granted
      then i
      else
        match Hashtbl.find_opt t.index t.last_granted with
        | Some j ->
            t.last_slot <- j;
            j
        | None -> no_slot
    in
    if i = no_slot then t.head
    else
      let n = t.slots.(i).s_next in
      if n = no_slot then t.head else n
  end

let scan_order t =
  let start = scan_start t in
  if start = no_slot then []
  else begin
    let rec go acc i remaining =
      if remaining = 0 then List.rev acc
      else
        let sl = t.slots.(i) in
        let n = if sl.s_next = no_slot then t.head else sl.s_next in
        go (sl.s_src :: acc) n (remaining - 1)
    in
    go [] start t.active
  end

(* Winning slot at [now]: first source in scan order whose head request has
   arrived.  Allocation-free. *)
let find_winner t ~now =
  let start = scan_start t in
  if start = no_slot then no_slot
  else begin
    let rec go i remaining =
      if remaining = 0 then no_slot
      else
        let sl = t.slots.(i) in
        if (not (Queue.is_empty sl.s_q)) && (Queue.peek sl.s_q).at <= now then i
        else
          let n = if sl.s_next = no_slot then t.head else sl.s_next in
          go n (remaining - 1)
    in
    go start t.active
  end

let min_head_arrival t =
  let rec go acc i =
    if i = no_slot then acc
    else
      let sl = t.slots.(i) in
      let acc =
        if Queue.is_empty sl.s_q then acc
        else
          let a = (Queue.peek sl.s_q).at in
          match acc with None -> Some a | Some b -> Some (min a b)
      in
      go acc sl.s_next
  in
  go None t.head

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
let rearm_after t ~data_done =
  let start = scan_start t in
  let rec go best i remaining =
    if remaining = 0 then best
    else
      let sl = t.slots.(i) in
      let next = if sl.s_next = no_slot then t.head else sl.s_next in
      if Queue.is_empty sl.s_q then go best next (remaining - 1)
      else
        let a = (Queue.peek sl.s_q).at in
        if a <= data_done then data_done
        else go (min best a) next (remaining - 1)
  in
  if start = no_slot then data_done else go max_int start t.active

(* One grant: the winning burst holds the bus until [data_done]. *)
let do_grant t ~now i =
  let sl = t.slots.(i) in
  let r = Queue.pop sl.s_q in
  t.queued <- t.queued - 1;
  t.last_granted <- sl.s_src;
  t.last_slot <- i;
  let granted_at = now in
  let data_done = granted_at + t.p.Params.addr_phase + r.beats in
  t.free_at <- data_done;
  t.beats <- t.beats + r.beats;
  let mem_latency =
    if r.is_read then t.p.Params.read_latency else t.p.Params.write_latency
  in
  let stall = Fault.Injector.bus_stall t.faults in
  let errored = Fault.Injector.bus_error t.faults in
  let completed = data_done + mem_latency + r.extra_latency + stall in
  if Obs.Trace.enabled t.obs then begin
    Obs.Trace.emit_at t.obs ~cycle:granted_at
      (Obs.Event.Bus_grant
         { source = sl.s_src; beats = r.beats; read = r.is_read; at = r.at;
           granted_at; data_done; completed });
    Obs.Trace.emit_at t.obs ~cycle:data_done
      (Obs.Event.Bus_beat { source = sl.s_src; beats = r.beats })
  end;
  if t.queued > 0 then
    schedule_arbitration t ~cycle:(rearm_after t ~data_done);
  r.on_grant { Fabric.granted_at; data_done; completed; errored }

let arbitrate t () =
  (* Entry bookkeeping: this event is no longer live; free its arm slot. *)
  let now = Ccsim.Sched.now t.sched in
  if t.armed = now then t.armed <- min_int;
  if t.free_at <= now then begin
    match find_winner t ~now with
    | -1 -> (
        (* Bus idle but every queued request arrives later: re-arm at the
           earliest arrival.  (A grant while we slept re-arms on its own.) *)
        match min_head_arrival t with
        | Some a when a > now -> schedule_arbitration t ~cycle:a
        | Some _ | None -> ())
    | i -> do_grant t ~now i
  end
  else begin
    (* Bus busy: pushes that coalesced onto this event still need coverage
       once the bus frees. *)
    if t.queued > 0 then schedule_arbitration t ~cycle:t.free_at
  end

let create ?(obs = Obs.Trace.null) ?(faults = Fault.Injector.none) ~sched p =
  let t =
    {
      sched; p; obs; faults;
      slots = [||];
      n_slots = 0;
      free_slots = [];
      index = Hashtbl.create 16;
      head = no_slot;
      tail = no_slot;
      active = 0;
      last_granted = -1;
      last_slot = no_slot;
      free_at = 0;
      beats = 0;
      queued = 0;
      armed = min_int;
      entry = ignore;
    }
  in
  (* One arbitrate closure for the arbiter's whole life: scheduling used to
     allocate a fresh partial application per event. *)
  t.entry <- arbitrate t;
  t

let request t ~src ~at ~beats ~is_read ~extra_latency ~on_grant =
  if beats <= 0 then invalid_arg "Arbiter.request: beats must be positive";
  let now = Ccsim.Sched.now t.sched in
  let at = max at now in
  Queue.push { at; beats; is_read; extra_latency; on_grant }
    (t.slots.(slot_of t src)).s_q;
  t.queued <- t.queued + 1;
  schedule_arbitration t ~cycle:(max at t.free_at)
