type t = {
  sched : Ccsim.Sched.t;
  ic : Bus.Topology.t;
  src : int;
  home : int;  (* default target for events with no recorded address *)
  limit : int;
  error_retry_limit : int;
  outstanding : int Queue.t;  (* completion times of in-flight streaming reads *)
  mutable ready : int;
  mutable finish : int;
  mutable errors : int;
  mutable event_retries : int;  (* consecutive error responses on the current event *)
  (* The transaction in flight.  A flow has at most one: its process stays
     parked from submission until the grant callback wakes it. *)
  mutable target : int;
  mutable gap : int;
  mutable is_read : bool;
  mutable dependent : bool;
  mutable beats : int;
  mutable latency : int;
  mutable failed : bool;
  mutable resume : unit -> unit;
  (* Preallocated once per flow: the suspension's register hook and the
     arbiter's grant callback. *)
  mutable register : (unit -> unit) -> unit;
  mutable on_grant : Bus.Fabric.grant -> unit;
}

exception Failed

let error_turnaround = 8
(* cycles between observing an error response and re-issuing the transaction *)

let attempt t =
  let cand = t.ready + t.gap in
  (* A streaming read with a full outstanding queue must wait for the
     oldest in-flight read to return. *)
  let cand =
    if t.is_read && (not t.dependent) && Queue.length t.outstanding >= t.limit
    then max cand (Queue.pop t.outstanding)
    else cand
  in
  Bus.Topology.request t.ic ~src:t.src ~target:t.target ~at:cand ~beats:t.beats
    ~is_read:t.is_read ~extra_latency:t.latency ~on_grant:t.on_grant

let on_grant t (grant : Bus.Fabric.grant) =
  if grant.Bus.Fabric.errored then begin
    t.errors <- t.errors + 1;
    t.finish <- max t.finish grant.Bus.Fabric.completed;
    if t.event_retries >= t.error_retry_limit then begin
      (* Wake the process now so [Failed] raises at the same point (and
         through the same handler chain) it always did. *)
      t.failed <- true;
      t.resume ()
    end
    else begin
      t.event_retries <- t.event_retries + 1;
      t.ready <- grant.Bus.Fabric.completed + error_turnaround;
      attempt t
    end
  end
  else begin
    t.event_retries <- 0;
    if not t.is_read then begin
      (* Posted write: the instance moves on after the address phase. *)
      t.ready <- grant.Bus.Fabric.granted_at + 1;
      t.finish <- max t.finish grant.Bus.Fabric.data_done
    end
    else if t.dependent then begin
      t.ready <- grant.Bus.Fabric.completed;
      t.finish <- max t.finish grant.Bus.Fabric.completed
    end
    else begin
      Queue.push grant.Bus.Fabric.completed t.outstanding;
      t.ready <- grant.Bus.Fabric.granted_at + 1;
      t.finish <- max t.finish grant.Bus.Fabric.completed
    end;
    Ccsim.Sched.at t.sched ~cycle:t.ready t.resume
  end

let create ?(error_retry_limit = 4) ~sched ~ic ~src ~start ~max_outstanding () =
  let t =
    {
      sched; ic; src;
      home = Bus.Topology.home_target ic ~src;
      limit = max 1 max_outstanding;
      error_retry_limit;
      outstanding = Queue.create ();
      ready = start;
      finish = start;
      errors = 0;
      event_retries = 0;
      target = 0; gap = 0; is_read = false; dependent = false; beats = 0;
      latency = 0; failed = false;
      resume = ignore; register = ignore; on_grant = ignore;
    }
  in
  t.register <-
    (fun resume ->
      t.resume <- resume;
      attempt t);
  t.on_grant <- on_grant t;
  t

(* One effect suspension per event, retries included: the process parks
   once, the grant callback does the absorption bookkeeping (and any
   synchronous error re-request) itself, and wakes the process directly at
   the cycle the instance may proceed.  The wake is always strictly in the
   future: [ready] is at least [granted_at + 1]. *)
let issue t ~target ~gap ~kind ~beats ~dependent ~latency =
  t.target <- target;
  t.gap <- gap;
  t.is_read <- kind = Guard.Iface.Read;
  t.dependent <- dependent;
  t.beats <- beats;
  t.latency <- latency;
  Ccsim.Sched.suspend t.sched t.register;
  if t.failed then begin
    t.failed <- false;
    raise Failed
  end

let issue_event t (ev : Trace.event) =
  issue t ~target:t.home ~gap:ev.Trace.gap ~kind:ev.Trace.kind
    ~beats:ev.Trace.beats ~dependent:ev.Trace.dependent
    ~latency:ev.Trace.latency

let ready t = t.ready
let finish t = t.finish
let errors t = t.errors
