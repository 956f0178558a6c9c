type t = {
  sched : Ccsim.Sched.t;
  ic : Bus.Topology.t;
  src : int;
  issue : Issue.t;
  (* The transaction in flight.  A flow has at most one: its driver waits
     from submission until the continuation runs. *)
  mutable target : int;
  mutable gap : int;
  mutable op : Trace.op;
  mutable beats : int;
  mutable latency : int;
  mutable then_wait : int;  (* datapath cycles between [ready] and [k] *)
  mutable k : unit -> unit;
  (* Preallocated once per flow: {!issue}'s suspension hook, the arbiter's
     grant callback and the post-grant event. *)
  mutable register : (unit -> unit) -> unit;
  mutable on_grant : Bus.Fabric.grant -> unit;
  mutable wake : unit -> unit;
}

exception Failed

let attempt t =
  let at = Issue.candidate t.issue ~gap:t.gap ~op:t.op in
  Issue.take_slot t.issue ~op:t.op;
  Bus.Topology.request t.ic ~src:t.src ~target:t.target ~at ~beats:t.beats
    ~is_read:(t.op <> Trace.Write) ~extra_latency:t.latency ~on_grant:t.on_grant

(* The post-grant event, at [ready]: the datapath's own wait before its next
   transaction is scheduled from here, at the point (and so with the
   sequence number) a separate wait by the driver would have scheduled it,
   and only then does the driver continue. *)
let wake t () =
  if t.then_wait > 0 then
    Ccsim.Sched.at t.sched ~cycle:(Ccsim.Sched.now t.sched + t.then_wait) t.k
  else t.k ()

let on_grant t grant =
  match Issue.absorb t.issue ~op:t.op grant with
  | Issue.Proceed -> Ccsim.Sched.at t.sched ~cycle:(Issue.ready t.issue) t.wake
  | Issue.Retry -> attempt t
  | Issue.Failed ->
      (* Continue the driver now, without the wait: it reads the failure
         from the issue state. *)
      t.k ()

let create ~sched ~ic ~src issue =
  let t =
    {
      sched; ic; src; issue;
      target = 0; gap = 0; op = Trace.Write; beats = 0; latency = 0;
      then_wait = 0; k = ignore; register = ignore; on_grant = ignore;
      wake = ignore;
    }
  in
  t.register <-
    (fun resume ->
      t.k <- resume;
      attempt t);
  t.on_grant <- on_grant t;
  t.wake <- wake t;
  t

let set t ~target ~gap ~op ~beats ~latency ~then_wait =
  t.target <- target;
  t.gap <- gap;
  t.op <- op;
  t.beats <- beats;
  t.latency <- latency;
  t.then_wait <- then_wait

(* Retries and the datapath's following wait included, a transaction runs
   [k] once: the grant callback does the absorption (and any synchronous
   error re-request) itself, and the post-grant event continues the driver
   directly at the cycle its next transaction may be formed.  That is
   always strictly in the future: [ready] is at least [granted_at + 1]. *)
let submit t ~k ~target ~gap ~op ~beats ~latency ~then_wait =
  set t ~target ~gap ~op ~beats ~latency ~then_wait;
  t.k <- k;
  attempt t

let issue t ~target ~gap ~op ~beats ~latency ~then_wait =
  set t ~target ~gap ~op ~beats ~latency ~then_wait;
  Ccsim.Sched.suspend t.sched t.register;
  if Issue.failed t.issue then raise Failed
