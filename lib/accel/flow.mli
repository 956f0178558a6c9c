(** Per-instance DMA flow control for the event-driven core.

    One [Flow.t] tracks what the per-instance state machine of {!Replay}
    tracks — the cycle the datapath may issue its next transaction, the
    completion times of in-flight streaming reads (bounded by the
    synthesized interface's [max_outstanding]), the settle time of the last
    transaction, and the consecutive-error retry budget — but drives a live
    {!Bus.Topology} from inside a {!Ccsim.Sched} process instead of walking a
    recorded trace.  Both the live engine ({!Engine.run_event}) and the
    trace-fed replay ({!Replay.run_event}) issue through it, so the two
    timing paths cannot drift apart.

    All functions must be called from inside the scheduler process that owns
    the flow. *)

type t

exception Failed
(** Raised by {!issue} when [error_retry_limit] consecutive injected bus
    errors exhausted the retry budget: the instance's run is lost and the
    driver decides what to do with the task. *)

val error_turnaround : int
(** Cycles between observing an error response and re-issuing. *)

val create :
  ?error_retry_limit:int ->
  sched:Ccsim.Sched.t ->
  ic:Bus.Topology.t ->
  src:int ->
  start:int ->
  max_outstanding:int ->
  unit ->
  t
(** [error_retry_limit] defaults to 4, matching {!Replay.run}. *)

val issue :
  t ->
  target:int ->
  gap:int ->
  kind:Guard.Iface.kind ->
  beats:int ->
  dependent:bool ->
  latency:int ->
  unit
(** Submit one transaction, suspending the calling process per its
    semantics: the request becomes ready [gap] cycles after the previous
    transaction released the datapath (a streaming read additionally waits
    for the oldest in-flight read when the outstanding window is full), and
    after the grant the process resumes at [granted_at + 1] for posted
    writes and streaming reads, or at [completed] for dependent reads.
    Injected error responses re-issue after {!error_turnaround} cycles and
    raise {!Failed} once the budget is spent.  [target] selects the bank on a
    crossbar topology.  The flow keeps the transaction in its own mutable
    fields and reuses one preallocated grant callback, so an issue allocates
    nothing beyond the scheduler's own suspension. *)

val issue_event : t -> Trace.event -> unit
(** {!issue} a recorded trace event to the flow's home bank
    ({!Bus.Topology.home_target}), the deterministic fallback for trace-fed
    streams whose events carry no addresses. *)

val ready : t -> int
(** Cycle the datapath may issue its next transaction (= the calling
    process's current cycle between issues). *)

val finish : t -> int
(** Settle cycle of the latest transaction so far ([start] before any). *)

val errors : t -> int
(** Error responses observed (including retried ones). *)
