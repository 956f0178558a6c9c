(** Per-instance DMA flow control for the event-driven core.

    A [Flow.t] is the scheduler wiring around one {!Issue} state machine —
    the same per-transaction timing rule {!Replay}'s scheduler applies — that
    drives a live {!Bus.Topology} from inside a {!Ccsim.Sched} process
    instead of walking a trace in a global ready order.  Both the live
    engine ({!Engine.run_event}) and the trace-fed replay
    ({!Replay.run_event}) issue through it.

    All functions must be called from inside the scheduler process that owns
    the flow. *)

type t

exception Failed
(** Raised by {!issue} when [error_retry_limit] consecutive injected bus
    errors exhausted the retry budget: the instance's run is lost and the
    driver decides what to do with the task. *)

val create : sched:Ccsim.Sched.t -> ic:Bus.Topology.t -> src:int -> Issue.t -> t
(** A flow for interconnect source [src] that issues under the given issue
    state; the caller keeps the state and reads the instance's finish,
    errors and failure from it. *)

val issue :
  t -> target:int -> gap:int -> op:Trace.op -> beats:int -> latency:int ->
  then_wait:int -> unit
(** Submit one transaction, suspending the calling process until the
    instance may proceed under {!Issue}'s rule and [then_wait] further
    cycles have passed: the datapath's own wait before its next
    transaction, which [Sched.wait] would otherwise spend in a second
    suspension.  That wait is scheduled from the post-grant event at the
    instant the process would have scheduled it, so every event keeps its
    cycle, rank and sequence number.  Injected error responses are
    re-issued from the grant callback and raise {!Failed}, without the
    wait, once the budget is spent.  [target] selects the bank on a
    crossbar topology.

    The flow keeps the transaction in its own mutable fields and reuses
    one preallocated grant callback and post-grant event, so a transaction
    costs one effect suspension and allocates only the scheduler's events
    and the runtime's continuation. *)
