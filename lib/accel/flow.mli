(** Per-instance DMA flow control for the event-driven core.

    A [Flow.t] is the scheduler wiring around one {!Issue} state machine —
    the same per-transaction timing rule {!Replay}'s scheduler applies — that
    drives a live {!Bus.Topology} instead of walking a trace in a global
    ready order.  The live engine ({!Engine.run_event}) and the trace-fed
    replay ({!Replay.run_event}) both issue through it.

    A flow's driver is whatever produces its transactions, and it comes in
    two shapes.  A resumable cursor (a recorded script or trace) hands each
    transaction to {!submit} together with its one preallocated
    continuation, returns, and is continued by the flow: nothing suspends.
    An interpreted kernel owns a call stack, so it runs as a
    {!Ccsim.Sched} process and issues through {!issue}, which suspends it
    around the same {!submit}.  Either way the driver is continued from
    the same event, so every event keeps its cycle, rank and sequence
    number. *)

type t

exception Failed
(** Raised by {!issue} when [error_retry_limit] consecutive injected bus
    errors exhausted the retry budget: the instance's run is lost and the
    driver decides what to do with the task. *)

val create : sched:Ccsim.Sched.t -> ic:Bus.Topology.t -> src:int -> Issue.t -> t
(** A flow for interconnect source [src] that issues under the given issue
    state; the caller keeps the state and reads the instance's finish,
    errors and failure from it. *)

val submit :
  t -> k:(unit -> unit) -> target:int -> gap:int -> op:Trace.op ->
  beats:int -> latency:int -> then_wait:int -> unit
(** Submit one transaction and return at once; [k] runs when the instance
    may proceed under {!Issue}'s rule and [then_wait] further cycles have
    passed: the datapath's own wait before its next transaction, scheduled
    from the post-grant event so it needs no event of the driver's.
    Injected error responses are re-issued from the grant callback; once
    the budget is spent, [k] runs from the failing grant without the wait
    and {!Issue.failed} reads [true].  [target] selects the bank on a
    crossbar topology.  At most one transaction is in flight per flow:
    submit the next only from [k].

    The flow keeps the transaction in its own mutable fields and reuses
    one preallocated grant callback and post-grant event, so with a
    preallocated [k] a transaction allocates only the scheduler's
    events. *)

val issue :
  t -> target:int -> gap:int -> op:Trace.op -> beats:int -> latency:int ->
  then_wait:int -> unit
(** {!submit} from inside a {!Ccsim.Sched} process, with the process's own
    resume thunk as the continuation: the process suspends until [k] would
    run, and raises {!Failed} if the retry budget was spent.  One effect
    suspension per transaction; only an interpreted kernel's process uses
    it. *)
