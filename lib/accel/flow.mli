(** Per-instance DMA flow control for the event-driven core.

    A [Flow.t] is the scheduler wiring around one {!Issue} state machine —
    the same per-transaction timing rule {!Replay}'s scheduler applies — that
    drives a live {!Bus.Topology} instead of walking a trace in a global
    ready order.  The live engine ({!Engine.run_event}) and the trace-fed
    replay ({!Replay.run_event}) both issue through it.

    A flow's driver is whatever produces its transactions: a resumable
    cursor over a recorded script or trace, or over an interpreted kernel
    stopped at its pending access.  The driver hands each transaction to
    {!submit} together with its one preallocated continuation and returns;
    the flow continues it, so nothing suspends and every event keeps its
    cycle, rank and sequence number. *)

type t

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
