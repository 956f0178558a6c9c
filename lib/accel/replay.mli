(** Timing replay: schedule the recorded DMA streams of all concurrent
    functional-unit instances through the shared interconnect.

    Models exactly the contention the paper's prototype exhibits: one grant
    per cycle on the AXI fabric, posted writes, pipelined streaming reads up
    to the FU's outstanding limit, and dependent (pointer-chasing) reads that
    stall their instance for the full round trip — including the guard's
    checking latency, which is otherwise hidden under pipelining.  The
    per-transaction rule is {!Issue}'s; this module only decides the order
    in which instances issue. *)

type result = {
  makespan : int;
      (** cycles from start until the last instance's last transaction
          completes *)
  per_instance : (int * int) list;
      (** (instance id, completion cycle) *)
  bus_beats : int;  (** total data beats moved *)
  bus_errors : int;
      (** injected error responses observed (each re-issues the transaction) *)
  failed : int list;
      (** instances that exhausted the per-transaction error-retry budget;
          their remaining transactions were abandoned *)
}

type stream = {
  instance : int;
  trace : Trace.t;
  max_outstanding : int;
      (** this FU's streaming-read depth — mixed systems combine
          accelerators with different interface quality *)
}

val run :
  ?error_retry_limit:int -> Bus.Fabric.t -> start:int -> stream list -> result
(** Replay every stream beginning at cycle [start].  Instances issue in
    global earliest-ready order (FIFO; ties go to the earlier stream).  An
    empty trace completes at [start].  Errored grants follow {!Issue}'s
    retry rule, [error_retry_limit] defaulting to 4. *)

val run_event :
  ?error_retry_limit:int ->
  sched:Ccsim.Sched.t ->
  ic:Bus.Topology.t ->
  start:int ->
  stream list ->
  result
(** Replay every stream through the event-driven core: one {!Flow} per
    instance feeds its recorded trace to the interconnect topology, and the
    scheduler is drained before the result is assembled ([sched] and [ic]
    must be fresh and private to this call).  A stream is a cursor over its
    trace that the flow continues after each transaction, so nothing runs
    as a process or suspends.  The per-transaction rule
    is the same {!Issue} state machine {!run} applies, so a single stream on
    a [Shared] topology replays cycle-identically; what changes with several
    streams is the arbitration policy — grants rotate round-robin among
    contending sources instead of following the global earliest-ready order
    — and therefore the interleaving of fault draws under injection.
    Recorded transactions carry no addresses, so on a crossbar every stream
    issues to its home bank ({!Bus.Topology.home_target}).  [bus_beats] is
    read from the topology. *)
