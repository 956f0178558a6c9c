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

type leaps
(** Leap tables of one trace: a solo reference run of it (see
    {!leap_tables}). *)

type stream = {
  instance : int;
  trace : Trace.t;
  max_outstanding : int;
      (** this FU's streaming-read depth — mixed systems combine
          accelerators with different interface quality *)
  leaps : leaps option;
      (** [Some] licenses {!run} to leap over this stream's tail; the
          tables must come from {!leap_tables} on the same trace, bus and
          depth (asserted).  [None] replays every transaction. *)
}

val leap_tables : Bus.Params.t -> max_outstanding:int -> Trace.t -> leaps
(** Run {!run}'s scheduler solo over the trace, from cycle 0 on a private
    fault-free untraced fabric with the given bus parameters, and note
    every index the run entered "clean": the fabric free and every
    outstanding streaming read returned by the transaction's candidate
    cycle.  From a clean index the rest of a solo schedule is invariant
    under time translation, so one set of tables serves every stream that
    replays the trace. *)

val run :
  ?error_retry_limit:int -> Bus.Fabric.t -> start:int -> stream list -> result
(** Replay every stream beginning at cycle [start].  Instances issue in
    global earliest-ready order (FIFO; ties go to the earlier stream).  An
    empty trace completes at [start].  Errored grants follow {!Issue}'s
    retry rule, [error_retry_limit] defaulting to 4.

    On a {!Bus.Fabric.quiescent} fabric, once a single unfinished stream
    remains and it enters a clean index of its leap tables in a clean state,
    the rest of the stream is accounted in one jump
    ({!Bus.Fabric.fast_forward}, counted in
    {!Obs.Counters.segments_replayed}): a solo stream on a fresh fabric
    replays in O(1).  The jump lands on exactly the cycles the same loop
    without leap tables reaches. *)

val run_event :
  ?error_retry_limit:int ->
  sched:Ccsim.Sched.t ->
  ic:Bus.Topology.t ->
  start:int ->
  stream list ->
  result
(** Replay every stream through the event-driven core: one {!Flow} process
    per instance feeds its recorded trace to the interconnect topology, and
    the scheduler is drained before the result is assembled ([sched] and
    [ic] must be fresh and private to this call).  The per-transaction rule
    is the same {!Issue} state machine {!run} applies, so a single stream on
    a [Shared] topology replays cycle-identically; what changes with several
    streams is the arbitration policy — grants rotate round-robin among
    contending sources instead of following the global earliest-ready order
    — and therefore the interleaving of fault draws under injection.
    Recorded transactions carry no addresses, so on a crossbar every stream
    issues to its home bank ({!Bus.Topology.home_target}).  Leap tables are
    ignored.  [bus_beats] is read from the topology. *)
