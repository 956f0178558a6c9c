(** Accelerator task execution: functional effects, protection checks and
    DMA timing.

    This is the "black-box accelerator" of the paper as seen from its memory
    interface.  Every buffer access becomes a DMA transaction: an address is
    {e generated} (never checked by the accelerator itself), submitted to the
    configured guard, and — only if granted — performed against physical
    memory.  A denial aborts the task, mirroring the CapChecker catching the
    access and raising its exception flag.

    A task's access stream has two possible {!source}s — interpreting the
    kernel, or replaying the bench's recorded {!Script} — and both feed one
    pipeline: one adjudicator (see {!adjudication}), one AXI burst former
    (back-to-back gap-0 same-op streaming accesses to contiguous addresses
    merge into one burst of at most [max_burst] beats, keeping the first
    access's checker latency) and one sink per timing model, a DMA trace
    ({!run}) or the live event core ({!run_event}).  The
    source decides only where transactions come from and whether data
    moves; every check, count, burst and bus error is produced by the same
    code either way, so the two are interchangeable wherever the verdict is
    known (a script carries its recording run's verdict). *)

type addressing =
  | Plain        (** raw physical addresses, no provenance (unguarded, IOMMU,
                     IOPMP, sNPU configurations) *)
  | Coarse_ids   (** object id retrofitted into the top 8 address bits by the
                     trusted driver (CapChecker Coarse) *)
  | Fine_ports   (** per-object port provenance carried out of band
                     (CapChecker Fine) *)

(** How each access is adjudicated. *)
type adjudication =
  | Adj_live of Guard.Iface.t
      (** call the guard at the access's issue point — sound for any guard,
          stateful or not *)
  | Adj_fastpath of int
      (** skip the guard call and grant the plain physical address at this
          constant latency.  Sound only when the task's whole footprint is
          statically proven in bounds ({!Analysis.proven}) {e and} the guard
          declares a pure constant-latency check path
          ({!Guard.Iface.const_latency}).  The access still counts in
          [checks] — the modeled hardware would have performed it; only the
          simulator skips — so every reported number matches a live run.
          Skips are tallied in {!Obs.Counters.accesses_fast_pathed}. *)
  | Adj_elide
      (** elide the check: the access resolves to its plain physical address
          with zero checker latency and counts in [elided], not [checks]; a
          {!Obs.Event.Check_elided} event is emitted once the task retires.
          Only sound when a static analysis has proven the task's whole
          footprint inside its granted capabilities — {!Soc.Run} gates this
          on {!Analysis.proven}. *)

type source =
  | Interpret
      (** interpret the task's kernel: functional effects land in [mem] *)
  | Replay of Script.t
      (** replay the kernel's recorded script: no data moves, [mem] is only
          consulted for its bounds (an escaping access is the same bus error
          the interpreter's data movement would raise) *)

type task = {
  instance : int;  (** functional-unit instance = interconnect source id *)
  kernel : Kernel.Ir.t;
  layout : Memops.Layout.t;
  params : (string * Kernel.Value.t) list;
  obj_ids : (string * int) list;
      (** object id per buffer, assigned by the driver at allocation *)
}

type outcome = {
  trace : Trace.t;
  denied : Guard.Iface.denial option;
      (** [Some _] if the guard blocked an access; the trace stops there *)
  checks : int;   (** guard adjudications performed *)
  elided : int;   (** adjudications skipped because the task's footprint was
                      statically proven in bounds (see {!Analysis}) *)
  reads : int;
  writes : int;
  ops : int;      (** datapath operations executed *)
}

type ev_outcome = {
  ev_denied : Guard.Iface.denial option;
      (** [Some _] if the guard blocked an access; the stream stops there *)
  ev_checks : int;
  ev_elided : int;
  ev_reads : int;
  ev_writes : int;
  ev_ops : int;
  ev_finish : int;
      (** settle cycle of the instance's last bus transaction (the task's
          contribution to the makespan); [start] if it issued none *)
  ev_failed : bool;
      (** injected bus-error responses exhausted the retry budget; the run is
          lost and the driver decides what to do with the task *)
}
(** Outcome of one event-driven execution (see {!run_event}).  Check, access
    and op counts match what {!run} would report for the same task; there is
    no recorded trace because transactions were issued live. *)

val run :
  ?obs:Obs.Trace.t ->
  mem:Tagmem.Mem.t ->
  bus:Bus.Params.t ->
  directives:Hls.Directives.t ->
  addressing:addressing ->
  naive_tag_writes:bool ->
  adjudication ->
  source ->
  task ->
  outcome
(** Feed the task's stream into a DMA trace for {!Replay}.

    [naive_tag_writes] selects the tag-oblivious DMA write path of the
    unguarded CHERI system (see {!Tagmem.Mem.unsafe_write_preserving_tags});
    every guarded configuration must pass [false] — granted writes clear
    tags, which is the CapChecker's anti-forgery rule.

    [obs] (default {!Obs.Trace.null}) is advanced alongside the engine's
    compute-local issue clock (datapath gaps plus burst beats) so that guard
    events emitted during adjudication carry meaningful timestamps; exact bus
    occupancy is only known at replay.  Tracing never alters the recorded DMA
    trace or the outcome. *)

val record :
  mem:Tagmem.Mem.t ->
  directives:Hls.Directives.t ->
  naive_tag_writes:bool ->
  task ->
  Script.t option
(** Record the task's access script: the interpreter walked outside the
    access pipeline, each transaction handed to the {!Script.Recorder} and
    then moved at its plain physical address, so no guard is consulted, no
    checker state moves and no simulated time passes.  The functional
    effects land in [mem] as in {!run}.  [None] when an access left its
    buffer's declared extent (the pass stops before moving that access's
    data) or escaped physical memory: only a guard could decide what such a
    task does next, so it must be interpreted live.  Each datapath gap is
    derived by {!Script.Recorder.finalize}, by the live engine's rule. *)

val run_event :
  ?obs:Obs.Trace.t ->
  ?error_retry_limit:int ->
  sched:Ccsim.Sched.t ->
  ic:Bus.Topology.t ->
  start:int ->
  mem:Tagmem.Mem.t ->
  bus:Bus.Params.t ->
  directives:Hls.Directives.t ->
  addressing:addressing ->
  naive_tag_writes:bool ->
  adjudication ->
  source ->
  task ->
  on_done:(ev_outcome -> unit) ->
  unit
(** Feed the task's stream into the live event core from cycle [start]:
    each burst contends for the interconnect [ic] (via {!Flow}) instead of
    accumulating a trace for later replay.  Either source runs as one
    resumable cursor, continued from scheduler events and never suspended:
    over the script's entries, or over the interpreter stopped at each DMA
    access ({!Kernel.Interp.resume}).  Both issue the same scheduler calls
    at the same points, so the choice of source moves no event.
    Adjudication happens at the access's live issue point, so a stateful
    checker (e.g. the cached CapChecker) sees checks from concurrent
    instances interleaved in true bus order.  Bursts
    are formed by the same burst former as {!run}'s — on a crossbar each
    burst is addressed to the bank of its first beat's physical address —
    and with a single instance on a [Shared] topology the resulting schedule is
    cycle-identical to {!run} followed by {!Replay.run} — the differential
    tests enforce it.

    [on_done] is called from the scheduler event the task retires in; the
    caller collects outcomes after {!Ccsim.Sched.run} drains.  [obs] is only
    used to emit the task's {!Obs.Event.Check_elided} marker — timestamps come
    from the shared scheduler clock, which the SoC layer mirrors into the
    sink.  [error_retry_limit] is passed to {!Issue.create}. *)
