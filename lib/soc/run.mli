(** End-to-end benchmark execution on a configured system.

    Reproduces the paper's measurement protocol: the wall clock covers driver
    allocation, application data initialization, the offloaded (or CPU)
    computation, and driver teardown — the four segments of Figure 10's
    breakdown.  Functional correctness is verified against the reference
    semantics on every run; a protected system that blocked a benign access
    would show up as [correct = false], not as a silently different number. *)

type phases = {
  alloc : int;     (** driver allocation + protection programming *)
  init : int;      (** application writing input data *)
  compute : int;   (** kernel execution / accelerator makespan *)
  teardown : int;  (** eviction, scrubbing, free *)
}

val wall_of : phases -> int

type fallback = {
  task : int;    (** index of the task in submission order *)
  reason : string;
}
(** One task that could not complete on the accelerator and was re-executed
    (and re-verified) on the CPU. *)

type elide_mode =
  | Elide_off  (** adjudicate every DMA beat (the default) *)
  | Elide_on
      (** skip per-beat adjudication for tasks whose footprint {!Analysis}
          proved within the granted capabilities under the concrete launch
          parameters; requires a backend with
          {!Driver.Backend.supports_elision}.  Unproven tasks run fully
          guarded. *)
  | Elide_differential
      (** keep the guard in the loop but assert the analysis soundness
          contract — a statically proven task that is dynamically denied
          raises [Failure] instead of being reported as a denial *)

type engine =
  | Legacy_replay
      (** interpret the kernel up front, record its DMA trace, and replay the
          contention through the serialized fabric (the default; the timing
          oracle every prior result was measured against) *)
  | Event_driven
      (** run every instance live as a {!Ccsim.Sched} coroutine contending
          for a round-robin {!Bus.Arbiter} on one shared timeline; guard
          checks from concurrent instances interleave in true bus order and
          every task executes (and is verified) functionally.  With a single
          instance the schedule is cycle-identical to [Legacy_replay]
          (enforced by differential tests); under contention only the
          arbitration policy differs. *)

type result = {
  config_label : string;
  benchmark : string;
  tasks : int;
  phases : phases;
  wall : int;
  correct : bool;
  denials : Guard.Iface.denial list;
  checks : int;         (** protection adjudications (all instances) *)
  elided_checks : int;
      (** adjudications skipped under {!Elide_on} for statically proven
          tasks (all instances; 0 otherwise) *)
  entries_peak : int;   (** live guard entries while tasks were resident *)
  bus_beats : int;
  area_luts : int;
  power_mw : float;
  recovered : int;
      (** tasks that completed on the accelerator but needed at least one
          driver retry (always 0 without fault injection) *)
  fallbacks : fallback list;
      (** tasks degraded to CPU execution, submission order (always empty
          without fault injection) *)
  faults : Fault.Injector.counts;
      (** injection/recovery counters of this run's injector (all zero
          without fault injection) *)
}

val run :
  ?tasks:int ->
  ?instances:int ->
  ?cc_entries:int ->
  ?bus:Bus.Params.t ->
  ?obs:Obs.Trace.t ->
  ?faults:Fault.Plan.t ->
  ?retry:Driver.retry_policy ->
  ?elide:elide_mode ->
  ?engine:engine ->
  ?topology:Bus.Topology.kind ->
  ?checkers:Capchecker.Shim.checking ->
  Config.t ->
  Machsuite.Bench_def.t ->
  result
(** Run [tasks] identical independent tasks (default 8, the paper's eight
    instances) as one task group (see {!run_mixed}).  [cc_entries] sizes
    the CapChecker table (default 256).  Raises [Invalid_argument] if
    [tasks <= 0].

    [obs] (default {!Obs.Trace.null}) records an event trace of the run:
    bus grants, guard adjudications, table/MMIO traffic and [Task_phase]
    markers at the alloc/init/compute/teardown boundaries.  Recording is
    observation-only: the returned [result] is identical with and without a
    sink (covered by a differential test).

    [faults] (default {!Fault.Plan.none}) injects seeded faults at the bus,
    guard and driver layers.  With the [none] plan the run is bit-identical
    to one without fault plumbing.  Under an active plan each task can retry
    per [retry] (default {!Driver.default_retry_policy}, backoff cycles
    charged to the alloc phase) or degrade to CPU execution with an explicit
    [fallbacks] record — every run either verifies [correct = true] or
    reports its fallbacks, never a silently wrong result.

    [elide] (default [Elide_off]) selects the adaptive check-elision policy
    for statically proven tasks.  An active fault plan keeps every check:
    faults invalidate the static model's assumptions.

    [engine] (default [Legacy_replay]) selects the timing core; seeded
    fault draws are reproducible per engine, not across engines.

    [topology] (default [Shared]) selects the interconnect shape and
    [checkers] (default [Central]) the checking placement (see
    {!System.create}).  A non-[Shared] topology requires the event engine
    (raises [Invalid_argument] under [Legacy_replay], whose serialized
    fabric cannot model concurrent grants); [checkers = Distributed] works
    under either engine — it changes adjudication latency, never
    verdicts. *)

type service_profile = {
  sv_bench : string;
  sv_alloc : int;     (** driver allocation, one task *)
  sv_init : int;      (** input initialization, one task *)
  sv_compute : int;   (** uncontended accelerator makespan, one task *)
  sv_teardown : int;  (** eviction + scrub + free, one task *)
  sv_checks : int;    (** protection adjudications of that task *)
  sv_cpu_wall : int;  (** the same work executed on the CPU configuration *)
}
(** Measured per-request cycle costs of one kernel, used by the service loop
    ([lib/serve]) to price requests without re-executing the kernel per
    request. *)

val service_profile :
  ?engine:engine -> ?topology:Bus.Topology.kind ->
  ?checkers:Capchecker.Shim.checking -> Config.t -> Machsuite.Bench_def.t ->
  service_profile
(** One single-task fault-free {!run} of [bench] under [config] (default
    [engine] is [Event_driven]) plus one {!Config.cpu} run for the fallback
    cost.  Requires a heterogeneous config (raises [Invalid_argument]);
    raises [Failure] if the profiling run does not verify correct.
    [topology]/[checkers] shape the profiled system like {!run}'s. *)

val run_mixed :
  ?instances:int -> ?obs:Obs.Trace.t -> ?faults:Fault.Plan.t ->
  ?retry:Driver.retry_policy -> ?elide:elide_mode -> ?engine:engine ->
  ?topology:Bus.Topology.kind -> ?checkers:Capchecker.Shim.checking ->
  Config.t ->
  Machsuite.Bench_def.t list ->
  result
(** One task per (distinct) benchmark on one shared system — the
    mixed-accelerator SoCs of Figure 9.  Requires a heterogeneous config and
    at least one benchmark (raises [Invalid_argument] otherwise).
    [faults]/[retry]/[engine] behave as in {!run}.  [area_luts] sums each
    instance's datapath exactly (no per-task mean).

    [run] and [run_mixed] share one executor over task groups
    [(bench, design, task count)] for every fault plan: [run] passes one
    group of [tasks] tasks, [run_mixed] one group of one task per listed
    bench.  It places every task, computes from the end of allocation and
    initialization, then tears every resident task down, so accounting,
    phase markers (carrying the lead task) and teardown do not depend on
    the plan.  Fault-free under [Legacy_replay], each group's lead derives
    one DMA trace that every task of the group replays; the lead alone
    carries the group's denial and verdict, and its checks count once per
    task.  A repeated bench in a mixed list is its own group.  Hence
    [run_mixed config [b]] equals [run ~tasks:1 ~instances:1 config b] in
    every field but [benchmark].

    Under an active plan only placement and the compute source differ: each
    task is allocated with retry, interpreted alone and retried or degraded
    before compute, and its recorded trace contends for the bus, so a
    stateful checker never sees faulted tasks interleave (event-engine
    compute can differ from a fault-free run's even if no fault fires). *)

(** {1 Batch execution on a domain pool}

    Full-system runs are independent of one another — distinct [System]s,
    distinct memories, distinct fault-plan RNG streams — which makes a batch
    embarrassingly parallel.  {!run_many} evaluates one {!spec} per
    {!Ccsim.Pool} job and returns results in spec order; because each job
    constructs {e all} of its mutable state itself (its system, its optional
    sink via [obs_of], the injector seeded from the spec's fault plan), the
    result list is byte-identical at every [jobs] value.  Do not share a
    sink, a system, or any other mutable structure across specs: the
    "no shared mutable state across jobs" rule of {!Ccsim.Pool} applies. *)

type spec = {
  sp_config : Config.t;
  sp_bench : Machsuite.Bench_def.t;
  sp_tasks : int;
  sp_instances : int option;
  sp_cc_entries : int;
  sp_bus : Bus.Params.t;
  sp_faults : Fault.Plan.t;   (** the plan's seed derives this run's RNG *)
  sp_retry : Driver.retry_policy;
  sp_elide : elide_mode;
  sp_engine : engine;
  sp_topology : Bus.Topology.kind;
  sp_checkers : Capchecker.Shim.checking;
}

val spec :
  ?tasks:int -> ?instances:int -> ?cc_entries:int -> ?bus:Bus.Params.t ->
  ?faults:Fault.Plan.t -> ?retry:Driver.retry_policy -> ?elide:elide_mode ->
  ?engine:engine -> ?topology:Bus.Topology.kind ->
  ?checkers:Capchecker.Shim.checking -> Config.t -> Machsuite.Bench_def.t ->
  spec
(** Defaults mirror {!run}'s. *)

val run_spec : ?obs:Obs.Trace.t -> spec -> result
(** [run_spec sp] = {!run} with [sp]'s fields; the serial oracle
    {!run_many} is tested against. *)

val run_many :
  ?jobs:int -> ?obs_of:(int -> Obs.Trace.t) -> spec list -> result list
(** Run every spec, up to [jobs] ({!Ccsim.Pool} semantics: default 1 =
    serial, 0 = all cores) at a time, returning results in spec order.
    [obs_of i] supplies the private sink for job [i] — typically one
    pre-created sink per spec, merged after the barrier with
    {!Obs.Trace.merge_into}.  A sink must not be shared between specs. *)

val sweep_many :
  ?jobs:int -> ?engine:engine -> ?topology:Bus.Topology.kind ->
  ?checkers:Capchecker.Shim.checking -> tasks_list:int list ->
  (Config.t * int option) list -> Machsuite.Bench_def.t ->
  (int * result list) list
(** The parallelism-sweep shape (Figure 11 / [capsim sweep]): for every task
    count in [tasks_list], run [bench] under each [(config, instances)]
    column.  All points run as one {!run_many} batch; the returned rows
    pair each task count with its per-column results in column order. *)
