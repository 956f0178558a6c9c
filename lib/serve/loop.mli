(** The long-horizon service loop: accelerator-as-a-service on the event
    engine.

    One {!Ccsim.Sched} timeline carries the whole run: workload events
    (tenant arrivals/departures, requests) fire at their scheduled cycles,
    fed one at a time by a cursor over the lazily drawn schedule, in rank
    lanes that keep the same-cycle order of arrivals, runtime events,
    requests and departures;
    admitted requests occupy a real accelerator instance through the real
    {!Driver} (capability installs, MMIO programming and teardown all hit
    the live checker {!Capchecker.Table}), while the kernel's init/compute
    cycles come from a per-kernel {!Soc.Run.service_profile} measured once up
    front — so a 10^4-request horizon performs 10^4 real protection-state
    transitions without re-executing 10^4 kernels.

    Each tenant is a compartment: a root capability keyed by the tenant's
    private task key is (lazily) resident in the table while the tenant is
    served, competing for slots with the driver's per-request entries.  When
    the table is full, the least-recently-active idle tenant's root is
    evicted and later reinstalled — the eviction-thrash mechanism the report
    measures.  Tenant departure is one atomic step on the timeline: queued
    and in-service requests are cancelled and their driver allocations rolled
    back, then [evict_task] revokes every table entry of the compartment and
    bumps its epoch ({!Tenant.teardown}) — no dangling entries survive.

    Determinism: the loop itself is strictly serial on the scheduler.
    [jobs] parallelizes only the up-front kernel profiling (on
    {!Ccsim.Pool}, index-deterministic), so the report is byte-identical at
    every [jobs] value and across repeat runs of a seed. *)

type params = {
  sv_config : Soc.Config.t;  (** must carry a CapChecker (Fine or Coarse) *)
  sv_instances : int;
  sv_cc_entries : int;
  sv_topology : Bus.Topology.kind;
      (** interconnect shape of the profiled systems (default [Shared]) *)
  sv_checkers : Capchecker.Shim.checking;
      (** checking placement of the profiled systems (default [Central]) *)
  sv_policy : Admission.policy;
  sv_workload : Workload.params;
      (** [mean_gap = 0] derives the gap from the profiled mean service time
          at {!params.sv_util_pct} target utilization; [ramp = 0] with
          requests present auto-ramps over the first ~10% of the horizon *)
  sv_util_pct : int;   (** target accelerator utilization for the auto gap *)
  sv_jobs : int;       (** profiling parallelism ({!Ccsim.Pool} semantics) *)
  sv_check_invariants : bool;
      (** assert isolation/occupancy invariants as the run progresses: no
          live table entry keyed to an instance after its teardown, no entry
          keyed to a departed tenant, empty queues and zero live entries at
          the end.  Cheap enough for tests; off for sweeps. *)
}

val default_params : ?seed:int -> tenants:int -> requests:int -> unit -> params
(** [ccpu_caccel], 8 instances, 256 entries, shared topology with central
    checking, {!Admission.default}, the default workload mix with 10% churn,
    auto gap at 80% utilization, serial profiling, invariants off. *)

val run : params -> Report.t
(** @raise Invalid_argument if the config has no CapChecker or a parameter
    is out of range (among them a watermark outside [\[1, 100\]], a
    negative spill depth or a negative mean gap); raises [Not_found] if the
    mix names an unknown benchmark. *)
