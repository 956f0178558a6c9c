(** The trusted software driver (Figure 6).

    The driver is the only software that programs protection hardware and
    accelerator control registers; applications reach it through the
    [allocate] / [deallocate] calls that bracket every accelerator task.
    Everything it does is costed in CPU cycles so the system model can charge
    setup and teardown to the wall clock — the constant overheads that
    dominate short-running benchmarks (the paper's md_knn observation).

    Per-backend programming policy:
    - {b CapChecker}: derive a capability per buffer (bounded exactly to the
      padded allocation, write permission only for writable buffers), install
      it over the capability interconnect keyed by (task, object id); Coarse
      mode additionally composes the object id into the pointer registers.
    - {b IOMMU}: allocate page-aligned, map each buffer's pages.
    - {b IOPMP}: allocate the task's buffers inside one contiguous arena and
      program a single region rule per task (the region file is tiny).
    - {b sNPU}: program one bounds-register pair per buffer inside the NPU.
    - {b none}: nothing to program.

    The driver is on the path of every task, so with tracing off it costs
    what the protection hardware does: the kernel's buffer shapes and object
    numbering are planned once per kernel value, the heap and the
    CapChecker's register window allocate nothing, and a warm
    {!allocate}/{!deallocate} pair on the CapChecker allocates only the
    bindings, the delegated capabilities and what the table keeps. *)

module Backend = Backend
(** Re-exported so users address everything through [Driver]. *)

module Revoker = Revoker
(** Temporal-safety extension: quarantine-and-sweep revocation. *)

type t

val create :
  ?obs:Obs.Trace.t ->
  ?faults:Fault.Injector.t ->
  mem:Tagmem.Mem.t ->
  heap:Tagmem.Alloc.t ->
  backend:Backend.t ->
  bus:Bus.Params.t ->
  n_instances:int ->
  unit ->
  t
(** [obs] (default {!Obs.Trace.null}) receives [Cap_import] per capability
    delegated to a task and a [Task_phase] event per allocate/teardown.
    [faults] (default {!Fault.Injector.none}) can fail individual [allocate]
    calls transiently; pair with {!allocate_with_retry}. *)

val backend : t -> Backend.t
val mem : t -> Tagmem.Mem.t
val free_instances : t -> int

type handle = {
  task_id : int;  (** the functional-unit instance owning the task *)
  layout : Memops.Layout.t;
  obj_ids : (string * int) list;
  caps : (string * Cheri.Cap.t) list;
      (** the capabilities delegated for this task (empty for
          capability-less backends) *)
}

type allocated = { handle : handle; cycles : int }

val allocate : t -> Kernel.Ir.t -> (allocated, string) result
(** Find a free functional unit, allocate and (for the CapChecker) pad
    buffers, program the backend and the pointer/control registers.  Fails
    when every instance is busy (the caller decides whether to stall) or the
    backend runs out of entries.  A failed allocation releases everything it
    placed (buffers, including those placed before the heap ran out, and
    partially installed protection state), so retrying is always safe.

    @raise Invalid_argument if the kernel fails {!Kernel.Ir.validate} — an
    ill-formed kernel is an API misuse, not a retryable condition.  Each
    driver validates a kernel value once, on its first allocation, and
    recognises it by physical identity afterwards ([Kernel.Ir.t] is
    immutable), so a request's driver cost depends on its buffers, not on
    the size of the kernel's body.  An ill-formed kernel is never recorded
    as validated: it raises on every call. *)

(** {1 Retry with exponential backoff}

    Transient allocation failures (injected faults, momentary table
    pressure) are survivable: the driver waits and retries a bounded number
    of times, doubling the wait each round.  All waiting is costed in CPU
    cycles and charged to the task's alloc phase. *)

type retry_policy = {
  max_attempts : int;  (** total attempts including the first (>= 1) *)
  backoff_base : int;  (** cycles of backoff after the first failure *)
  backoff_factor : int;  (** multiplier applied per subsequent failure *)
}

val default_retry_policy : retry_policy
(** 4 attempts, 64-cycle base, doubling: worst case 64+128+256 = 448 backoff
    cycles plus probe overhead before giving up. *)

val retry_probe_cycles : int
(** Fixed cost of re-entering [allocate] on each retry (register polls). *)

val backoff_cycles : retry_policy -> attempt:int -> int
(** Backoff charged after failed attempt number [attempt] (1-based):
    [backoff_base * backoff_factor ^ (attempt - 1)]. *)

val allocate_with_retry :
  ?policy:retry_policy -> t -> Kernel.Ir.t -> (allocated * int, string) result
(** Like {!allocate}, but retries transient failures per [policy] (default
    {!default_retry_policy}).  On success the returned [cycles] include all
    backoff and probe cycles spent, and the [int] is the number of retries
    that were needed (0 = first attempt succeeded).  Emits a [Task_retry]
    event per retry.  Returns the last error once attempts are exhausted. *)

type dealloc_report = {
  cycles : int;
  exception_seen : bool;
  denials : Guard.Iface.denial list;
  scrubbed_bytes : int;
      (** on an exception all task buffers are cleared before the memory
          returns to the allocator (Fig. 6 ②) *)
}

val deallocate :
  t -> handle -> denied:Guard.Iface.denial option -> dealloc_report
(** Tear the task down: collect the exception state ([denied] is what the
    execution engine observed; the CapChecker is additionally polled over
    MMIO), scrub on exception, evict protection entries, clear control
    registers, release buffers and the functional unit. *)

val malloc_cycles : int
val free_cycles : int
