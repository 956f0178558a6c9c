(** Deterministic discrete-event scheduler with resumable processes.

    The simulation core behind the event-driven engine: a min-heap of
    [(cycle, rank, seq)]-ordered events with stable tie-breaking, plus a
    coroutine layer (OCaml effects) so a model — an accelerator datapath, a
    DMA flow — can be written as straight-line code that suspends at each
    point where simulated time must pass.

    Determinism: two events at the same cycle and rank run in the order they
    were scheduled ([seq] is a monotone counter).  [rank] orders event
    classes within a cycle — requesters schedule at rank 0 and the bus
    arbiter at rank {!rank_arbitrate}, so an arbitration decision at cycle
    [c] always sees every request submitted at cycle [c], regardless of heap
    insertion order.  Nothing in the scheduler depends on wall-clock time,
    hashing order or GC behavior. *)

type t

val create : ?on_advance:(int -> unit) -> unit -> t
(** [on_advance] is invoked whenever the current cycle moves forward, with
    the new cycle — the hook the SoC layer uses to keep the observability
    clock in lock-step with simulated time.  It is never called backwards
    within a run ({!reset} starts a new one at cycle 0). *)

val reset : t -> unit
(** Return [t] to the state {!create} left it in, keeping its [on_advance]
    hook: the clock and the scheduling counter are back at 0 and every
    pending event is dropped unrun.  Processes suspended on [t] are
    abandoned; their resume thunks must not be called afterwards.  A run
    on a reset scheduler executes exactly as on a fresh one, so a caller
    running many short simulations (the verifier runs one per explored
    schedule) can reuse one scheduler instead of allocating the wheel each
    time.  Cost follows the pending events, not the wheel's capacity: the
    wheel buckets they span plus the heap's occupied prefix, and only the
    latter when the wheel is empty.  Must not be called from inside one of
    [t]'s events. *)

val now : t -> int
(** The current simulated cycle (0 before any event has run). *)

val rank_arbitrate : int
(** Rank used by arbiters: within one cycle, after every rank-0 event. *)

val at : t -> cycle:int -> ?rank:int -> (unit -> unit) -> unit
(** Schedule [fn] at [cycle] (clamped to [now] if already past).  [rank]
    defaults to 0. *)

val run : t -> unit
(** Drain the heap: repeatedly pop the least [(cycle, rank, seq)] event and
    run it, advancing [now].  Returns when no events remain.  Suspended
    processes whose resumption was never scheduled are simply left
    suspended — callers should check their own completion flags. *)

val run_steps : t -> int -> int
(** [run_steps t n] is {!run} bounded to at most [n] events; returns the
    number actually run (< [n] only when the heap drained).  The
    schedule-control hook of the bounded-exhaustive verifier ([lib/verify]):
    an explored interleaving is driven under a step budget so a harness bug
    that fails to quiesce surfaces as budget exhaustion with [pending t > 0],
    never as a hung exploration. *)

val pending : t -> int
(** Number of events scheduled but not yet run, in the calendar wheel and
    the heap together. *)

(** {1 Processes}

    A process is a function run inside an effect handler; within it,
    {!wait}, {!wait_until} and {!suspend} give up control to the scheduler
    and resume later.  These three must only be called from inside a
    process body ([Effect.Unhandled] escapes otherwise).  Exceptions raised
    by a process body propagate out of {!run} at the resumption point, so
    process bodies are expected to handle their own domain errors. *)

val spawn : t -> at:int -> (unit -> unit) -> unit
(** Start a process at cycle [at]. *)

val wait : t -> int -> unit
(** Suspend the calling process for [n] cycles ([n <= 0] is a no-op). *)

val wait_until : t -> cycle:int -> unit
(** Suspend the calling process until [cycle] (no-op if already reached). *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] suspends the calling process and hands [register]
    a resume thunk.  [register] must arrange for the thunk to be called
    exactly once — typically by storing it in a completion callback that a
    later event invokes.  Calling the thunk runs the process immediately,
    at the cycle of the event that called it.

    The thunk is the process's own, the same closure at every suspension,
    so a caller may keep it across suspensions; calling it while the
    process is not suspended raises [Invalid_argument].  A suspension
    allocates only the runtime's continuation and the option that parks
    it: the effect value, the handler's result and the thunk are built
    once, per scheduler or per process.  A caller that passes a
    preallocated [register] (as [Accel.Flow] does) therefore suspends
    without allocating a closure; {!wait} and {!wait_until} use the
    scheduler's own. *)
