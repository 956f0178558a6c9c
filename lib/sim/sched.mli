(** Deterministic discrete-event scheduler.

    The simulation core behind the event-driven engine: events ordered by
    [(cycle, rank, seq)] with stable tie-breaking, held in a calendar wheel
    for the near future and a binary min-heap for the rest.  An event is a
    closure in a slot of the scheduler's pool, so scheduling one allocates
    nothing beyond the closure itself; a slot is reused once its event has
    run.  A model that must wait — an accelerator's DMA stream, a bus flow,
    the serve loop — keeps its position in its own mutable state and
    schedules its next step with {!at}: a cursor, continued from the event
    that takes it on, never a suspended call stack.

    Determinism: two events at the same cycle and rank run in the order they
    were scheduled ([seq] is a monotone counter).  [rank] orders event
    classes within a cycle — requesters schedule at rank 0 and the bus
    arbiter at rank {!rank_arbitrate}, so an arbitration decision at cycle
    [c] always sees every request submitted at cycle [c], regardless of
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
    pending event is dropped unrun.  A run
    on a reset scheduler executes exactly as on a fresh one, so a caller
    running many short simulations (the verifier runs one per explored
    schedule) can reuse one scheduler instead of allocating the wheel each
    time.  Every pending event's pool slot is returned for reuse, and the
    pool, wheel and heap keep the capacity they grew to, so a rerun of the
    same workload allocates nothing in the scheduler.  Cost follows the
    pending events, not the wheel's capacity: the wheel buckets they span
    plus the heap's occupied prefix, and only the latter when the wheel is
    empty.  Must not be called from inside one of [t]'s events. *)

val now : t -> int
(** The current simulated cycle (0 before any event has run). *)

val rank_arbitrate : int
(** Rank used by arbiters: within one cycle, after every rank-0 event. *)

val at : t -> cycle:int -> (unit -> unit) -> unit
(** Schedule [fn] at [cycle] (clamped to [now] if already past) at rank 0. *)

val at_rank : t -> cycle:int -> rank:int -> (unit -> unit) -> unit
(** {!at} at rank [rank], which must lie in [0..255] (the event key packs
    the rank into 8 bits); any other rank raises [Invalid_argument] before
    [t] changes.  A separate call rather than an optional argument, so a
    ranked schedule — every arbitration event — allocates no option. *)

val run : t -> unit
(** Drain [t]: repeatedly pop the least [(cycle, rank, seq)] event and
    run it, advancing [now].  Returns when no events remain; a model whose
    next step was never scheduled simply stops, so callers should check
    their own completion flags.  An exception raised by an event
    propagates out of [run]. *)

val run_steps : t -> int -> int
(** [run_steps t n] is {!run} bounded to at most [n] events; returns the
    number actually run (< [n] only when no event was left).  The
    schedule-control hook of the bounded-exhaustive verifier ([lib/verify]):
    an explored interleaving is driven under a step budget so a harness bug
    that fails to quiesce surfaces as budget exhaustion with [pending t > 0],
    never as a hung exploration. *)

val pending : t -> int
(** Number of events scheduled but not yet run, in the calendar wheel and
    the heap together. *)
