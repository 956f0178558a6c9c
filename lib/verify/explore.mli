(** Interleaving exploration for one scenario.

    Enumerates every interleaving of the scenario's per-source programs
    (DFS over "which source issues next"), executing each complete schedule
    through a fresh {!Harness} driven by a schedule-controlled
    {!Ccsim.Sched} — one source granted per cycle, like the arbiter.  The
    caller supplies the scheduler, which is reset between schedules, so one
    scheduler serves a whole run.

    Pruning is DPOR in its simplest sound form: an extension that would put
    two adjacent {e independent} ops from sources [j > s] in non-sorted
    order is cut, because the swapped (lexicographically smaller) schedule
    is explored elsewhere and reaches the same states.  Independence is
    justified against the state the properties observe: cross-source
    accesses commute unless they race a write on the same object in the
    same bank; a driver mutation commutes with an access unless it touches
    the accessing task's entries. *)

type stats = {
  x_schedules : int;  (** complete interleavings executed *)
  x_pruned : int;     (** DFS branches cut by the commutation rule *)
  x_ops : int;        (** total ops executed *)
  x_invalidations : int;
      (** shim invalidate-channel drops summed over schedules: > 0 proves
          the revocation-vs-refill race was actually exercised *)
}

type outcome = {
  o_stats : stats;
  o_violation : (Harness.violation * Harness.step list * int list) option;
      (** first violation, its executed trace, and the violating schedule *)
}

val independent : Model.scenario -> int * Model.op -> int * Model.op -> bool
(** Exposed for the soundness cross-check in the test-suite (exploring with
    pruning disabled must find exactly the same verdict). *)

val run_schedule :
  ?sched:Ccsim.Sched.t -> Model.scenario -> int list -> Harness.t
(** Execute one schedule (replay path) on [sched], which is
    {!Ccsim.Sched.reset} first, or on a fresh scheduler.  The result does
    not depend on which.  One scheduler event per schedule position, with
    no process per source: op [k] of the schedule runs at cycle [k].  The
    schedule must be feasible for the scenario's programs
    ({!Model.of_token} validates this).
    @raise Invalid_argument on an infeasible schedule. *)

val explore : sched:Ccsim.Sched.t -> Model.scenario -> outcome
(** Run every (unpruned) interleaving on [sched], stopping at the first
    violation.  The outcome does not depend on what [sched] ran before. *)

val minimize : Model.scenario -> int list -> Model.scenario * int list
(** Greedy delta-debugging: truncate after the violating step, then drop
    schedule positions and boot grants while the same property still fails.
    Deterministic; returns the input unchanged if it does not reproduce. *)
