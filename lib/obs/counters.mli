(** Process-global fast-path visibility counters.

    The proof-driven fast paths are, by construction, invisible in every
    simulated number; these counters are the only place the skips show up
    (surfaced by [capsim bench] and the differential test suite).  Pure
    telemetry — nothing in the simulator reads them back, so bumping them
    can never perturb a result.  Safe to bump from pool worker domains. *)

type t

val segments_replayed : t
(** Always 0: replay no longer leaps over trace tails.  Registered only
    because the frozen [bench/perf] harness reports it as
    [accel.segments_replayed]; it goes with that metric at the next change
    to the benchmark. *)

val accesses_fast_pathed : t
(** Adjudications skipped because the task was statically proven in bounds
    and the guard declared a pure constant-latency check path. *)

val traces_memoized : t
(** Kernel interpretations avoided by replaying a recorded access script. *)

val runs_memoized : t
(** Whole system runs served from the cross-sweep result cache. *)

val periods_leaped : t
(** Always 0: nothing in the simulator leaps.  Registered only because the
    frozen [bench/perf] harness reports it as [bus.periods_leaped]; it goes
    with that metric at the next change to the benchmark. *)

val events_coalesced : t
(** Arbitration events never enqueued because a live event at or before
    the same cycle makes them provable no-ops. *)

val get : t -> int
val add : t -> int -> unit
val incr : t -> unit

val reset : unit -> unit
(** Zero every counter (start of a bench section or test case). *)
