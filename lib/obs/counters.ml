(* Process-global fast-path visibility counters.

   The proof-driven fast paths are, by construction, invisible in every
   simulated number — these counters are the only place the skips show up.
   They are plain telemetry: nothing in the simulator reads them back, so
   bumping them can never perturb a result.  Atomics, because bench
   sections bump them from pool worker domains. *)

type t = int Atomic.t

let segments_replayed = Atomic.make 0
(* always 0: kept registered for the benchmark's [accel.segments_replayed]
   metric, see counters.mli *)

let accesses_fast_pathed = Atomic.make 0
(* adjudications skipped because the task was statically proven in bounds
   and the guard declared a pure constant-latency check path *)

let traces_memoized = Atomic.make 0
(* interpretations avoided by replaying a recorded access script *)

let runs_memoized = Atomic.make 0
(* whole system runs served from the cross-sweep result cache *)

let periods_leaped = Atomic.make 0
(* always 0: kept registered for the benchmark's [bus.periods_leaped]
   metric, see counters.mli *)

let events_coalesced = Atomic.make 0
(* arbitration events never enqueued because a live event at or before the
   same cycle makes them provable no-ops *)

let all =
  [ segments_replayed; accesses_fast_pathed; traces_memoized; runs_memoized;
    periods_leaped; events_coalesced ]

let get c = Atomic.get c
let add c n = ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let reset () = List.iter (fun c -> Atomic.set c 0) all
