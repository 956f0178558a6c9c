(* Process-global fast-path visibility counters.

   The proof-driven fast paths are, by construction, invisible in every
   simulated number — these counters are the only place the skips show up.
   They are plain telemetry: nothing in the simulator reads them back, so
   bumping them can never perturb a result.  Atomics, because bench
   sections bump them from pool worker domains. *)

type t = { name : string; cell : int Atomic.t }

let make name = { name; cell = Atomic.make 0 }

let segments_replayed = make "segments_replayed"
(* always 0: kept registered for the benchmark's [accel.segments_replayed]
   metric, see counters.mli *)

let accesses_fast_pathed = make "accesses_fast_pathed"
(* adjudications skipped because the task was statically proven in bounds
   and the guard declared a pure constant-latency check path *)

let traces_memoized = make "traces_memoized"
(* interpretations avoided by replaying a recorded access script *)

let runs_memoized = make "runs_memoized"
(* whole system runs served from the cross-sweep result cache *)

let periods_leaped = make "periods_leaped"
(* always 0: kept registered for the benchmark's [bus.periods_leaped]
   metric, see counters.mli *)

let events_coalesced = make "events_coalesced"
(* arbitration events never enqueued because a live event at or before the
   same cycle makes them provable no-ops *)

let all =
  [ segments_replayed; accesses_fast_pathed; traces_memoized; runs_memoized;
    periods_leaped; events_coalesced ]

let name c = c.name
let get c = Atomic.get c.cell
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let reset () = List.iter (fun c -> Atomic.set c.cell 0) all
let snapshot () = List.map (fun c -> (c.name, get c)) all
