(** No-op stand-in for the deleted event-engine fast-forward selector.

    The event engine has a single accelerator driver, so this module
    selects nothing.  It keeps the smallest signature the frozen
    [bench/perf] harness compiles against (its [eventff_off] leg), and is
    deleted together with that leg by the next change to the benchmark. *)

type mode = Off

val set_mode : mode -> unit
(** No-op. *)
