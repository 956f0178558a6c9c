(** Fast-path policy and cross-sweep caches for replay acceleration.

    The simulator's outputs are deterministic functions of their inputs, so
    reuse is sound by construction and pinned by the differential test
    suite.  Three caches live here:

    - {b proof verdicts} — {!Analysis.analyze} per bench;
    - {b access scripts} — the config-independent skeleton of one
      interpretation ({!Accel.Script}), recorded once per bench and
      re-derived per protection config;
    - {b CPU model results} — one {!Cpu.Model.run} per (isa, bench).

    {!Soc.Run} keeps a fourth, the whole-run memo, next to its result type
    and empties it through {!register_clear}.  Each is a {!Ccsim.Memo}, so
    pool worker domains share them, which makes [--jobs] sweeps
    deterministic {e and} warm.  The process-global {!mode} selects how
    {!Soc.Run} uses them.  Golden outputs are memoized separately by
    {!Machsuite.Bench_def.golden}, and {!clear} leaves them alone. *)

type mode =
  | Fast  (** derive from caches wherever sound (the default) *)
  | Interpretive
      (** re-interpret everything; the differential oracle's ground truth *)
  | Differential
      (** compute both legs and [failwith] on any divergence — runs at
          interpretive speed plus the fast leg; for tests and CI gates *)

val set_mode : mode -> unit
val current_mode : unit -> mode

val enabled : unit -> bool
(** [current_mode () <> Interpretive]. *)

val mode_to_string : mode -> string
(** ["on"], ["off"], ["diff"] — the [--fast-path] CLI spellings. *)

val mode_of_string : string -> mode option

(** Identity of a bench for cache keying: name, parameters and synthesized
    directives — the complete set of inputs the access sequence and cycle
    counts depend on. *)
type bench_key

val bench_key : Machsuite.Bench_def.t -> bench_key

val proven : Machsuite.Bench_def.t -> bool
(** Memoized {!Analysis.proven} verdict for the bench's kernel under its
    parameter intervals.  Safe in every mode: the analysis is deterministic
    and the verdict feeds the same gates whether cached or not. *)

val find_script : bench_key -> (Accel.Script.t * bool) option
(** A recorded access script plus the verifier's verdict for the recording
    run ([s_correct]); the verdict is config-independent because functional
    execution never sees the protection config. *)

val store_script : bench_key -> Accel.Script.t -> correct:bool -> unit
(** First store wins; concurrent recorders of the same bench produce
    identical scripts, so dropping duplicates is sound. *)

val cpu_result :
  isa:Cpu.Model.isa -> bench_key -> (unit -> int * bool) -> int * bool
(** Memoized (cycles, verified) of the single-task CPU model run: the
    stored result, or the computed one on a miss. *)

val register_clear : (unit -> unit) -> unit
(** Register a reset hook for a cache owned elsewhere; called by {!clear}. *)

val clear : unit -> unit
(** Empty the proof, script and CPU caches and every registered one.  For
    tests and for benchmarks that want cold-start timings. *)

val stats : unit -> (string * int) list
(** Entry counts per cache, for observability output. *)
