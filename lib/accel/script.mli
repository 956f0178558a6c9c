(** Recorded access scripts: the config-independent skeleton of a kernel's
    execution, recorded once and re-derived per protection config without
    re-interpreting the kernel.

    Everything the timing layers consume from an interpretation is a pure
    function of the access sequence it emits — (gap, buffer, offset, size,
    kind, dependence) per transaction plus op counts — and that sequence
    depends only on the kernel, its parameters and the synthesized
    directives, never on the protection config or the layout bases.
    {!Soc.Run} records a script alongside the first interpretation of each
    (kernel, params, directives) bench and thereafter derives per-config
    traces ({!to_trace}) or drives the event core directly ({!drive_event}).

    Exactness is the contract: both derivations mirror {!Engine}'s backends
    operation for operation — the same adjudication call order against the
    same guard (so stateful schemes like the cached CapChecker or the IOMMU
    TLB see the identical check sequence), the same burst formation against
    the per-system bus addresses, counters updated on the interpreter's
    schedule (a denial truncates them exactly where the interpreter would),
    and the same bus-error report for accesses escaping physical memory.
    The differential suite pins byte-for-byte equality against the
    interpretive engine across every kernel and config. *)

type addressing =
  | Plain        (** raw physical addresses, no provenance (unguarded, IOMMU,
                     IOPMP, sNPU configurations) *)
  | Coarse_ids   (** object id retrofitted into the top 8 address bits by the
                     trusted driver (CapChecker Coarse) *)
  | Fine_ports   (** per-object port provenance carried out of band
                     (CapChecker Fine) *)

type op =
  | Access of {
      a_gap : int;        (** datapath gap taken before this access *)
      a_kind : Guard.Iface.kind;
      a_buf : int;        (** buffer index into the script's name table *)
      a_off : int;        (** byte offset within the buffer *)
      a_size : int;
      a_dependent : bool;
      a_ops : int;        (** datapath ops executed before this access issued *)
    }
  | Copy of {
      y_gap : int;
      y_bytes : int;
      y_src : int;
      y_dst : int;
      y_ops : int;
    }

type t = {
  s_bufs : string array;  (** buffer index -> declared buffer name *)
  s_ops : op array;
  s_total_ops : int;      (** datapath ops of the whole interpretation *)
}

val length : t -> int
val total_ops : t -> int

(** Accumulates the access sequence during a recording interpretation (the
    engine calls {!Recorder.access}/{!Recorder.copy} from its execution
    closures, see {!Engine.run}). *)
module Recorder : sig
  type script := t
  type t

  val create : unit -> t

  val access :
    t ->
    gap:int ->
    kind:Guard.Iface.kind ->
    name:string ->
    off:int ->
    size:int ->
    dependent:bool ->
    ops:int ->
    unit

  val copy :
    t -> gap:int -> bytes:int -> src:string -> dst:string -> ops:int -> unit

  val finalize : t -> total_ops:int -> complete:bool -> script option
  (** [None] unless [complete]: a recording truncated by a denial or an
      exhausted retry budget is not a faithful skeleton of the kernel. *)
end

(** How a derivation adjudicates each access (the mirror of the engine's
    elide / fast-path / live-guard trichotomy). *)
type adjudication =
  | Adj_live of Guard.Iface.t
      (** call the guard, in the interpreter's exact order — sound for any
          guard, stateful or not *)
  | Adj_fastpath of int
      (** skip the call and grant at this constant latency; sound only for a
          pure guard ({!Guard.Iface.const_latency}) on a statically proven
          task *)
  | Adj_elide  (** proven task with modeled checker off: zero latency *)

exception Denied of Guard.Iface.denial

type derived = {
  d_trace : Trace.t;
  d_denied : Guard.Iface.denial option;
  d_checks : int;
  d_elided : int;
  d_fastpathed : int;
  d_reads : int;
  d_writes : int;
  d_ops : int;
}

val to_trace :
  t ->
  bus:Bus.Params.t ->
  mem_size:int ->
  layout:Memops.Layout.t ->
  obj_ids:(string * int) list ->
  addressing:addressing ->
  source:int ->
  adjudication ->
  derived
(** Derive the DMA trace this script produces under one protection config:
    byte-identical to {!Engine.run}'s [outcome] for the same task (trace,
    denial, counters), minus the functional memory effects — which are
    unobservable to the timing and verdict layers because the verifier is
    only consulted on denial-free runs and [mem_size] reproduces the
    interpreter's bus-error check exactly. *)

type ev_derived = {
  e_denied : Guard.Iface.denial option;
  e_checks : int;
  e_elided : int;
  e_fastpathed : int;
  e_reads : int;
  e_writes : int;
  e_ops : int;
  e_finish : int;
  e_failed : bool;
}

val drive_event :
  t ->
  ?error_retry_limit:int ->
  sched:Ccsim.Sched.t ->
  ic:Bus.Topology.t ->
  start:int ->
  bus:Bus.Params.t ->
  mem_size:int ->
  max_outstanding:int ->
  layout:Memops.Layout.t ->
  obj_ids:(string * int) list ->
  addressing:addressing ->
  source:int ->
  adjudication ->
  on_done:(ev_derived -> unit) ->
  unit
(** Drive the live event core from the script: spawns a {!Ccsim.Sched}
    process at [start] mirroring {!Engine.run_event}'s scheduler-call
    sequence exactly — the same waits, burst merges, flushes and
    {!Flow.issue} targets at the same simulated times, so arbitration,
    stateful-guard check order and fault-draw interleavings are identical to
    interpreting the task live.  [on_done] fires when the stream retires;
    collect after {!Ccsim.Sched.run} drains. *)
