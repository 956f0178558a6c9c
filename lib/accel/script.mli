(** Recorded access scripts: the config-independent skeleton of a kernel's
    execution, recorded once and replayed per protection config without
    re-interpreting the kernel.

    Everything the timing layers consume from an interpretation is a pure
    function of the access sequence it emits — (gap, buffer, offset, size,
    kind, dependence) per transaction plus op counts — and that sequence
    depends only on the kernel, its parameters and the synthesized
    directives, never on the protection config or the layout bases.
    {!Soc.Run} records a script once per (kernel, params, directives) bench
    ({!Engine.record}) and thereafter replays it as {!Engine.Replay}.

    A script is only data.  Replaying it feeds the very access pipeline the
    interpreter feeds — the same adjudicator, the same trace and event sinks
    (see {!Engine}) — so a replayed task cannot drift from an interpreted
    one: only the source of the access stream differs.  Buffers are named by
    their index in the kernel's declared buffer list. *)

type t

val total_ops : t -> int
(** Datapath ops of the whole interpretation. *)

val length : t -> int
(** Number of transactions. *)

(** Transaction [i] of a script, [0 <= i < length], decoded by {!load}. *)
type entry = {
  mutable copy : bool;  (** a block copy, else an element access *)
  mutable gap : int;  (** datapath gap taken before it issued *)
  mutable ops : int;  (** datapath ops executed before it *)
  mutable kind : Guard.Iface.kind;  (** an access's direction *)
  mutable dependent : bool;  (** an access is a dependent (pointer-chasing) read *)
  mutable buf : int;  (** the accessed buffer, or a copy's source buffer *)
  mutable off : int;  (** an access's byte offset, or a copy's destination buffer *)
  mutable size : int;  (** an access's size, or a copy's byte count (never 0) *)
}

val gap : debt:float ref -> ipc:float -> int -> int
(** [gap ~debt ~ipc ops]: the datapath cycles before a transaction issued
    [ops] ops after the previous one, at [ipc] ops per cycle.  Fractional
    cycles carry over in [debt], so a wide datapath really does issue
    back-to-back (gap-0) transactions that merge into AXI bursts, instead
    of every one rounding up to a 1-cycle gap. *)

val entry : unit -> entry
(** A blank entry to {!load} into. *)

val load : t -> int -> entry -> unit
(** [load s i e] decodes transaction [i] into [e].  It allocates nothing,
    so a driver can walk a script as a plain index and one reused entry. *)

(** Accumulates the access sequence during a recording interpretation (see
    {!Engine.record}). *)
module Recorder : sig
  type script := t
  type t

  exception Escaped
  (** Raised by {!access} and {!copy} when a transaction leaves its
      buffer's extent. *)

  val create : extents:int array -> t
  (** [extents.(i)] is the byte length of the kernel's [i]th declared
      buffer.  The check runs before the engine moves any data, so a
      recording that raises {!Escaped} has touched no memory outside its
      buffers. *)

  val access :
    t ->
    kind:Guard.Iface.kind ->
    buf:int ->
    off:int ->
    size:int ->
    dependent:bool ->
    ops:int ->
    unit

  val copy : t -> bytes:int -> src:int -> dst:int -> ops:int -> unit
  (** [ops] is the datapath ops executed before the transaction. *)

  val finalize : t -> ipc:float -> total_ops:int -> script
  (** The whole recording as a script.  Each transaction's gap is {!gap} of
      its ops since the previous one at [ipc], the rule a live stream
      follows, so a recording times nothing. *)
end
