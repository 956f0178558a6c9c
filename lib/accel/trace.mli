(** DMA transaction traces.

    A trace is what {!Engine.run} leaves for {!Replay}: the task's bus
    transactions in issue order, after AXI burst formation (the engine's
    burst former merges contiguous accesses before they get here).  The
    accelerator model executes a task in two phases — {!Engine} performs the
    functional effects and protection checks and records the stream, then
    {!Replay} schedules the recorded streams of all concurrent instances
    through the shared interconnect to obtain cycle timing.  This split is
    sound because accelerator tasks are independent (threat-model assumption
    2: no shared mutable state between tasks' functional semantics).

    Traces stay resident while a run replays them, so a transaction is four
    unboxed words (gap, op, beats, latency) in flat same-size chunks that
    growing never copies. *)

(** What the issuing instance waits for after the grant. *)
type op =
  | Write        (** posted write: the instance moves on after the address
                     phase *)
  | Stream_read  (** pipelined read, bounded by the outstanding window *)
  | Dep_read     (** dependent (pointer-chasing) read: blocks the instance
                     for the full round trip *)

val op_of : Guard.Iface.kind -> dependent:bool -> op

type t

val create : unit -> t

val add : t -> gap:int -> op:op -> beats:int -> latency:int -> unit
(** Append one transaction: [gap] datapath cycles between the instance's
    previous activity and this transaction becoming ready, [beats] data
    beats on the bus, and [latency] the checking latency the guard imposes
    on this path. *)

val length : t -> int

val gap : t -> int -> int
val op : t -> int -> op
val beats : t -> int -> int
val latency : t -> int -> int
(** Fields of the [i]th transaction, without copying.  Raise
    [Invalid_argument] outside [\[0, length t)]. *)

val total_beats : t -> int
