(** The event sink threaded through the simulator.

    A sink is either {!null} — the shared always-off sink, to which every
    operation is a no-op, so instrumentation on hot paths costs one pattern
    match — or a recording sink created with {!create}, which keeps the newest
    [capacity] events in a bounded ring of packed int rows ({!Packed}) and
    counts what it dropped.

    Tracing is {e behaviour-neutral by construction}: a sink only ever reads
    simulation state and is never consulted by it, so a run with a recording
    sink produces bit-identical results to a run with {!null} (asserted by the
    differential tests).

    Timestamps: components that know an exact cycle (the bus arbiter) stamp
    with {!emit_at}; components that live inside an analytic phase (the
    accelerator engine, the driver) stamp with the sink's running clock, which
    the enclosing layer moves forward with {!set_now}/{!advance}.  Timestamps
    are nondecreasing per (category, track) — the exporter tests enforce
    this. *)

type t

val null : t
(** The shared off sink.  [enabled null = false]; all operations no-ops. *)

val create : ?capacity:int -> unit -> t
(** A recording sink. [capacity] defaults to 65536 events. *)

val enabled : t -> bool

(** {1 The running clock} *)

val now : t -> int
val set_now : t -> int -> unit
(** Never moves the clock backwards. *)

val advance : t -> int -> unit
(** [advance t n] adds [max 0 n] cycles. *)

(** {1 Emitting} *)

val emit : t -> Event.data -> unit
(** Stamped with the sink's current clock. *)

val emit_at : t -> cycle:int -> Event.data -> unit
(** Stamped with an exact cycle known to the emitter. *)

(** {1 Reading back} *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val iter : (Event.t -> unit) -> t -> unit

val length : t -> int
val dropped : t -> int
val capacity : t -> int
val clear : t -> unit

val merge_into : into:t -> t list -> unit
(** [merge_into ~into sources] appends the retained events of each source, in
    list order, into [into]'s ring and advances [into]'s clock to the maximum
    of all clocks.  This is the join step of a parallel batch
    ({!Ccsim.Pool}): each job records into its own sink, and after the
    barrier the per-job sinks are merged in job-index order, so the merged
    stream is identical to scheduling-independent serial recording.  Events
    a source already dropped are gone and are not re-counted here.  Sources
    must be distinct from [into] ([Invalid_argument] otherwise); a [null]
    destination ignores everything. *)
