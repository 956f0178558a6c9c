(** The shared-bus arbiter.

    Models the paper's AXI interconnect as a single shared resource: at most
    one transaction owns the data bus at a time and each beat takes one cycle.
    Requests are served in arrival order (FIFO arbitration), which is how the
    round-robin AXI crossbar behaves under sustained contention. *)

type t

type grant = {
  mutable granted_at : int;  (** cycle the address phase won arbitration *)
  mutable data_done : int;   (** cycle the last beat left the bus (address
                                 phase included) *)
  mutable completed : int;   (** cycle the requester observes completion
                                 (incl. memory latency for reads and any
                                 injected stall) *)
  mutable errored : bool;    (** the response was an injected bus error: it
                                 arrives at [completed] but carries no valid
                                 data, so the requester must re-issue *)
}
(** Mutable so that one record can carry every grant of an arbiter (see
    {!resolve}); a grant {!request} returns is fresh and never written
    again. *)

val grant : unit -> grant
(** A fresh record for {!resolve} to fill, all fields zero. *)

val create : ?obs:Obs.Trace.t -> ?faults:Fault.Injector.t -> Params.t -> t
(** [obs] (default {!Obs.Trace.null}) receives a [Bus_grant] event per
    transaction, stamped at its arbitration cycle, and a [Bus_beat] event at
    its last data beat.  Tracing never alters grant timing.  [faults]
    (default {!Fault.Injector.none}) may stall or error individual
    transactions; with the inert injector every grant has [errored = false]
    and zero stall, bit-identical to a fabric without fault plumbing. *)

val params : t -> Params.t

val resolve :
  Params.t ->
  obs:Obs.Trace.t ->
  faults:Fault.Injector.t ->
  src:int ->
  at:int ->
  granted_at:int ->
  beats:int ->
  is_read:bool ->
  extra_latency:int ->
  grant ->
  unit
(** The one grant formula, shared by {!request} and {!Arbiter}: writes into
    the given record the timing of a transaction that became ready at [at]
    and won arbitration at [granted_at].  Draws the injected stall, then the
    injected error, from [faults], and emits the [Bus_grant]/[Bus_beat]
    events to [obs].  The caller owns the bus latch: it must hold the data
    bus until the grant's [data_done]. *)

val request :
  ?src:int -> t -> at:int -> beats:int -> is_read:bool -> extra_latency:int -> grant
(** [request t ~at ~beats ~is_read ~extra_latency] submits a transaction that
    becomes ready at cycle [at].  [extra_latency] is added by interposed
    hardware on the path (the CapChecker's pipeline stages).  Writes are
    posted: their [completed] is the write-latency point but requesters
    normally continue at [granted_at].  [src] (default -1) attributes the
    transaction to an interconnect source id for the event trace only. *)

val busy_until : t -> int
(** The cycle after which the bus is idle given all requests so far. *)

val quiescent : t -> bool
(** True when every future {!request} is a pure function of its arguments and
    the [free_at] latch: the fault injector is inert (no stalls, no errors,
    no RNG draws) and bus tracing is disabled (no per-grant events to emit).
    This is the license for replay's leap tables to fast-forward through a
    whole transaction stretch with {!fast_forward} instead of issuing each
    request. *)

val fast_forward : t -> busy_until:int -> beats:int -> unit
(** Account for a stretch of transactions without issuing them: advance the
    grant latch to at least [busy_until] and add [beats] to the bandwidth
    counter.  Only sound on a {!quiescent} fabric — the caller (replay's
    leap tables) must have computed the stretch by issuing it through
    {!request} on an equally pure fabric. *)

val total_beats : t -> int
(** Beats transferred so far (bandwidth accounting for the power model). *)

val reset : t -> unit
