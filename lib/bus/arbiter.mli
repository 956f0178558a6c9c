(** Multi-source bus arbiter for the event-driven simulation core.

    Where {!Fabric.request} serializes transactions through a monotone
    [free_at] latch — correct only when callers already know the global
    order — the arbiter models the interconnect the way the FPGA prototype's
    AXI crossbar behaves with several live masters: each source has its own
    request queue, at most one transaction owns the data bus at a time
    (bursts are never interleaved), and when several sources have a request
    ready the grant rotates round-robin starting after the last winner, so
    sustained contention shares bandwidth fairly and a late arrival is
    served within one rotation.

    The arbiter is driven by a {!Ccsim.Sched} scheduler: requests are
    asynchronous, and the grant is delivered through a callback at the cycle
    the address phase wins arbitration.  Arbitration decisions run at
    {!Ccsim.Sched.rank_arbitrate}, after every same-cycle request
    submission, so the winner never depends on heap insertion order.

    Timing, fault injection and observability are {!Fabric.resolve}'s, the
    same grant formula {!Fabric.request} applies: with a single source the
    arbiter grants exactly the schedule the legacy fabric would (the
    differential tests rely on it). *)

type t

type uplink = {
  root : t;    (** the arbiter a local grant hands its burst on to *)
  as_src : int;  (** the source id the burst competes under at [root] *)
  hop : int;   (** cycles from the local grant to arrival at [root] *)
}
(** A local arbiter of a two-level interconnect: see {!create}. *)

val create :
  ?obs:Obs.Trace.t -> ?faults:Fault.Injector.t -> ?uplink:uplink ->
  ?return_latency:int -> sched:Ccsim.Sched.t -> Params.t -> t
(** With [uplink], a grant is not delivered: the arbiter re-requests the
    burst at [uplink.root] as source [uplink.as_src], [uplink.hop] cycles
    after its local grant, with the original callback, beats, direction and
    extra latency, so the requester hears only from the root.
    [return_latency] (default 0) is added to [completed] of every grant
    this arbiter delivers, after [obs] has seen the grant: the response's
    hop back to the requester. *)

val params : t -> Params.t

val request :
  t ->
  src:int ->
  at:int ->
  beats:int ->
  is_read:bool ->
  extra_latency:int ->
  on_grant:(Fabric.grant -> unit) ->
  unit
(** Enqueue a transaction from source [src] that becomes ready at cycle
    [at] (clamped to the current cycle).  [on_grant] is invoked at the
    grant cycle with the grant {!Fabric.resolve} computes, the formula the
    legacy fabric applies; the caller decides when its requester may
    proceed ([granted_at + 1] for posted writes and streaming reads,
    [completed] for dependent reads).

    The record passed to [on_grant] is the arbiter's own, rewritten at each
    of its grants: it is valid only until the callback returns, so a caller
    that needs a field later copies it out.  Source ids index an array
    sized to the largest id seen, so they must be small non-negative
    integers (instance ids, cluster numbers); a negative [src] raises
    [Invalid_argument].  Each source's requests wait in a ring that grows
    to its deepest backlog, after which a request allocates nothing. *)

val total_beats : t -> int
(** Beats transferred so far (bandwidth accounting for the power model). *)

val queued : t -> int
(** Requests enqueued and not yet granted (0 once the scheduler drains). *)

val sources : t -> int list
(** Registered sources in first-request order (the rotation).  A source
    stays registered for the arbiter's life. *)

val scan_order : t -> int list
(** Sources in grant-scan order: round-robin starting just after the last
    winner, or plain first-request order when no grant has happened yet. *)
