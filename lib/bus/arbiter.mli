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

    Timing, fault injection and observability match {!Fabric.request}
    beat-for-beat: with a single source the arbiter grants exactly the
    schedule the legacy fabric would (the differential tests rely on it). *)

type t

val create :
  ?obs:Obs.Trace.t -> ?faults:Fault.Injector.t -> sched:Ccsim.Sched.t ->
  Params.t -> t

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
    grant cycle with the same {!Fabric.grant} record the legacy fabric
    returns; the caller decides when its requester may proceed
    ([granted_at + 1] for posted writes and streaming reads, [completed]
    for dependent reads). *)

val busy_until : t -> int
(** Cycle at which the data bus frees given grants so far. *)

val total_beats : t -> int
(** Beats transferred so far (bandwidth accounting for the power model). *)

val queued : t -> int
(** Requests enqueued and not yet granted (0 once the scheduler drains). *)

val sources : t -> int list
(** Registered sources in first-request order (the rotation). *)

val scan_order : t -> int list
(** Sources in grant-scan order: round-robin starting just after the last
    winner, or plain first-request order when no grant has happened yet or
    the last winner has since been {!unregister}ed. *)

val unregister : t -> src:int -> bool
(** Remove an idle source (e.g. a departed serve-mode tenant's accelerator)
    from the rotation.  Refuses (returns false) while the source still has
    queued requests; a removed source re-registers transparently on its next
    {!request}.  If the removed source was the last winner, the next scan
    falls back to plain first-request order. *)
