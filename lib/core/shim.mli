(** Per-source CapChecker shims: distributed adjudication over a shared
    central table.

    One fleet serves every accelerator in a system.  In [Central] mode
    checks go straight to the central {!Checker} through a single-ported
    shared path; in [Distributed] mode each source gets a small private
    {!Table} (the Praesidio memory-shim arrangement) that adjudicates hits
    locally in {!Checker.check_latency} cycles, while misses take the shared
    port to the central table and refill the private copy.

    The central checker remains the sole authority: shims hold read copies
    that are invalidated on every central install/evict (via
    {!Checker.on_update}), denials route through the central denial
    bookkeeping, and missing-entry denials are byte-identical to the
    centralized ones — so verdicts never depend on the placement, only
    latency does.

    Port contention is modelled only when a cycle clock is connected
    ({!connect_clock}, done by the event engine for non-[Shared]
    topologies): each central-port access occupies one cycle on a monotone
    latch and reports its queuing wait.  Unclocked, the port adds zero wait,
    preserving the legacy paths bit-for-bit. *)

type checking = Central | Distributed

val checking_to_string : checking -> string
(** ["central"] / ["shim"]. *)

val checking_of_string : string -> (checking, string) result

type t

val default_shim_entries : int
val default_refill_latency : int

val create :
  ?shim_entries:int -> ?refill_latency:int -> central:Checker.t ->
  sources:int -> checking -> t
(** [sources] is the declared fleet size (area accounting only — shim state
    is created lazily per requesting source).  [shim_entries] (default 8)
    sizes each private table; [refill_latency] (default 2) is the extra
    cycles a miss pays to copy the entry in. *)

val checking : t -> checking
val central : t -> Checker.t

val connect_clock : t -> (unit -> int) -> unit
(** Attach the event engine's cycle clock; enables port-contention
    modelling. *)

val disconnect_clock : t -> unit
(** Detach the clock and reset the port latch (end of a timed phase). *)

val verdict : t -> Guard.Iface.req -> int
(** The fleet path's verdict, as {!Checker.verdict}: the physical address
    if granted (latency in {!last_latency}), [-1] if denied (the structured
    denial in {!Checker.last_denial} of {!central}). *)

val last_latency : t -> int
(** Latency of the last granted {!verdict}, port wait included. *)

val check : t -> Guard.Iface.req -> Guard.Iface.outcome
(** {!verdict}, rendered. *)

val guard : t -> Guard.Iface.t
(** The central checker's guard with [check] replaced by the fleet path,
    the area including the shim tables, and ["+shims"] appended to the name
    in [Distributed] mode.  [entries_in_use] still reads central live
    occupancy. *)

val hits : t -> int
(** Shim-local adjudications (no central-port access). *)

val misses : t -> int
(** Checks that took the shared miss/refill path (each also emits
    {!Obs.Event.Check_table_miss}). *)

val shim_count : t -> int
(** Sources that have checked at least once. *)

val invalidations : t -> int
(** Shim-table entries dropped through the central invalidate channel
    ({!Checker.on_update}): a revocation-epoch bump or any other central
    mutation landing between a shim refill and the next access shows up
    here — the stale-copy race the verification layer pins directly. *)

val shim_stats : t -> Table.stats
(** {!Table.stats} summed across every shim's private table. *)

val observe_shims : t -> into:Obs.Metrics.t -> unit
(** Surface the aggregate as ["shim.*"] metrics (installs, evictions, live,
    hits, misses). *)

val area_luts : t -> int
(** Central checker area, plus one lightweight table per declared source in
    [Distributed] mode. *)
