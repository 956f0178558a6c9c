(** The resident compartment roots of a service run, in reclaim order.

    An indexed binary min-heap over tenant ids: a heap array plus each
    tenant's position in it, so finding the next victim costs O(1) and
    every update O(log resident) — what the live roots cost, not what the
    tenant population does.  Nothing is allocated after {!create}.

    The order is total, hence deterministic: idle tenants ([inflight = 0])
    before busy ones, then least recently active ([last_active]), then
    lowest id.  The heap reads those fields from the registry, so the owner
    must call {!update} after changing either for a resident tenant, before
    the next query. *)

type t

val create : Tenant.registry -> t
(** Empty: no root resident. *)

val add : t -> int -> unit
(** [add t id]: tenant [id]'s root became resident (no-op if it already is). *)

val remove : t -> int -> unit
(** [remove t id]: tenant [id]'s root left the table (no-op if absent). *)

val update : t -> int -> unit
(** [update t id]: tenant [id]'s [inflight] or [last_active] changed;
    restores the order (no-op if its root is not resident). *)

val victim : t -> idle_only:bool -> exclude:int -> Tenant.t option
(** The least resident root in the order above other than tenant
    [exclude]'s, or [None] when there is none — or, with [idle_only], when
    every candidate is busy. *)
