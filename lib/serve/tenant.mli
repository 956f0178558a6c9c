(** Tenant compartments and their lifecycle.

    Each tenant is its own protection compartment: its capability roots live
    in the checker {!Capchecker.Table} under a private task key (disjoint
    from the accelerator-instance keys the driver uses), and it carries its
    own revocation epoch — bumped whenever the compartment's capabilities are
    revoked wholesale, so a stale delegation from a previous epoch can never
    be confused with a live one.  Departure is single-step: one
    {!teardown} revokes every table entry of the compartment and retires the
    tenant atomically with respect to the service loop's timeline. *)

type state =
  | Pending   (** known to the workload, not yet arrived *)
  | Active
  | Departed  (** compartment torn down; all further requests are [Gone] *)

type t = {
  id : int;
  task_key : int;
      (** checker-table task key of this compartment's roots; allocated above
          the accelerator-instance id range so driver entries and tenant
          roots can never collide *)
  mutable state : state;
  mutable epoch : int;  (** revocation epoch, bumped by {!teardown} *)
  mutable root_resident : bool;
      (** whether the compartment root capability currently occupies a table
          slot (it can be evicted under pressure and lazily reinstalled) *)
  mutable last_active : int;  (** cycle of the last admitted request *)
  mutable inflight : int;
  mutable peak_inflight : int;
  mutable admitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable cancelled : int;  (** admitted requests voided by departure *)
  mutable cpu_fallbacks : int;
  mutable root_installs : int;
  latencies : Samples.t;  (** completed-request latencies *)
}

type registry = t array
(** Indexed by tenant id; a plain array so every iteration order is the id
    order (no hash-table nondeterminism). *)

val make_registry : tenants:int -> instances:int -> registry
(** Tenant [i] gets [task_key = instances + i]. *)

val record_latency : t -> int -> unit

val teardown : Capchecker.Checker.t -> t -> int
(** Revoke the compartment: evict every checker-table entry keyed by
    [task_key], clear [root_resident], bump [epoch], mark [Departed].
    Returns the number of entries evicted.  Idempotent on an already-departed
    tenant (the table holds nothing keyed to it). *)
