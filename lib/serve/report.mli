(** The service-mode report: per-tenant tail latency, admission outcomes and
    checker-table pressure for one long-horizon run.

    Everything in the report is an integer or a string, and every collection
    is emitted in a fixed order (tenant id order; metric name order), so
    {!to_string} is byte-identical across repeat runs of a seed and across
    [--jobs] values — the property the CI serve-determinism gate diffs. *)

type totals = {
  t_requests : int;          (** offered requests *)
  t_admitted : int;
  t_completed : int;
  t_rejected_gone : int;     (** tenant absent or departed *)
  t_rejected_inflight : int; (** per-tenant in-flight bound *)
  t_rejected_table : int;    (** table-occupancy watermark *)
  t_cancelled : int;         (** admitted, then voided by tenant departure *)
  t_cpu_fallbacks : int;     (** admitted requests served on the CPU *)
  t_root_installs : int;     (** compartment-root capability installs *)
  t_root_reinstalls : int;   (** installs after a pressure eviction *)
  t_root_evictions : int;    (** roots evicted to make room (thrash) *)
  t_root_stalls : int;       (** installs abandoned: no evictable victim *)
  t_arrived : int;
  t_departed : int;          (** tenants torn down mid-run (churn) *)
}

type tenant_row = {
  tr_id : int;
  tr_admitted : int;
  tr_completed : int;
  tr_rejected : int;
  tr_cancelled : int;
  tr_cpu : int;
  tr_departed : bool;
  tr_epoch : int;
  tr_p50 : int;  (** 0 on a zero-completion tenant (documented zero row) *)
  tr_p99 : int;
  tr_max : int;
}

type t = {
  rp_config : string;
  rp_seed : int;
  rp_tenants : int;
  rp_requests : int;
  rp_instances : int;
  rp_cc_entries : int;
  rp_gap : int;       (** effective mean inter-arrival gap (cycles) *)
  rp_makespan : int;  (** cycle the last event retired *)
  rp_totals : totals;
  rp_table : Capchecker.Table.stats;
  rp_p50 : int;       (** latency percentiles over all completed requests *)
  rp_p99 : int;
  rp_max : int;
  rp_rows : tenant_row list;  (** tenant id order *)
  rp_metrics : (string * int) list;  (** metric counters, name order *)
}

val latency_summary : int list -> int * int * int
(** {!Samples.summary} of a list: [(p50, p99, max)], nearest-rank as in
    {!Ccsim.Stats.percentile_int}; [(0, 0, 0)] on the empty list (the
    documented zero row). *)

val row_of_tenant : Tenant.t -> tenant_row
(** Percentiles via {!Samples.summary}, which reorders the tenant's samples
    in place: a tenant that completed nothing gets an all-zero latency row,
    never an exception. *)

val thrash : t -> int
(** Eviction thrash: table conflicts + compartment-root evictions — the
    headline pressure signal as tenant count sweeps past table capacity. *)

val to_json : t -> Obs.Json.t
val to_string : t -> string
(** Compact JSON ([serve-report/1] schema). *)

val to_table : ?top:int -> t -> string
(** Human-readable summary plus the [top] (default 10) tenants ranked by p99
    latency (ties broken by lower id). *)
