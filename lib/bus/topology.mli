(** Pluggable interconnect topology for the event-driven core.

    Three shapes over the same round-robin {!Arbiter}:

    - [Shared] — one arbiter, one grant per cycle: byte-for-byte today's bus
      and the differential oracle ({!request} delegates directly, so a
      single-source run is cycle-identical to {!Fabric.request}).
    - [Crossbar {banks}] — per-target arbitration: each memory bank stripe
      ({!bank_interleave} bytes) has its own arbiter, so transactions to
      disjoint banks are granted concurrently and only same-bank traffic
      serializes.
    - [Hierarchical {clusters}] — two-level: sources are spread round-robin
      over cluster-local arbiters ([src mod clusters]); a local winner pays
      {!uplink_latency} to reach the root arbiter (where clusters compete)
      and the response pays the same hop back.

    Fault draws and [Bus_grant]/[Bus_beat] events happen once per transaction
    in every topology: on the owning bank arbiter for a crossbar, and on the
    root (with the cluster id as source) for the hierarchy. *)

type kind =
  | Shared
  | Crossbar of { banks : int }
  | Hierarchical of { clusters : int }

val default_banks : int
val default_clusters : int

val max_count : int
(** 4096: the largest bank or cluster count a topology accepts.  Each bank
    or cluster is a live arbiter, so the bound keeps a mistyped count from
    exhausting memory. *)

val uplink_latency : int
(** One-way cycles between a cluster-local bus and the root interconnect. *)

val bank_interleave : int
(** Bytes per bank stripe for {!target_for}'s address interleaving. *)

val kind_to_string : kind -> string
(** [shared], [crossbar:<banks>] or [hier:<clusters>] — round-trips with
    {!kind_of_string}. *)

val kind_of_string : string -> (kind, string) result
(** Accepts [shared], [crossbar], [xbar], [hier], [hierarchical], optionally
    suffixed [:<n>] for the bank/cluster count: decimal digits only, with
    [1 <= n <= ]{!max_count}.  Any other count is an [Error] that names
    the limit, and one in a form other than decimal digits ([0x10], [+4],
    [4_0], ...) an [Error] that also names that form.  Never raises. *)

type t

val create :
  ?obs:Obs.Trace.t -> ?faults:Fault.Injector.t -> sched:Ccsim.Sched.t ->
  kind:kind -> Params.t -> t
(** Raises [Invalid_argument] for a bank or cluster count outside
    [1, ]{!max_count}. *)

val kind : t -> kind

val targets : t -> int
(** Number of distinct request targets (bank count for a crossbar, 1
    otherwise). *)

val target_for : t -> addr:int -> int
(** Bank owning physical address [addr] (always 0 outside a crossbar). *)

val home_target : t -> src:int -> int
(** Deterministic home bank for traffic with no recorded address (trace-fed
    replay streams): [src mod banks] on a crossbar, 0 otherwise. *)

val request :
  t ->
  src:int ->
  target:int ->
  at:int ->
  beats:int ->
  is_read:bool ->
  extra_latency:int ->
  on_grant:(Fabric.grant -> unit) ->
  unit
(** Same contract as {!Arbiter.request}, grant record lifetime included;
    [target] selects the bank arbiter on a crossbar (see {!target_for} /
    {!home_target}) and is ignored elsewhere.  On the hierarchy the grant
    delivered to [on_grant] is the root grant with the return uplink hop
    added to [completed]. *)

val total_beats : t -> int
(** Beats transferred, summed over bank arbiters (root only for the
    hierarchy — each transaction is counted once). *)
