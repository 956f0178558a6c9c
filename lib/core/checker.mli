(** The CapChecker: run-time capability checks on accelerator DMA (Figure 5).

    Two provenance modes adapt to the accelerator's memory interface:
    - {e Fine} — every object is distinguished by its hardware port (or an
      object identifier hardened in the interface metadata); protection is at
      object granularity.
    - {e Coarse} — the accelerator multiplexes all traffic on one port with no
      provenance; the driver retrofits an object id into the top
      {!obj_id_bits} bits of the 64-bit address, leaving a
      {!Cheri.Cap.max_address_bits}-bit physical space.  A task that corrupts
      its own address arithmetic can reach its {e own} other objects (the
      worst case degrades to task granularity) but never another task's,
      because the task id comes from the interconnect source, which it cannot
      forge.

    On a violation the checker raises a global exception flag (visible to the
    CPU over MMIO) and sets the per-entry exception bit for software tracing;
    the access never reaches memory. *)

type mode = Fine | Coarse

type t

val create :
  ?entries:int -> ?obs:Obs.Trace.t -> ?log_capacity:int ->
  ?faults:Fault.Injector.t -> mode -> t
(** [entries] defaults to 256 (the prototype's table size).  [obs] (default
    {!Obs.Trace.null}) receives [Check_ok]/[Check_denial] per adjudication and
    [Table_insert]/[Table_evict] for table maintenance.  [log_capacity]
    (default 256) bounds the software-visible denial log: a denial storm
    retains only the newest entries and counts the rest
    ({!dropped_denials}).  [faults] (default {!Fault.Injector.none}) can force
    individual installs to report [Table_full], modelling transient table
    pressure. *)

val mode : t -> mode
val table : t -> Table.t
val obs : t -> Obs.Trace.t
(** The event sink (shared with the MMIO register window). *)

val check_latency : int
(** Pipeline stages added on the DMA path: table fetch + capability decode +
    bounds/permission compare, fully pipelined (1 cycle). *)

(** {1 Coarse-mode address layout} *)

val obj_id_bits : int
(** 8 — the reserved top address bits. *)

val coarse_shift : int
(** Bit position of the object id in a composed bus word: the top
    [obj_id_bits] of the simulator's 63-bit int (54 on a 64-bit host).  The
    hardware packs at bit {!Cheri.Cap.max_address_bits}; the model packs two
    bits lower so that all 256 object ids survive the host's narrower word
    without aliasing. *)

val coarse_window : int
(** [2^coarse_shift] — exclusive upper bound on a coarse-composable physical
    address. *)

val compose_coarse : obj:int -> int -> int
(** [compose_coarse ~obj phys] is the bus address the trusted driver loads
    into the accelerator's pointer register.

    @raise Invalid_argument when [obj] is outside [0, 2^{!obj_id_bits}) or
    [phys] outside [0, {!coarse_window}) — silent truncation would alias
    another object's window. *)

val split_coarse : int -> int * int
(** [(obj, phys)] from a bus address; inverse of {!compose_coarse} on its
    accepted domain. *)

(** {1 The DMA-path check}

    One adjudicator: {!verdict} decides and records; {!check} is {!verdict}
    plus rendering the result as a {!Guard.Iface.outcome}.  A denial is
    recorded as a structured {!denial}, and its text is built only when
    something reads it. *)

type reason =
  | No_provenance  (** a Fine-mode request without a port *)
  | No_capability  (** no table entry for (task, object) *)
  | Violation of Cheri.Cap.error * Guard.Iface.req
      (** the entry's capability refuses the request *)

type denial = { task : int; obj : int; reason : reason }
(** What the denial log retains.  [obj] is 0 for [No_provenance]. *)

val verdict : t -> Guard.Iface.req -> int
(** The physical address ([>= 0]) if granted, [-1] if denied.  A grant
    records its latency ({!last_latency}); a denial records a {!denial}
    ({!last_denial}) and does all of {!record_denial}'s bookkeeping. *)

val last_latency : t -> int
(** Latency of the last granted verdict. *)

val last_denial : t -> denial
(** The last denial recorded, by any path (a shim's included). *)

val check : t -> Guard.Iface.req -> Guard.Iface.outcome
(** {!verdict}, with a denial rendered by {!render}. *)

val render : denial -> Guard.Iface.denial
(** Code ["capchecker"] and the detail text software sees. *)

val as_guard : t -> Guard.Iface.t

(** {1 Distributed-checking hooks (see {!Shim})}

    The pieces of {!verdict} a per-source shim needs to adjudicate locally
    while staying verdict-identical to the central unit: provenance
    resolution, the entry-evaluation tail, and the denial bookkeeping (flag,
    per-entry exception bit, bounded log, [Check_denial] event). *)

val resolve : t -> Guard.Iface.req -> int * int
(** [(obj, phys)] per the checker's addressing mode; [obj < 0] means the
    request carried no object provenance (a Fine-mode request without a
    port) and must be denied with [No_provenance] against object 0. *)

val adjudicate_entry :
  t -> Guard.Iface.req -> task:int -> obj:int -> phys:int -> latency:int ->
  Table.entry -> int
(** Evaluate a fetched entry against the request, as {!verdict} does: on a
    grant, emits [Check_ok] and records the caller's [latency] (central
    fetch, shim hit and shim refill differ) and returns [phys]; otherwise
    records the denial and returns [-1].  The verdict is independent of
    [latency]. *)

val record_denial : t -> task:int -> obj:int -> reason -> int
(** The central denial path: raises the global flag, marks the entry's
    exception bit, pushes the bounded log and, when the sink is enabled,
    emits [Check_denial] with the rendered detail.  Returns [-1].  Shims
    route every denial through here so software observes one stream. *)

type update =
  | Up_install of { task : int; obj : int }
  | Up_evict of { task : int; obj : int }
  | Up_evict_task of { task : int }

val on_update : t -> (update -> unit) -> unit
(** Register a table-mutation listener (fired after the event emit, in
    registration order) — the invalidate channel replicas subscribe to. *)

(** {1 CPU-side MMIO interface (capability interconnect)} *)

val install : t -> task:int -> obj:int -> Cheri.Cap.t -> Table.install_result
val evict : t -> task:int -> obj:int -> bool
val evict_task : t -> task:int -> int

val table_stats : t -> Table.stats
(** Cumulative table-pressure counters (see {!Table.stats}).  Installs
    suppressed by an injected [Table_full] fault never reach the table and are
    not counted — the counters describe real hardware state transitions. *)

val observe_table : t -> into:Obs.Metrics.t -> unit
(** Surface {!table_stats} as ["checker.table_*"] counters in a metrics
    store: [table_installs], [table_evictions], [table_conflicts],
    [table_rejected], plus the [table_live] gauge and [table_peak]
    high-water mark. *)

val exception_flag : t -> bool
(** The global "an exception has been caught" flag. *)

val clear_exception_flag : t -> unit

val exception_log : t -> Guard.Iface.denial list
(** Retained denials, oldest first, rendered on each call (simulator
    observability; hardware keeps only the flag and per-entry bits).
    Bounded: at most [log_capacity] entries are kept, newest win — the full
    denial stream is available through the event trace. *)

val exception_log_for : t -> task:int -> Guard.Iface.denial list
(** Retained denials attributable to one task (what the driver reports to
    the application that owned the task). *)

val dropped_denials : t -> int
(** Denials discarded from the bounded log because it was full. *)

val log_capacity : t -> int

val install_cycles : Bus.Params.t -> int
(** Driver cost of installing one capability: two 64-bit data words plus a
    command word over the capability interconnect. *)

val evict_cycles : Bus.Params.t -> int
val poll_cycles : Bus.Params.t -> int
(** Reading the global exception flag. *)

val area_luts : t -> int
(** See {!Area}. *)
