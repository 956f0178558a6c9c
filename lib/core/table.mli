(** The CapChecker's capability table (Figure 5).

    A fixed file of entries, each holding a decoded CHERI capability keyed by
    (accelerator task, object id).  The table is the hardware repository the
    paper describes: capabilities live {e inside} the CapChecker where no
    accelerator access can reach them, which is what keeps them unforgeable.

    Allocation is associative: the driver presents a capability and the table
    finds a free slot; when none is free the driver must evict (the paper's
    stall-until-eviction protocol).  Each entry carries an exception bit so
    software can trace which object an offending access targeted. *)

type t

(** An entry's exception bit, with whether {!report_exception} has returned
    it since it was set. *)
type exn_state = No_exception | Unreported | Reported

type entry = private {
  mutable cap : Cheri.Cap.t;
  mutable task : int;
  mutable obj : int;
  mutable live : bool;
  mutable exn : exn_state;
}

val create : entries:int -> t
(** [entries] is the hardware capacity (256 in the paper's prototype). *)

val capacity : t -> int

val live_count : t -> int
(** Live-occupancy gauge, maintained incrementally (O(1)). *)

type stats = {
  st_installs : int;   (** successful installs, including same-key replaces *)
  st_evictions : int;  (** entries removed by {!evict} or {!evict_task} *)
  st_conflicts : int;  (** installs refused with {!Table_full} *)
  st_rejected : int;   (** installs refused with {!Rejected_untagged} *)
  st_live : int;       (** current occupancy (= {!live_count}) *)
  st_peak : int;       (** high-water mark of occupancy over the table's life *)
}
(** Cumulative pressure counters since {!create}.  Under a long-horizon
    multi-tenant workload, [st_conflicts] and [st_evictions] together measure
    eviction thrash once tenant working sets exceed {!capacity}. *)

val stats : t -> stats

type install_result =
  | Installed of int      (** slot index *)
  | Table_full
  | Rejected_untagged     (** the control logic verifies the tag (Fig. 6 ③) *)

val packable : task:int -> obj:int -> bool
(** Whether (task, obj) is an installable key: [0 <= task < 2^42] and
    [0 <= obj < 2^20] (the index packs both into one int). *)

val install : t -> task:int -> obj:int -> Cheri.Cap.t -> install_result
(** Install, replacing any live entry with the same (task, obj) key.  A key
    that is not {!packable} raises [Invalid_argument]. *)

val lookup : t -> task:int -> obj:int -> entry option
(** The per-request associative fetch.  A key outside the installable range
    is simply absent. *)

val mark_exception : t -> task:int -> obj:int -> unit
(** Set the exception bit if the entry exists (otherwise only the global flag
    in {!Checker} records the event). *)

val evict : t -> task:int -> obj:int -> bool
(** Evict one entry; false if absent. *)

val evict_task : t -> task:int -> int
(** Evict every entry of a task (deallocation, Fig. 6 ②); returns the count.
    While the object ids ever installed stay below a quarter of
    {!capacity}, it probes the index for each instead of scanning every
    slot. *)

val exception_count : t -> int
(** Live entries whose exception bit is set, maintained incrementally
    (O(1)): the length of {!entries_with_exceptions}, without building it. *)

val entries_with_exceptions : t -> (int * int) list
(** Live (task, obj) keys whose exception bit is set.  Eviction clears the
    bit, so a departed tenant's slot never reports a stale exception. *)

val report_exception : t -> (int * int) option
(** The (task, obj) key of the lowest-numbered live entry whose exception bit
    is set and not yet reported, now marked reported: each setting of a bit
    is returned exactly once.  Another denial on a set bit is the same
    setting; eviction or reinstall clears the bit, so the next denial is a
    new one.  [None] when every set bit has been reported. *)

val iter_live : t -> (entry -> unit) -> unit
