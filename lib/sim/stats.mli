(** Named statistics counters collected during a simulation run, plus the small
    numeric summaries (geometric mean, percentiles) used by the evaluation. *)

type t
(** A mutable bag of named counters. *)

val create : unit -> t

val incr : t -> string -> unit
(** Add one to a counter, creating it at zero if absent. *)

val add : t -> string -> int -> unit
(** Add an arbitrary amount to a counter. *)

val get : t -> string -> int
(** Current value, 0 if the counter was never touched. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)

val merge_into : dst:t -> t -> unit
(** Accumulate every counter of the source into [dst]. *)

val geomean : float list -> float
(** Geometric mean; requires all elements positive; 1.0 on the empty list. *)

val mean : float list -> float
(** Arithmetic mean; 0.0 on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], nearest-rank on the sorted list.
    @raise Invalid_argument on the empty list (a phase that recorded no
    samples must be handled by the caller, not reported as a bogus 0). *)

val nearest_rank_index : float -> int -> int
(** [nearest_rank_index p n] is the index of the [p]-th percentile in an
    ascending array of [n > 0] samples, by the nearest-rank convention of
    {!percentile} — for a caller reading several percentiles from one
    sort. *)

val percentile_int : float -> int list -> int
(** Same nearest-rank convention on integer samples (cycle latencies), without
    a lossy round-trip through [float].
    @raise Invalid_argument on the empty list. *)

val percentile_int_opt : float -> int list -> int option
(** [None] on the empty list — for report rows over per-group samples where a
    group legitimately recorded nothing (e.g. a tenant that was admitted no
    requests) and must render as a documented zero-request row rather than
    raise mid-report. *)
