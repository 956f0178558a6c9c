(** A growable array of integer samples: the service mode keeps every
    completed request's latency, per tenant and run-wide, so its nearest-rank
    percentiles are exact.  A sample costs one word plus the doubling slack,
    against three for an [int list] cell. *)

type t

val create : unit -> t
(** Empty; allocates its array on the first {!push}. *)

val push : t -> int -> unit
val length : t -> int
val of_list : int list -> t

val summary : t -> int * int * int
(** [(p50, p99, max)], nearest-rank as in {!Ccsim.Stats.percentile_int},
    by selection in place (the samples' order is not kept);
    [(0, 0, 0)] when there are none. *)
