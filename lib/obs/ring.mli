(** A bounded ring buffer that keeps the newest [capacity] elements.

    Pushing into a full ring overwrites the oldest element and increments the
    drop counter (the checker's denial log).  Storage grows on demand up to
    [capacity], so an idle ring costs a few words whatever its capacity.
    [push] is amortized O(1), [to_list]/[iter] are O(length), the rest
    O(1). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive.  Allocates no slots until the first
    push. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Elements currently retained (≤ capacity). *)

val dropped : 'a t -> int
(** Elements overwritten because the ring was full. *)

val pushed : 'a t -> int
(** Total elements ever pushed ([length + dropped]). *)

val push : 'a t -> 'a -> unit

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val clear : 'a t -> unit
(** Empties the ring, releases its slots and resets the drop counter. *)
