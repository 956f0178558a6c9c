(** A bounded ring buffer that keeps the newest [capacity] elements.

    Pushing into a full ring overwrites the oldest element and increments the
    drop counter (the checker's denial log).  All operations are O(1) except
    [to_list]/[iter], which are O(length). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

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
(** Empties the ring and resets the drop counter. *)
