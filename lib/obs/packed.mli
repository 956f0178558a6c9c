(** The event store behind a recording {!Trace} sink.

    Events are kept as fixed-width rows of one [int array] — cycle,
    constructor tag and up to seven int fields ([Bus_grant] is the widest;
    [read] is stored as 0/1) — plus a parallel [string array] with two slots
    per row, written only by [Check_denial], [Task_phase], [Fault_injected]
    and [Task_fallback].  Pushing an int-only event therefore allocates
    nothing and fires no write barrier, and nothing it stores survives a
    minor collection; reading back decodes each row into a fresh
    {!Event.t}.  The store is a ring that keeps the newest [capacity] events
    and counts the rest as dropped; its rows live in chunks of 1024, each
    allocated when first written, so a large capacity costs nothing until
    it is used and no row is ever copied.

    This is the one place that maps {!Event.data} to rows and back. *)

val tags : int
(** Number of constructors of {!Event.data}; tags are [0 .. tags - 1]. *)

val tag : Event.data -> int
(** Constructor index, in declaration order. *)

val sample : int -> Event.data
(** An event with the given tag and zero / empty fields. *)

type t

val create : capacity:int -> t
(** [capacity] must be positive (checked by the caller). *)

val push : t -> cycle:int -> Event.data -> unit
val iter : (Event.t -> unit) -> t -> unit
(** Retained events, oldest first. *)

val length : t -> int
val dropped : t -> int
val capacity : t -> int
val clear : t -> unit
