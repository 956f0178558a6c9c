(** Runtime values of the kernel IR: 64-bit integers or IEEE doubles. *)

type t = VI of int | VF of float

exception Type_error of string

val of_int : int -> t
(** [VI n], shared for small [n] (-512 to 1023), which therefore allocates
    nothing. *)

val as_int : t -> int
(** Raises {!Type_error} on a float. *)

val as_float : t -> float
(** Raises {!Type_error} on an int. *)

val truthy : t -> bool
(** Nonzero integer.  Floats are not valid conditions (raises). *)

val equal : t -> t -> bool
val to_string : t -> string
