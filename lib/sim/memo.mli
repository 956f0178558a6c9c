(** Domain-safe memo table: the one mechanism behind every process-wide cache.

    A hashtable guarded by a mutex, so {!Pool} jobs on several domains may
    share it.  The first value stored under a key wins and is never
    replaced: a cache built on it must hold values that are deterministic
    functions of their key, so that a later store could only have stored an
    equal value anyway.  Stored values must not be mutated by callers. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** An empty table sized for about [n] keys. *)

val find : ('k, 'v) t -> 'k -> 'v option

val add : ('k, 'v) t -> 'k -> 'v -> 'v
(** Store the value unless the key is already bound, and return the value
    the table now holds: the first one ever stored under the key. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The bound value, or [add] of the computed one on a miss.  The
    computation runs outside the lock, so two domains that miss together
    both compute; both then return the first value stored. *)

val length : ('k, 'v) t -> int

val clear : ('k, 'v) t -> unit
