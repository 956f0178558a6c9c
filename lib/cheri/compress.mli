(** The 128-bit in-memory capability format (Figure 3 of the paper), plus the
    out-of-band tag bit.

    Layout:
    - low word: the 64-bit address (cursor);
    - high word, from bit 0: encoded length (14) | base mantissa (14) |
      exponent (6) | otype (18) | permissions (12).

    The tag bit never lives inside the 128 bits — it travels on a separate
    wire / shadow store ({!Tagmem}), which is exactly what makes capabilities
    unforgeable by byte-level writes. *)

type words = { hi : int64; lo : int64 }
(** The raw 128 bits as stored in memory. *)

val encode : Cap.t -> words
(** Pack a capability.  Raises [Invalid_argument] if the bounds are not
    representable (impossible for capabilities built through {!Cap}'s API,
    which rounds; possible only for {!Cap.unsafe_make} forgeries). *)

val decode : tag:bool -> words -> Cap.t
(** Unpack.  [decode ~tag (encode c) = c] whenever [c.addr] lies within
    [c.base, c.top] and [tag = c.tag] — the round-trip property tested in the
    suite. *)

val store : Cap.t -> Bytes.t -> int -> unit
(** [store c buf off] writes [encode c] as 16 little-endian bytes: the low
    word at [off], the high word at [off + 8] — the order of a capability in
    memory and in the CapChecker's staging registers.  Allocates nothing;
    raises [Invalid_argument] where {!encode} does. *)

val load : tag:bool -> Bytes.t -> int -> Cap.t
(** [load ~tag buf off] is {!decode} of the 16 bytes {!store} writes at
    [off]; it allocates only the capability. *)

val zero : words
(** All-zero bits (what a scrubbed capability slot holds). *)

val equal_words : words -> words -> bool
