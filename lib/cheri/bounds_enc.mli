(** Compressed-bounds arithmetic shared by {!Cap} (representability rounding)
    and {!Compress} (the 128-bit format).

    The scheme is CHERI Concentrate reduced to its essence: bounds are encoded
    relative to the capability's address as an exponent [e] plus two mantissas —
    the low {!mantissa_width} bits of [base >> e] and the encoded length
    [(top >> e) - (base >> e)].  Decoding reconstructs the high bits of the
    base from the address, which is exact whenever the address lies inside
    [base, top] (an invariant {!Cap.set_address} maintains by clearing the tag
    otherwise). *)

val mantissa_width : int
(** Mantissa width in bits (14). *)

val exponent_bits : int
(** Bits reserved for the exponent in the encoding (6). *)

val exponent_for : base:int -> top:int -> int
(** The smallest exponent at which the region rounds to a representable one. *)

val round : base:int -> top:int -> int * int
(** [round ~base ~top] is the smallest representable [(base', top')] with
    [base' <= base] and [top' >= top] ({i representability rounding}).
    Requires [0 <= base <= top <= Cap.max_address]. *)

val is_exact : base:int -> top:int -> bool
(** True when [round ~base ~top = (base, top)]. *)

val exact_exponent : base:int -> top:int -> int
(** The exponent {!encode_bounds} would use when [is_exact ~base ~top], and
    -1 otherwise; allocates nothing. *)

val encode_bounds : base:int -> top:int -> int * int * int
(** [(e, b_low, len_m)] for representable bounds; raises [Invalid_argument]
    when the bounds are not exactly representable. *)

val decode_bounds : addr:int -> e:int -> b_low:int -> len_m:int -> int * int
(** Reconstruct [(base, top)].  Exact when the original address satisfied
    [base <= addr <= top]. *)

val decode_base : addr:int -> e:int -> b_low:int -> int
(** The [base] of {!decode_bounds}, without the pair; its [top] is
    [base + (len_m lsl e)]. *)

val malloc_shape : length:int -> int * int
(** [(align, padded_length)] such that any [align]-aligned base gives exactly
    representable bounds of [padded_length] bytes covering a [length]-byte
    request.  This is what a CHERI-aware allocator pads requests with so a
    capability never spills into a neighbouring allocation. *)
