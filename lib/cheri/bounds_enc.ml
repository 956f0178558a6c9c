let mantissa_width = 14
let exponent_bits = 6

let mantissa_limit = 1 lsl mantissa_width

(* Span of the region in units of 2^e blocks, base rounded down and top
   rounded up. *)
let span_at ~base ~top e = ((top + (1 lsl e) - 1) asr e) - (base asr e)

(* A top-level loop, not a local closure: this runs on every driver
   install, so it allocates nothing. *)
let rec exponent_from ~base ~top e =
  if span_at ~base ~top e < mantissa_limit then e else exponent_from ~base ~top (e + 1)

let exponent_for ~base ~top = exponent_from ~base ~top 0

let round ~base ~top =
  assert (0 <= base && base <= top);
  let e = exponent_for ~base ~top in
  ((base asr e) lsl e, ((top + (1 lsl e) - 1) asr e) lsl e)

let is_exact ~base ~top = round ~base ~top = (base, top)

let exact_exponent ~base ~top =
  let e = exponent_for ~base ~top in
  if (base asr e) lsl e = base && ((top + (1 lsl e) - 1) asr e) lsl e = top then e
  else -1

let encode_bounds ~base ~top =
  let e = exact_exponent ~base ~top in
  if e < 0 then invalid_arg "Bounds_enc.encode_bounds: bounds not representable";
  let b = base asr e in
  (e, b land (mantissa_limit - 1), (top asr e) - b)

let malloc_shape ~length =
  let length = max length 1 in
  let e = exponent_for ~base:0 ~top:length in
  let align = 1 lsl e in
  (align, (length + align - 1) / align * align)

let decode_base ~addr ~e ~b_low =
  let a = addr asr e in
  let a_mid = a land (mantissa_limit - 1) in
  let a_hi = a asr mantissa_width in
  let b_hi = if a_mid >= b_low then a_hi else a_hi - 1 in
  ((b_hi lsl mantissa_width) lor b_low) lsl e

let decode_bounds ~addr ~e ~b_low ~len_m =
  let base = decode_base ~addr ~e ~b_low in
  (base, base + (len_m lsl e))
