type words = { hi : int64; lo : int64 }

let mw = Bounds_enc.mantissa_width
let len_shift = 0
let b_low_shift = mw
let e_shift = 2 * mw
let otype_shift = e_shift + Bounds_enc.exponent_bits
let perms_shift = otype_shift + 18

let[@inline] field v shift = Int64.shift_left (Int64.of_int v) shift

let[@inline] extract w shift width =
  Int64.to_int
    (Int64.logand (Int64.shift_right_logical w shift)
       (Int64.sub (Int64.shift_left 1L width) 1L))

(* The high word of [c], whose bounds are exact at exponent [e]. *)
let[@inline] high_word (c : Cap.t) e =
  let b = c.base asr e in
  Int64.logor (field ((c.top asr e) - b) len_shift)
    (Int64.logor (field (b land ((1 lsl mw) - 1)) b_low_shift)
       (Int64.logor (field e e_shift)
          (Int64.logor (field c.otype otype_shift)
             (field (Perms.to_mask c.perms) perms_shift))))

let exponent (c : Cap.t) =
  let e = Bounds_enc.exact_exponent ~base:c.base ~top:c.top in
  if e < 0 then invalid_arg "Compress: bounds not representable";
  e

let[@inline] of_words ~tag hi lo =
  let e = extract hi e_shift Bounds_enc.exponent_bits in
  let addr = Int64.to_int lo in
  let base = Bounds_enc.decode_base ~addr ~e ~b_low:(extract hi b_low_shift mw) in
  Cap.unsafe_make ~tag
    ~perms:(Perms.of_mask (extract hi perms_shift 12))
    ~otype:(extract hi otype_shift 18)
    ~base
    ~top:(base + (extract hi len_shift mw lsl e))
    ~addr

let encode c = { hi = high_word c (exponent c); lo = Int64.of_int c.addr }
let decode ~tag { hi; lo } = of_words ~tag hi lo

(* The same on the 16-byte image itself: [high_word] and [of_words] are
   inlined, so the int64 words stay unboxed and only [load]'s capability
   is allocated. *)
let store (c : Cap.t) buf off =
  let e = exponent c in
  Bytes.set_int64_le buf off (Int64.of_int c.addr);
  Bytes.set_int64_le buf (off + 8) (high_word c e)

let load ~tag buf off =
  of_words ~tag (Bytes.get_int64_le buf (off + 8)) (Bytes.get_int64_le buf off)

let zero = { hi = 0L; lo = 0L }
let equal_words a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo
