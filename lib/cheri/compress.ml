type words = { hi : int64; lo : int64 }

let mw = Bounds_enc.mantissa_width
let len_shift = 0
let b_low_shift = mw
let e_shift = 2 * mw
let otype_shift = e_shift + Bounds_enc.exponent_bits
let perms_shift = otype_shift + 18

let field v shift = Int64.shift_left (Int64.of_int v) shift

let extract w shift width =
  Int64.to_int
    (Int64.logand (Int64.shift_right_logical w shift)
       (Int64.sub (Int64.shift_left 1L width) 1L))

let encode (c : Cap.t) =
  let e, b_low, len_m = Bounds_enc.encode_bounds ~base:c.base ~top:c.top in
  let hi =
    Int64.logor (field len_m len_shift)
      (Int64.logor (field b_low b_low_shift)
         (Int64.logor (field e e_shift)
            (Int64.logor (field c.otype otype_shift)
               (field (Perms.to_mask c.perms) perms_shift))))
  in
  { hi; lo = Int64.of_int c.addr }

let decode ~tag { hi; lo } =
  let len_m = extract hi len_shift mw in
  let b_low = extract hi b_low_shift mw in
  let e = extract hi e_shift Bounds_enc.exponent_bits in
  let otype = extract hi otype_shift 18 in
  let perms = Perms.of_mask (extract hi perms_shift 12) in
  let addr = Int64.to_int lo in
  let base, top = Bounds_enc.decode_bounds ~addr ~e ~b_low ~len_m in
  Cap.unsafe_make ~tag ~perms ~otype ~base ~top ~addr

let zero = { hi = 0L; lo = 0L }
let equal_words a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo
