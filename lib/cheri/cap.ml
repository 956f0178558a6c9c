type kind = Read | Write | Exec

type error =
  | Tag_violation
  | Seal_violation
  | Perm_violation of Perms.t
  | Bounds_violation of { addr : int; size : int }
  | Monotonicity_violation
  | Representability_error

let error_to_string = function
  | Tag_violation -> "tag violation"
  | Seal_violation -> "seal violation"
  | Perm_violation p -> Printf.sprintf "permission violation (needs %s)" (Perms.to_string p)
  | Bounds_violation { addr; size } ->
      Printf.sprintf "bounds violation at 0x%x+%d" addr size
  | Monotonicity_violation -> "monotonicity violation"
  | Representability_error -> "bounds not representable"

type t = {
  tag : bool;
  perms : Perms.t;
  otype : int;
  base : int;
  top : int;
  addr : int;
}

let max_address_bits = 56
let max_address = 1 lsl max_address_bits

let root =
  { tag = true; perms = Perms.all; otype = 0; base = 0; top = max_address; addr = 0 }

let null = { tag = false; perms = Perms.none; otype = 0; base = 0; top = 0; addr = 0 }

let is_sealed c = c.otype <> 0
let length c = c.top - c.base

let check_derivable c =
  if not c.tag then Error Tag_violation
  else if is_sealed c then Error Seal_violation
  else Ok ()

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let make_child c ~base ~top =
  if base < c.base || top > c.top || base > top then Error Monotonicity_violation
  else Ok { c with base; top; addr = base }

let set_bounds c ~base ~length =
  if length < 0 || base < 0 || length > max_address - base then
    Error Monotonicity_violation
  else
    let* () = check_derivable c in
    let base', top' = Bounds_enc.round ~base ~top:(base + length) in
    make_child c ~base:base' ~top:top'

let set_bounds_exact c ~base ~length =
  if length < 0 || base < 0 || length > max_address - base then
    Error Monotonicity_violation
  else
    let* () = check_derivable c in
    if not (Bounds_enc.is_exact ~base ~top:(base + length)) then
      Error Representability_error
    else make_child c ~base ~top:(base + length)

let set_address c addr =
  if addr < c.base || addr > c.top then { c with addr; tag = false }
  else { c with addr }

let with_perms c p =
  let* () = check_derivable c in
  Ok { c with perms = Perms.inter p c.perms }

let restrict c ~base ~length ~perms =
  let top = base + length in
  if
    length < 0 || base < 0 || length > max_address - base || not c.tag
    || is_sealed c || base < c.base || top > c.top
    || Bounds_enc.exact_exponent ~base ~top < 0
  then invalid_arg "Cap.restrict: region not exactly derivable"
  else { c with base; top; addr = base; perms = Perms.inter perms c.perms }

let seal_with c ~sealer =
  let* () = check_derivable c in
  let* () = check_derivable sealer in
  if not (Perms.mem Perms.seal sealer.perms) then Error (Perm_violation Perms.seal)
  else if sealer.addr < sealer.base || sealer.addr >= sealer.top then
    Error (Bounds_violation { addr = sealer.addr; size = 1 })
  else if sealer.addr = 0 then Error Seal_violation
  else Ok { c with otype = sealer.addr }

let unseal_with c ~unsealer =
  if not c.tag then Error Tag_violation
  else if not (is_sealed c) then Error Seal_violation
  else
    let* () = check_derivable unsealer in
    if not (Perms.mem Perms.unseal unsealer.perms) then
      Error (Perm_violation Perms.unseal)
    else if unsealer.addr <> c.otype then Error Seal_violation
    else Ok { c with otype = 0 }

let clear_tag c = { c with tag = false }

let perm_for = function
  | Read -> Perms.load
  | Write -> Perms.store
  | Exec -> Perms.execute

let access_ok c ~addr ~size kind =
  if not c.tag then Error Tag_violation
  else if is_sealed c then Error Seal_violation
  else
    let p = perm_for kind in
    if not (Perms.mem p c.perms) then Error (Perm_violation p)
    else if size < 0 || addr < c.base || size > c.top - addr then
      Error (Bounds_violation { addr; size })
    else Ok ()

let derives ~parent c =
  c.base >= parent.base && c.top <= parent.top
  && Perms.subset c.perms parent.perms

let equal a b =
  a.tag = b.tag && a.perms = b.perms && a.otype = b.otype && a.base = b.base
  && a.top = b.top && a.addr = b.addr

let pp fmt c =
  Format.fprintf fmt "[%c %s otype=%d 0x%x..0x%x @0x%x]"
    (if c.tag then 'v' else '-')
    (Perms.to_string c.perms) c.otype c.base c.top c.addr

let to_string c = Format.asprintf "%a" pp c

let unsafe_make ~tag ~perms ~otype ~base ~top ~addr =
  { tag; perms; otype; base; top; addr }
