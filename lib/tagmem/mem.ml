(* Data lives in fixed-size pages allocated on first write; an absent page
   reads as zeros.  Tags are paged alongside: one tag page (a byte per
   granule) per data page, allocated only when a tag is first set; an absent
   tag page reads untagged.  A system's DRAM is 16 MiB but a run touches a
   few pages of it, so a fresh memory costs two page tables and nothing
   else. *)

let page_bits = 16
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* The absent-page marker: every real page is [page_size] bytes long. *)
let absent = Bytes.empty

type t = { size : int; pages : Bytes.t array; tags : Bytes.t array }

let granule = 16

(* Granule index [g] lives at byte [g land tag_mask] of tag page
   [g lsr tag_bits]. *)
let tag_bits = page_bits - 4
let tag_mask = (1 lsl tag_bits) - 1

exception Out_of_range of { addr : int; size : int }

let create ~size =
  let size = (size + granule - 1) / granule * granule in
  let n_pages = (size + page_size - 1) / page_size in
  { size; pages = Array.make n_pages absent; tags = Array.make n_pages absent }

let size t = t.size

let check t ~addr ~size:sz =
  if addr < 0 || sz < 0 || sz > t.size - addr then
    raise (Out_of_range { addr; size = sz })

let page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

(* Page [idx] of [table], allocated zero-filled ([len] bytes) if absent. *)
let materialize table idx len =
  let p = table.(idx) in
  if p != absent then p
  else begin
    let p = Bytes.make len '\000' in
    table.(idx) <- p;
    p
  end

let writable_page t addr = materialize t.pages (addr lsr page_bits) page_size

(* [f page offset chunk dst_off] over the page-sized pieces of
   [addr, addr + sz). *)
let iter_chunks ~addr ~size:sz f =
  let rec go addr pos =
    if pos < sz then begin
      let off = addr land page_mask in
      let n = min (sz - pos) (page_size - off) in
      f addr off n pos;
      go (addr + n) (pos + n)
    end
  in
  go addr 0

let blit_out t ~addr dst =
  iter_chunks ~addr ~size:(Bytes.length dst) (fun addr off n pos ->
      let p = page t addr in
      if p == absent then Bytes.fill dst pos n '\000'
      else Bytes.blit p off dst pos n)

let blit_in t ~addr src =
  iter_chunks ~addr ~size:(Bytes.length src) (fun addr off n pos ->
      Bytes.blit src pos (writable_page t addr) off n)

let clear_tags t ~addr ~size:sz =
  if sz > 0 then
    for g = addr / granule to (addr + sz - 1) / granule do
      let tp = t.tags.(g lsr tag_bits) in
      if tp != absent then Bytes.set tp (g land tag_mask) '\000'
    done

let tag_of t g =
  let tp = t.tags.(g lsr tag_bits) in
  tp != absent && Bytes.get tp (g land tag_mask) <> '\000'

let set_tag t g =
  Bytes.set (materialize t.tags (g lsr tag_bits) (1 lsl tag_bits)) (g land tag_mask)
    '\001'

let read_bytes t ~addr ~size:sz =
  check t ~addr ~size:sz;
  let b = Bytes.create sz in
  blit_out t ~addr b;
  b

let write_bytes t ~addr b =
  let sz = Bytes.length b in
  check t ~addr ~size:sz;
  blit_in t ~addr b;
  clear_tags t ~addr ~size:sz

let read_u8 t ~addr =
  check t ~addr ~size:1;
  let p = page t addr in
  if p == absent then 0 else Char.code (Bytes.get p (addr land page_mask))

let write_u8 t ~addr v =
  check t ~addr ~size:1;
  Bytes.set (writable_page t addr) (addr land page_mask) (Char.chr (v land 0xff));
  clear_tags t ~addr ~size:1

(* Scalars take an in-page fast path and fall back to a bounce buffer only
   when they straddle a page boundary. *)

let read_u32 t ~addr =
  check t ~addr ~size:4;
  let off = addr land page_mask in
  let v =
    if off <= page_size - 4 then
      let p = page t addr in
      if p == absent then 0l else Bytes.get_int32_le p off
    else Bytes.get_int32_le (read_bytes t ~addr ~size:4) 0
  in
  Int32.to_int v land 0xffffffff

let write_u32 t ~addr v =
  check t ~addr ~size:4;
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Bytes.set_int32_le (writable_page t addr) off (Int32.of_int v)
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    blit_in t ~addr b
  end;
  clear_tags t ~addr ~size:4

let read_u64 t ~addr =
  check t ~addr ~size:8;
  let off = addr land page_mask in
  if off <= page_size - 8 then
    let p = page t addr in
    if p == absent then 0L else Bytes.get_int64_le p off
  else Bytes.get_int64_le (read_bytes t ~addr ~size:8) 0

let set_u64 t ~addr v =
  let off = addr land page_mask in
  if off <= page_size - 8 then Bytes.set_int64_le (writable_page t addr) off v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    blit_in t ~addr b
  end

let write_u64 t ~addr v =
  check t ~addr ~size:8;
  set_u64 t ~addr v;
  clear_tags t ~addr ~size:8

let read_f32 t ~addr = Int32.float_of_bits (Int32.of_int (read_u32 t ~addr))
let write_f32 t ~addr v = write_u32 t ~addr (Int32.to_int (Int32.bits_of_float v) land 0xffffffff)
let read_f64 t ~addr = Int64.float_of_bits (read_u64 t ~addr)
let write_f64 t ~addr v = write_u64 t ~addr (Int64.bits_of_float v)

(* Zero-filling an absent page is a no-op: the driver scrubs every buffer on
   teardown, and that must not materialize pages nothing ever wrote. *)
let fill t ~addr ~size:sz c =
  check t ~addr ~size:sz;
  iter_chunks ~addr ~size:sz (fun addr off n _ ->
      if c <> '\000' || page t addr != absent then
        Bytes.fill (writable_page t addr) off n c);
  clear_tags t ~addr ~size:sz

let unsafe_write_preserving_tags t ~addr b =
  check t ~addr ~size:(Bytes.length b);
  blit_in t ~addr b

let check_cap_addr addr =
  if addr mod granule <> 0 then
    invalid_arg "Mem: capability access must be 16-byte aligned"

(* A granule never straddles a page, so both halves of a capability are
   in-page scalars. *)
let store_cap t ~addr cap =
  check_cap_addr addr;
  check t ~addr ~size:granule;
  let w = Cheri.Compress.encode cap in
  set_u64 t ~addr w.Cheri.Compress.lo;
  set_u64 t ~addr:(addr + 8) w.Cheri.Compress.hi;
  if cap.Cheri.Cap.tag then set_tag t (addr / granule)
  else clear_tags t ~addr ~size:granule

let load_cap t ~addr =
  check_cap_addr addr;
  check t ~addr ~size:granule;
  let lo = read_u64 t ~addr in
  let hi = read_u64 t ~addr:(addr + 8) in
  let tag = tag_of t (addr / granule) in
  Cheri.Compress.decode ~tag { Cheri.Compress.hi; lo }

let tag_at t ~addr =
  check t ~addr ~size:1;
  tag_of t (addr / granule)

let count_tags t =
  let n = ref 0 in
  Array.iter (Bytes.iter (fun c -> if c <> '\000' then incr n)) t.tags;
  !n
