type binding = { decl : Kernel.Ir.buf_decl; base : int }

(* A task holds a handful of buffers, so the bindings are kept once, sorted
   by base, and {!find} scans them: cheaper per allocation than a hash
   table, and {!bindings} needs no re-sort on each teardown.  [make] checks
   and sorts without allocating when the list is already in base order,
   which a first-fit heap gives every task placed into one free block. *)
type t = binding list

let rec named name = function
  | [] -> false
  | b :: rest -> String.equal b.decl.Kernel.Ir.buf_name name || named name rest

let rec check_unique = function
  | [] -> ()
  | b :: rest ->
      let name = b.decl.Kernel.Ir.buf_name in
      if named name rest then invalid_arg ("Layout.make: duplicate buffer " ^ name);
      check_unique rest

let rec sorted = function
  | a :: (b :: _ as rest) -> a.base <= b.base && sorted rest
  | [ _ ] | [] -> true

let make bindings =
  check_unique bindings;
  if sorted bindings then bindings
  else List.stable_sort (fun a b -> Int.compare a.base b.base) bindings

let rec find_in name = function
  | [] -> raise Not_found
  | b :: rest ->
      if String.equal b.decl.Kernel.Ir.buf_name name then b else find_in name rest

let find t name = find_in name t

let bindings t = t

let elem_addr b idx = b.base + (idx * Kernel.Ir.elem_bytes b.decl.Kernel.Ir.elem)

let sign_extend_32 v = if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v

let read_elem mem elem ~addr : Kernel.Value.t =
  match (elem : Kernel.Ir.elem) with
  | U8 -> VI (Tagmem.Mem.read_u8 mem ~addr)
  | I32 -> VI (sign_extend_32 (Tagmem.Mem.read_u32 mem ~addr))
  | I64 -> VI (Int64.to_int (Tagmem.Mem.read_u64 mem ~addr))
  | F32 -> VF (Tagmem.Mem.read_f32 mem ~addr)
  | F64 -> VF (Tagmem.Mem.read_f64 mem ~addr)

let write_elem mem elem ~addr (value : Kernel.Value.t) =
  match (elem : Kernel.Ir.elem) with
  | U8 -> Tagmem.Mem.write_u8 mem ~addr (Kernel.Value.as_int value)
  | I32 -> Tagmem.Mem.write_u32 mem ~addr (Kernel.Value.as_int value land 0xffff_ffff)
  | I64 -> Tagmem.Mem.write_u64 mem ~addr (Int64.of_int (Kernel.Value.as_int value))
  | F32 ->
      (* Narrow to single precision on store, like a real f32 buffer. *)
      let narrowed = Int32.float_of_bits (Int32.bits_of_float (Kernel.Value.as_float value)) in
      Tagmem.Mem.write_f32 mem ~addr narrowed
  | F64 -> Tagmem.Mem.write_f64 mem ~addr (Kernel.Value.as_float value)

let encode_bytes elem (value : Kernel.Value.t) =
  let open Kernel in
  match (elem : Ir.elem) with
  | U8 -> Bytes.make 1 (Char.chr (Value.as_int value land 0xff))
  | I32 ->
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int (Value.as_int value));
      b
  | I64 ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int (Value.as_int value));
      b
  | F32 ->
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.bits_of_float (Value.as_float value));
      b
  | F64 ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.bits_of_float (Value.as_float value));
      b

let write_elem_preserving_tags mem elem ~addr value =
  Tagmem.Mem.unsafe_write_preserving_tags mem ~addr (encode_bytes elem value)

let init_buffer mem b gen =
  let elem = b.decl.Kernel.Ir.elem in
  for idx = 0 to b.decl.Kernel.Ir.len - 1 do
    write_elem mem elem ~addr:(elem_addr b idx) (gen idx)
  done

let read_buffer mem b =
  let elem = b.decl.Kernel.Ir.elem in
  Array.init b.decl.Kernel.Ir.len (fun idx -> read_elem mem elem ~addr:(elem_addr b idx))
