type t = {
  base : int;
  limit : int;
  mutable free_list : (int * int) list;  (* (addr, size), sorted by addr *)
  live : (int, int) Hashtbl.t;           (* addr -> size *)
}

exception Out_of_memory of int

let create ~base ~size =
  { base; limit = base + size; free_list = [ (base, size) ]; live = Hashtbl.create 64 }

let align_up v a = (v + a - 1) / a * a

let malloc t ?(align = Mem.granule) size =
  if size < 0 then invalid_arg "Alloc.malloc: negative size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Alloc.malloc: alignment must be a positive power of two";
  let size = max size 1 in
  let size = align_up size align in
  let rec fit acc = function
    | [] -> raise (Out_of_memory size)
    | (addr, blk_size) :: rest ->
        let start = align_up addr align in
        let waste = start - addr in
        if blk_size >= waste + size then begin
          (* Split: [addr,start) stays free, allocate [start,start+size),
             tail stays free. *)
          let tail_addr = start + size in
          let tail_size = blk_size - waste - size in
          let replacement =
            (if waste > 0 then [ (addr, waste) ] else [])
            @ if tail_size > 0 then [ (tail_addr, tail_size) ] else []
          in
          t.free_list <- List.rev_append acc (replacement @ rest);
          Hashtbl.replace t.live start size;
          start
        end
        else fit ((addr, blk_size) :: acc) rest
  in
  fit [] t.free_list

(* The free list is kept sorted by address with no two blocks adjacent, so
   a freed block goes in at its place in one pass, merging with the block
   that ends where it starts and the one that starts where it ends. *)
let rec insert_free addr size = function
  | (a, sa) :: rest when a + sa = addr -> (
      match rest with
      | (b, sb) :: rest' when addr + size = b -> (a, sa + size + sb) :: rest'
      | _ -> (a, sa + size) :: rest)
  | ((a, _) as blk) :: rest when a < addr -> blk :: insert_free addr size rest
  | (b, sb) :: rest when addr + size = b -> (addr, size + sb) :: rest
  | l -> (addr, size) :: l

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg (Printf.sprintf "Alloc.free: 0x%x is not a live allocation" addr)
  | Some size ->
      Hashtbl.remove t.live addr;
      t.free_list <- insert_free addr size t.free_list

let size_of t addr =
  match Hashtbl.find_opt t.live addr with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Alloc.size_of: 0x%x is not live" addr)

let live_blocks t =
  Hashtbl.fold (fun a s acc -> (a, s) :: acc) t.live []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let bytes_free t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free_list
