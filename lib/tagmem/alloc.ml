(* The free list and the live map are flat int arrays, so a warm malloc or
   free allocates nothing: the driver runs one pair per DMA buffer per task,
   which a long serve run repeats tens of thousands of times.  The arrays
   only grow, by doubling, when the heap fragments past their size. *)
type t = {
  (* Free blocks sorted by address, no two adjacent: [n_free] entries of
     [free_addr]/[free_size]. *)
  mutable free_addr : int array;
  mutable free_size : int array;
  mutable n_free : int;
  (* Live allocations, addr -> size, by open addressing with linear probing;
     [no_key] marks an empty slot.  At most half full. *)
  mutable live_addr : int array;
  mutable live_size : int array;
  mutable n_live : int;
}

exception Out_of_memory of int

let no_key = -1

let create ~base ~size =
  { free_addr = Array.make 8 base; free_size = Array.make 8 size; n_free = 1;
    live_addr = Array.make 64 no_key; live_size = Array.make 64 0; n_live = 0 }

let align_up v a = (v + a - 1) / a * a

(* ---- live map ---- *)

let home mask addr =
  let h = addr * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* Slot holding [addr], or the empty slot where it would go. *)
let probe keys addr =
  let mask = Array.length keys - 1 in
  let i = ref (home mask addr) in
  while keys.(!i) <> addr && keys.(!i) <> no_key do
    i := (!i + 1) land mask
  done;
  !i

let rec add_live t addr size =
  if 2 * (t.n_live + 1) > Array.length t.live_addr then begin
    let keys = t.live_addr and sizes = t.live_size in
    t.live_addr <- Array.make (2 * Array.length keys) no_key;
    t.live_size <- Array.make (2 * Array.length keys) 0;
    t.n_live <- 0;
    Array.iteri (fun i k -> if k <> no_key then add_live t k sizes.(i)) keys
  end;
  let i = probe t.live_addr addr in
  t.live_addr.(i) <- addr;
  t.live_size.(i) <- size;
  t.n_live <- t.n_live + 1

(* Backward-shift deletion: move later members of the probe run into the
   hole whenever the hole lies on their way from their home slot, so no
   tombstones accumulate. *)
let remove_live t i =
  let keys = t.live_addr and sizes = t.live_size in
  let mask = Array.length keys - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while keys.(!j) <> no_key do
    let h = home mask keys.(!j) in
    (* [j]'s home lies cyclically outside (hole, j]: it may fill the hole. *)
    if (!j - h) land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- keys.(!j);
      sizes.(!hole) <- sizes.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- no_key;
  t.n_live <- t.n_live - 1

(* ---- free list ---- *)

(* Open a gap of one block at index [i], growing the arrays when full. *)
let open_gap t i =
  if t.n_free = Array.length t.free_addr then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.free_addr <- grow t.free_addr;
    t.free_size <- grow t.free_size
  end;
  Array.blit t.free_addr i t.free_addr (i + 1) (t.n_free - i);
  Array.blit t.free_size i t.free_size (i + 1) (t.n_free - i);
  t.n_free <- t.n_free + 1

let close_gap t i =
  Array.blit t.free_addr (i + 1) t.free_addr i (t.n_free - i - 1);
  Array.blit t.free_size (i + 1) t.free_size i (t.n_free - i - 1);
  t.n_free <- t.n_free - 1

let set_free t i addr size =
  t.free_addr.(i) <- addr;
  t.free_size.(i) <- size

(* First fit: the lowest-addressed free block that holds [size] bytes from
   its first [align]-aligned address. *)
let malloc t ?(align = Mem.granule) size =
  if size < 0 then invalid_arg "Alloc.malloc: negative size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Alloc.malloc: alignment must be a positive power of two";
  let size = align_up (max size 1) align in
  let i = ref 0 in
  while
    !i < t.n_free
    && t.free_size.(!i) < align_up t.free_addr.(!i) align - t.free_addr.(!i) + size
  do
    incr i
  done;
  let i = !i in
  if i = t.n_free then raise (Out_of_memory size);
  let addr = t.free_addr.(i) and blk_size = t.free_size.(i) in
  let start = align_up addr align in
  let waste = start - addr in
  let tail_size = blk_size - waste - size in
  (* Split: [addr,start) stays free, [start,start+size) is allocated, the
     tail stays free. *)
  (match (waste > 0, tail_size > 0) with
  | true, true ->
      set_free t i addr waste;
      open_gap t (i + 1);
      set_free t (i + 1) (start + size) tail_size
  | true, false -> set_free t i addr waste
  | false, true -> set_free t i (start + size) tail_size
  | false, false -> close_gap t i);
  add_live t start size;
  start

(* A freed block goes in at its place by address, merging with the block
   that ends where it starts and the one that starts where it ends. *)
let insert_free t addr size =
  let lo = ref 0 and hi = ref t.n_free in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.free_addr.(mid) < addr then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  let joins_prev = i > 0 && t.free_addr.(i - 1) + t.free_size.(i - 1) = addr in
  let joins_next = i < t.n_free && addr + size = t.free_addr.(i) in
  match (joins_prev, joins_next) with
  | true, true ->
      t.free_size.(i - 1) <- t.free_size.(i - 1) + size + t.free_size.(i);
      close_gap t i
  | true, false -> t.free_size.(i - 1) <- t.free_size.(i - 1) + size
  | false, true -> set_free t i addr (size + t.free_size.(i))
  | false, false ->
      open_gap t i;
      set_free t i addr size

(* Slot of the live allocation at [addr], or -1. *)
let find_live t addr =
  if addr = no_key then -1
  else
    let i = probe t.live_addr addr in
    if t.live_addr.(i) = no_key then -1 else i

let free t addr =
  let i = find_live t addr in
  if i < 0 then
    invalid_arg (Printf.sprintf "Alloc.free: 0x%x is not a live allocation" addr);
  let size = t.live_size.(i) in
  remove_live t i;
  insert_free t addr size

let size_of t addr =
  let i = find_live t addr in
  if i < 0 then invalid_arg (Printf.sprintf "Alloc.size_of: 0x%x is not live" addr);
  t.live_size.(i)

let live_blocks t =
  let acc = ref [] in
  Array.iteri
    (fun i a -> if a <> no_key then acc := (a, t.live_size.(i)) :: !acc)
    t.live_addr;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let bytes_free t =
  let s = ref 0 in
  for i = 0 to t.n_free - 1 do
    s := !s + t.free_size.(i)
  done;
  !s
