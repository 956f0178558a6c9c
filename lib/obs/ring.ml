(* The slot array grows on demand (doubling, up to [capacity]), so a ring
   that never fills — the common case for a denial log — costs a few words,
   not [capacity].  Until it first reaches [capacity] the ring never wraps,
   so growing is a plain prefix copy.  Slots hold elements directly: a grown
   array is filled with the element being pushed, and {!clear} drops the
   array, so no slot keeps a dead element alive past [clear]. *)
type 'a t = {
  capacity : int;
  mutable slots : 'a array;
  mutable next : int;     (* slot the next push writes *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Obs.Ring.create: capacity must be positive";
  { capacity; slots = [||]; next = 0; len = 0; dropped = 0 }

let capacity t = t.capacity
let length t = t.len
let dropped t = t.dropped
let pushed t = t.len + t.dropped

let initial_slots = 8

let grow t x =
  let size = Array.length t.slots in
  let grown = Array.make (min t.capacity (max initial_slots (2 * size))) x in
  Array.blit t.slots 0 grown 0 size;
  t.slots <- grown;
  t.next <- size

let push t x =
  if t.len = Array.length t.slots && t.len < t.capacity then grow t x;
  let size = Array.length t.slots in
  t.slots.(t.next) <- x;
  t.next <- (if t.next + 1 = size then 0 else t.next + 1);
  if t.len < size then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let iter f t =
  let size = Array.length t.slots in
  let start = if t.len < size then 0 else t.next in
  for i = 0 to t.len - 1 do
    let j = start + i in
    f t.slots.(if j >= size then j - size else j)
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

let clear t =
  t.slots <- [||];
  t.next <- 0;
  t.len <- 0;
  t.dropped <- 0
