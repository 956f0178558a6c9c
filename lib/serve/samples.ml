type t = { mutable data : int array; mutable len : int }

let create () = { data = [||]; len = 0 }

let push t x =
  if t.len = Array.length t.data then begin
    let data = Array.make (max 8 (2 * t.len)) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let of_list xs =
  let t = create () in
  List.iter (push t) xs;
  t

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let median3 x y z = max (min x y) (min (max x y) z)

(* Hoare's selection: afterwards [a.(k)] holds the value it would hold were
   [a.(lo..hi)] sorted, with nothing larger before it and nothing smaller
   after it.  Both scans stop on values equal to the pivot, so runs of equal
   latencies split evenly, and every round swaps at least once, so the
   range shrinks. *)
let rec select a lo hi k =
  if lo < hi then begin
    let pivot = median3 a.(lo) a.((lo + hi) / 2) a.(hi) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    if k <= !j then select a lo !j k else if k >= !i then select a !i hi k
  end

(* Two selections instead of a sort: after the first, everything past the
   p50 rank is at least its value, so the p99 rank is selected there. *)
let summary t =
  let n = t.len and a = t.data in
  if n = 0 then (0, 0, 0)
  else begin
    let k50 = Ccsim.Stats.nearest_rank_index 0.5 n
    and k99 = Ccsim.Stats.nearest_rank_index 0.99 n in
    select a 0 (n - 1) k50;
    if k99 > k50 then select a (k50 + 1) (n - 1) k99;
    let m = ref a.(0) in
    for i = 1 to n - 1 do
      if a.(i) > !m then m := a.(i)
    done;
    (a.(k50), a.(k99), !m)
  end
