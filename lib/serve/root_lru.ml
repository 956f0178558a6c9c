type t = {
  reg : Tenant.registry;
  heap : int array;  (* tenant ids; binary min-heap on [before] *)
  pos : int array;  (* index of each tenant in [heap], -1 when absent *)
  mutable size : int;
}

let create reg =
  let n = Array.length reg in
  { reg; heap = Array.make n 0; pos = Array.make n (-1); size = 0 }

(* (busy, last_active, id), compared lexicographically with idle first. *)
let before t a b =
  let ta = t.reg.(a) and tb = t.reg.(b) in
  let busy_a = ta.Tenant.inflight > 0 and busy_b = tb.Tenant.inflight > 0 in
  if busy_a <> busy_b then busy_b
  else if ta.Tenant.last_active <> tb.Tenant.last_active then
    ta.Tenant.last_active < tb.Tenant.last_active
  else a < b

let place t i id =
  t.heap.(i) <- id;
  t.pos.(id) <- i

(* Hole-based sifts: [id] rides in a register while parents or children
   slide into the hole. *)
let rec sift_up t i id =
  let parent = (i - 1) / 2 in
  if i > 0 && before t id t.heap.(parent) then begin
    place t i t.heap.(parent);
    sift_up t parent id
  end
  else place t i id

let rec sift_down t i id =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < t.size && before t t.heap.(l + 1) t.heap.(l) then l + 1 else l
  in
  if c < t.size && before t t.heap.(c) id then begin
    place t i t.heap.(c);
    sift_down t c id
  end
  else place t i id

let settle t i id =
  if i > 0 && before t id t.heap.((i - 1) / 2) then sift_up t i id
  else sift_down t i id

let add t id =
  if t.pos.(id) < 0 then begin
    t.size <- t.size + 1;
    sift_up t (t.size - 1) id
  end

let remove t id =
  let i = t.pos.(id) in
  if i >= 0 then begin
    t.pos.(id) <- -1;
    t.size <- t.size - 1;
    if i < t.size then settle t i t.heap.(t.size)
  end

let update t id =
  let i = t.pos.(id) in
  if i >= 0 then settle t i id

(* The least root is the top; when the top is excluded, the next least is
   the better of its children. *)
let victim t ~idle_only ~exclude =
  let h = t.heap in
  let id =
    if t.size = 0 then -1
    else if h.(0) <> exclude then h.(0)
    else if t.size = 1 then -1
    else if t.size > 2 && before t h.(2) h.(1) then h.(2)
    else h.(1)
  in
  if id < 0 || (idle_only && t.reg.(id).Tenant.inflight > 0) then None
  else Some t.reg.(id)
