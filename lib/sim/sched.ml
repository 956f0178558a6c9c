(* ---- event pool ----

   An event is an [int] slot in the scheduler's pool, not a record:
   parallel arrays hold its cycle, its packed (rank, seq) key, its closure
   and a link.  The link chains a wheel bucket's FIFO while the event is
   pending and threads the free list once it has run.  Scheduling an event
   therefore allocates nothing beyond the closure the caller built, and the
   wheel and heap store plain ints, which need no write barrier.  A slot is
   freed before its closure runs, so the pool never grows past the peak
   number of pending events; it doubles when full.

   The key packs rank above seq: comparing keys compares (rank, seq).  A
   rank takes [rank_bits] bits, so at most [max_rank]; seq takes the
   remaining 54 bits of a non-negative int, over five years of events at
   10^8 a second. *)

let nil = -1
let rank_bits = 8
let seq_bits = 62 - rank_bits
let max_rank = (1 lsl rank_bits) - 1

(* ---- calendar wheel ----

   The contended event core schedules almost exclusively a few cycles ahead
   (bus grants, flow wakes, arbitration re-arms), so the heap's O(log n)
   sift per event is pure overhead.  Near events (cycle within [wheel_size]
   of the clock, rank below [wheel_ranks]) go into a cycle-indexed ring of
   per-rank FIFO chains: O(1) push, O(1) pop.  Everything else — far-future
   timeline events (serve workload arrivals), exotic ranks — falls back to
   the binary heap, and the run loop merges the two by the same
   (cycle, rank, seq) key the heap alone used to order by, so the execution
   order is bit-for-bit identical to the heap-only scheduler.

   Wheel invariant: every resident event has cycle in [clock, clock + W), so
   a bucket can only hold one distinct cycle at a time and the scan cursor
   (monotone, lazily synced to the clock) finds the next occupied bucket in
   amortized O(cycles traversed). *)

let wheel_bits = 12
let wheel_size = 1 lsl wheel_bits
let wheel_mask = wheel_size - 1
let wheel_ranks = 4

type t = {
  mutable cyc : int array;  (* pool: event cycle *)
  mutable key : int array;  (* pool: (rank lsl seq_bits) lor seq *)
  mutable fns : (unit -> unit) array;  (* pool: closure, [ignore] when free *)
  mutable link : int array;  (* pool: bucket FIFO or free-list successor *)
  mutable free : int;  (* free-list head, [nil] when every slot is taken *)
  mutable heap : int array;  (* binary min-heap of slots on (cycle, key) *)
  mutable hsize : int;
  heads : int array;  (* wheel chain heads, bucket * wheel_ranks + rank *)
  tails : int array;
  counts : int array;  (* live events per bucket *)
  mutable wcount : int;  (* live events in the wheel *)
  mutable cursor : int;  (* no wheel event lives at a cycle below this *)
  mutable seq : int;
  mutable clock : int;
  on_advance : int -> unit;
}

let now t = t.clock
let rank_arbitrate = 1

(* Unchecked indexing for the per-event path.  Every index there is a slot
   taken from the free list (below the pool's length), a heap position below
   [hsize] or a masked wheel index. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Slots [from, upto) become the free list, in index order. *)
let thread_free t ~from ~upto =
  for s = from to upto - 2 do
    t.link.(s) <- s + 1
  done;
  t.link.(upto - 1) <- nil;
  t.free <- from

let grow t =
  let n = Array.length t.cyc in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.cyc <- extend t.cyc 0;
  t.key <- extend t.key 0;
  t.fns <- extend t.fns ignore;
  t.link <- extend t.link nil;
  thread_free t ~from:n ~upto:(2 * n)

(* Dropping the closure costs a write barrier per event, but a freed slot
   that kept it would have the next minor collection promote it, and all
   it reaches, through the pool's reference. *)
let[@inline] release t s =
  t.fns.!(s) <- ignore;
  t.link.!(s) <- t.free;
  t.free <- s

let rec release_chain t s =
  if s <> nil then begin
    let next = t.link.(s) in
    release t s;
    release_chain t next
  end

(* Rewind to the state [create] left: the wheel is cleared bucket by bucket
   from the cursor (every resident event lies at or after it) until its live
   count is spent, so an empty wheel costs nothing; the heap is cleared over
   its occupied prefix only.  Every pending slot goes back to the free list;
   the arrays keep their capacity. *)
let reset t =
  let c = ref t.cursor in
  while t.wcount > 0 do
    let b = !c land wheel_mask in
    let n = t.counts.(b) in
    if n > 0 then begin
      t.counts.(b) <- 0;
      t.wcount <- t.wcount - n;
      for i = b lsl 2 to (b lsl 2) + wheel_ranks - 1 do
        release_chain t t.heads.(i);
        t.heads.(i) <- nil;
        t.tails.(i) <- nil
      done
    end;
    incr c
  done;
  for i = 0 to t.hsize - 1 do
    release t t.heap.(i)
  done;
  t.hsize <- 0;
  t.cursor <- 0;
  t.seq <- 0;
  t.clock <- 0

let[@inline] before cyc key a b =
  let ca = cyc.!(a) and cb = cyc.!(b) in
  ca < cb || (ca = cb && key.!(a) < key.!(b))

(* Hole-based sifts: carry the moving slot [s] (cycle [c], key [k]) in
   registers and slide parents/children into the hole, one store per level
   instead of the three a swap costs.  Keys are unique, so the pop order is
   the one any binary heap on (cycle, rank, seq) gives. *)

let rec sift_up cyc key h i s c k =
  if i = 0 then h.!(0) <- s
  else begin
    let parent = (i - 1) / 2 in
    let p = h.!(parent) in
    let pc = cyc.!(p) in
    if c < pc || (c = pc && k < key.!(p)) then begin
      h.!(i) <- p;
      sift_up cyc key h parent s c k
    end
    else h.!(i) <- s
  end

let rec sift_down cyc key h size i s c k =
  let l = (2 * i) + 1 in
  if l >= size then h.!(i) <- s
  else begin
    let m =
      if l + 1 < size && before cyc key h.!(l + 1) h.!(l) then l + 1 else l
    in
    let ms = h.!(m) in
    let mc = cyc.!(ms) in
    if mc < c || (mc = c && key.!(ms) < k) then begin
      h.!(i) <- ms;
      sift_down cyc key h size m s c k
    end
    else h.!(i) <- s
  end

let heap_push t s =
  if t.hsize = Array.length t.heap then begin
    let bigger = Array.make (2 * t.hsize) nil in
    Array.blit t.heap 0 bigger 0 t.hsize;
    t.heap <- bigger
  end;
  t.hsize <- t.hsize + 1;
  sift_up t.cyc t.key t.heap (t.hsize - 1) s t.cyc.!(s) t.key.!(s)

let heap_pop t =
  let h = t.heap in
  let top = h.!(0) in
  t.hsize <- t.hsize - 1;
  if t.hsize > 0 then begin
    let last = h.!(t.hsize) in
    sift_down t.cyc t.key h t.hsize 0 last t.cyc.!(last) t.key.!(last)
  end;
  top

(* Inlined into both entry points, so neither calls the other. *)
let[@inline] push t ~cycle ~rank fn =
  let cycle = Int.max cycle t.clock in
  if t.free = nil then grow t;
  let s = t.free in
  t.free <- t.link.!(s);
  t.cyc.!(s) <- cycle;
  t.key.!(s) <- (rank lsl seq_bits) lor t.seq;
  t.fns.!(s) <- fn;
  t.link.!(s) <- nil;
  t.seq <- t.seq + 1;
  if rank < wheel_ranks && cycle - t.clock < wheel_size then begin
    let b = cycle land wheel_mask in
    let i = (b lsl 2) lor rank in
    let tl = t.tails.!(i) in
    if tl = nil then t.heads.!(i) <- s else t.link.!(tl) <- s;
    t.tails.!(i) <- s;
    t.counts.!(b) <- t.counts.!(b) + 1;
    t.wcount <- t.wcount + 1;
    (* A heap pop can run callbacks at a clock below the scan cursor; an
       insert behind the cursor must pull it back or the scan would skip
       the bucket. *)
    if cycle < t.cursor then t.cursor <- cycle
  end
  else heap_push t s

let at t ~cycle fn = push t ~cycle ~rank:0 fn

let at_rank t ~cycle ~rank fn =
  if rank < 0 || rank > max_rank then
    invalid_arg
      (Printf.sprintf "Sched.at_rank: rank %d outside 0..%d" rank max_rank);
  push t ~cycle ~rank fn

let initial_slots = 64

let create ?(on_advance = ignore) () =
  let t =
    {
      cyc = Array.make initial_slots 0;
      key = Array.make initial_slots 0;
      fns = Array.make initial_slots ignore;
      link = Array.make initial_slots nil;
      free = nil;
      heap = Array.make 64 nil;
      hsize = 0;
      heads = Array.make (wheel_size * wheel_ranks) nil;
      tails = Array.make (wheel_size * wheel_ranks) nil;
      counts = Array.make wheel_size 0;
      wcount = 0;
      cursor = 0;
      seq = 0;
      clock = 0;
      on_advance;
    }
  in
  thread_free t ~from:0 ~upto:initial_slots;
  t

(* First slot of the occupied bucket whose first chain index is [base], in
   (rank, seq) order: the chains are rank-split and appended in seq order.
   This loop and [scan] are top-level functions, so a pop allocates no
   closure. *)
let rec wheel_peek heads base r =
  if r = wheel_ranks then nil
  else
    let h = heads.!(base lor r) in
    if h <> nil then h else wheel_peek heads base (r + 1)

let wheel_take t s =
  let b = t.cyc.!(s) land wheel_mask in
  let i = (b lsl 2) lor (t.key.!(s) lsr seq_bits) in
  let n = t.link.!(s) in
  t.heads.!(i) <- n;
  if n = nil then t.tails.!(i) <- nil;
  t.counts.!(b) <- t.counts.!(b) - 1;
  t.wcount <- t.wcount - 1

(* Advance the cursor to the next occupied bucket and peek its first slot. *)
let rec scan t c =
  if t.counts.!(c land wheel_mask) > 0 then begin
    t.cursor <- c;
    wheel_peek t.heads ((c land wheel_mask) lsl 2) 0
  end
  else scan t (c + 1)

(* Globally next slot, or [nil]: the earlier of the wheel's next occupied
   bucket and the heap top under (cycle, rank, seq). *)
let pop t =
  let w =
    if t.wcount = 0 then nil
    else begin
      if t.cursor < t.clock then t.cursor <- t.clock;
      scan t t.cursor
    end
  in
  if t.hsize = 0 then begin
    if w <> nil then wheel_take t w;
    w
  end
  else if w = nil then heap_pop t
  else if before t.cyc t.key w t.heap.!(0) then begin
    wheel_take t w;
    w
  end
  else heap_pop t

let run_steps t n =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < n do
    let s = pop t in
    if s = nil then continue := false
    else begin
      let cycle = t.cyc.!(s) and fn = t.fns.!(s) in
      release t s;
      if cycle > t.clock then begin
        t.clock <- cycle;
        t.on_advance cycle
      end;
      fn ();
      incr steps
    end
  done;
  !steps

let run t = ignore (run_steps t max_int)

let pending t = t.wcount + t.hsize
