type event = {
  cycle : int;
  rank : int;
  seq : int;
  fn : unit -> unit;
  mutable next : event;  (* intra-bucket FIFO chain, [nil]-terminated *)
}

(* Physical sentinel: chain terminator and "no event" result.  Its fields are
   never consulted except [next == nil] / [ev == nil] identity checks. *)
let rec nil = { cycle = max_int; rank = 0; seq = max_int; fn = ignore; next = nil }

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
  mutable heap : event array;  (* binary min-heap on (cycle, rank, seq) *)
  mutable hsize : int;
  heads : event array;  (* wheel chain heads, bucket * wheel_ranks + rank *)
  tails : event array;
  counts : int array;  (* live events per bucket *)
  mutable wcount : int;  (* live events in the wheel *)
  mutable cursor : int;  (* no wheel event lives at a cycle below this *)
  mutable seq : int;
  mutable clock : int;
  on_advance : int -> unit;
  suspending : suspending;
  suspend_eff : unit Effect.t;  (* [Suspend suspending], performed as is *)
  mutable wake : (unit -> unit) -> unit;
      (* [wait_until]'s register hook: schedules at [suspending.wake_at] *)
}

(* The one suspension in flight on a scheduler.  [suspend] fills it and
   performs; the owning process's handler reads it back before anything
   else runs, so one slot per scheduler serves every process. *)
and suspending = {
  mutable register : (unit -> unit) -> unit;
  mutable wake_at : int;  (* [wait_until]'s target, read by [wake] *)
}

type _ Effect.t += Suspend : suspending -> unit Effect.t

let now t = t.clock

(* Rewind to the state [create] left: the wheel is cleared bucket by bucket
   from the cursor (every resident event lies at or after it) until its live
   count is spent, so an empty wheel costs nothing; the heap is cleared over
   its occupied prefix only.  The arrays keep their capacity. *)
let reset t =
  let c = ref t.cursor in
  while t.wcount > 0 do
    let b = !c land wheel_mask in
    let n = t.counts.(b) in
    if n > 0 then begin
      t.counts.(b) <- 0;
      t.wcount <- t.wcount - n;
      Array.fill t.heads (b lsl 2) wheel_ranks nil;
      Array.fill t.tails (b lsl 2) wheel_ranks nil
    end;
    incr c
  done;
  Array.fill t.heap 0 t.hsize nil;
  t.hsize <- 0;
  t.cursor <- 0;
  t.seq <- 0;
  t.clock <- 0

let rank_arbitrate = 1

let before a b =
  a.cycle < b.cycle
  || (a.cycle = b.cycle
      && (a.rank < b.rank || (a.rank = b.rank && a.seq < b.seq)))

(* Hole-based sifts: carry the moving element in a register and slide
   parents/children into the hole, one store per level instead of the three
   a swap costs.  Orderings are identical to the classic swap formulation. *)

let rec sift_up h i ev =
  if i = 0 then h.(0) <- ev
  else begin
    let parent = (i - 1) / 2 in
    if before ev h.(parent) then begin
      h.(i) <- h.(parent);
      sift_up h parent ev
    end
    else h.(i) <- ev
  end

let rec sift_down h size i ev =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest =
    if l < size && before h.(l) ev then
      if r < size && before h.(r) h.(l) then r else l
    else if r < size && before h.(r) ev then r
    else i
  in
  if smallest = i then h.(i) <- ev
  else begin
    h.(i) <- h.(smallest);
    sift_down h size smallest ev
  end

let heap_push t ev =
  if t.hsize = Array.length t.heap then begin
    let bigger = Array.make (2 * t.hsize) nil in
    Array.blit t.heap 0 bigger 0 t.hsize;
    t.heap <- bigger
  end;
  t.hsize <- t.hsize + 1;
  sift_up t.heap (t.hsize - 1) ev

let heap_pop t =
  let top = t.heap.(0) in
  t.hsize <- t.hsize - 1;
  let last = t.heap.(t.hsize) in
  t.heap.(t.hsize) <- nil;
  if t.hsize > 0 then sift_down t.heap t.hsize 0 last;
  top

(* Inlined into both entry points, so neither calls the other. *)
let[@inline] push t ~cycle ~rank fn =
  let cycle = Int.max cycle t.clock in
  let ev = { cycle; rank; seq = t.seq; fn; next = nil } in
  t.seq <- t.seq + 1;
  if rank < wheel_ranks && cycle - t.clock < wheel_size then begin
    let i = ((cycle land wheel_mask) lsl 2) lor rank in
    let tl = t.tails.(i) in
    if tl == nil then t.heads.(i) <- ev else tl.next <- ev;
    t.tails.(i) <- ev;
    t.counts.(cycle land wheel_mask) <- t.counts.(cycle land wheel_mask) + 1;
    t.wcount <- t.wcount + 1;
    (* A heap pop can run callbacks at a clock below the scan cursor; an
       insert behind the cursor must pull it back or the scan would skip
       the bucket. *)
    if cycle < t.cursor then t.cursor <- cycle
  end
  else heap_push t ev

let at t ~cycle fn = push t ~cycle ~rank:0 fn
let at_rank t ~cycle ~rank fn = push t ~cycle ~rank fn

let create ?(on_advance = ignore) () =
  let suspending = { register = ignore; wake_at = 0 } in
  let t =
    {
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
      suspending;
      suspend_eff = Suspend suspending;
      wake = ignore;
    }
  in
  t.wake <- (fun resume -> at t ~cycle:suspending.wake_at resume);
  t

(* First event of the occupied bucket whose first chain index is [base], in
   (rank, seq) order: the chains are rank-split and appended in seq order.
   This loop and [scan] are top-level functions, so a pop allocates no
   closure. *)
let rec wheel_peek t base r =
  if r = wheel_ranks then nil
  else
    let h = t.heads.(base lor r) in
    if h != nil then h else wheel_peek t base (r + 1)

let wheel_take t ev =
  let i = ((ev.cycle land wheel_mask) lsl 2) lor ev.rank in
  let n = ev.next in
  t.heads.(i) <- n;
  if n == nil then t.tails.(i) <- nil;
  t.counts.(ev.cycle land wheel_mask) <- t.counts.(ev.cycle land wheel_mask) - 1;
  t.wcount <- t.wcount - 1

(* Advance the cursor to the next occupied bucket and peek its first event. *)
let rec scan t c =
  if t.counts.(c land wheel_mask) > 0 then begin
    t.cursor <- c;
    wheel_peek t ((c land wheel_mask) lsl 2) 0
  end
  else scan t (c + 1)

(* Globally next event, or [nil]: the earlier of the wheel's next occupied
   bucket and the heap top under (cycle, rank, seq). *)
let pop t =
  let wev =
    if t.wcount = 0 then nil
    else begin
      if t.cursor < t.clock then t.cursor <- t.clock;
      scan t t.cursor
    end
  in
  if t.hsize = 0 then begin
    if wev != nil then wheel_take t wev;
    wev
  end
  else if wev == nil then heap_pop t
  else begin
    let hev = t.heap.(0) in
    if before wev hev then begin
      wheel_take t wev;
      wev
    end
    else heap_pop t
  end

let run_steps t n =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < n do
    let ev = pop t in
    if ev == nil then continue := false
    else begin
      if ev.cycle > t.clock then begin
        t.clock <- ev.cycle;
        t.on_advance t.clock
      end;
      ev.fn ();
      incr steps
    end
  done;
  !steps

let run t = ignore (run_steps t max_int)

let pending t = t.wcount + t.hsize

(* ---- processes ----

   A suspension allocates nothing of its own.  The effect value is the
   scheduler's preallocated [suspend_eff]; the register hook travels in the
   scheduler's [suspending] slot; each process owns one handler result and
   one resume thunk, built at [spawn], and parks its continuation in a
   mutable slot between suspensions.  What remains per suspension is the
   runtime's continuation block and the [Some] holding it. *)

let spawn t ~at:cycle body =
  let parked = ref None in
  let resume () =
    match !parked with
    | Some k ->
        parked := None;
        Effect.Deep.continue k ()
    | None -> invalid_arg "Sched: resume called while the process runs"
  in
  let handle =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        parked := Some k;
        t.suspending.register resume)
  in
  at t ~cycle (fun () ->
      Effect.Deep.match_with body ()
        {
          retc = Fun.id;
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, unit) Effect.Deep.continuation -> unit) option ->
              match eff with
              | Suspend s when s == t.suspending -> handle
              | _ -> None);
        })

let suspend t register =
  t.suspending.register <- register;
  Effect.perform t.suspend_eff

let wait_until t ~cycle =
  if cycle > t.clock then begin
    t.suspending.wake_at <- cycle;
    suspend t t.wake
  end

let wait t n = if n > 0 then wait_until t ~cycle:(t.clock + n)
