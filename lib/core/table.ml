type exn_state = No_exception | Unreported | Reported

type entry = {
  mutable cap : Cheri.Cap.t;
  mutable task : int;
  mutable obj : int;
  mutable live : bool;
  mutable exn : exn_state;
}

(* Pressure counters are maintained inline so that long-horizon workloads
   (the serve mode's tenant churn) can read install/evict/conflict totals and
   the live-occupancy gauge without replaying a trace.  [live] also turns
   [live_count] into an O(1) read — it used to fold over every slot, which a
   per-admission watermark check would have made O(entries * requests). *)
type stats = {
  st_installs : int;
  st_evictions : int;
  st_conflicts : int;
  st_rejected : int;
  st_live : int;
  st_peak : int;
}

(* Min-heap of free slot indices.  Install must keep picking the
   lowest-numbered free slot (the slot index is visible in [Installed] results
   and [Table_insert] events), so the free list is a heap rather than a stack:
   pop-min reproduces the original linear scan's choice exactly. *)
module Free_heap = struct
  type h = { data : int array; mutable len : int }

  let create cap = { data = Array.make (max cap 1) 0; len = 0 }

  let swap h i j =
    let t = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- t

  let push h x =
    h.data.(h.len) <- x;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.data.((!i - 1) / 2) > h.data.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  (* The least free slot, or -1. *)
  let pop h =
    if h.len = 0 then -1
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        let i = ref 0 in
        let sifting = ref true in
        while !sifting do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < h.len && h.data.(l) < h.data.(!s) then s := l;
          if r < h.len && h.data.(r) < h.data.(!s) then s := r;
          if !s <> !i then begin
            swap h !i !s;
            i := !s
          end
          else sifting := false
        done
      end;
      top
    end
end

(* The live (task, obj) -> slot index is keyed by one packed int, hashed by
   a multiplicative mix: a lookup allocates no tuple and runs no polymorphic
   hash or compare.  Keys pack injectively for every task in
   [0, 2^key_task_bits) and obj in [0, 2^key_obj_bits) — the driver's ids,
   and the Coarse encoding's 8-bit object field, sit far inside. *)
let key_obj_bits = 20
let key_task_bits = Sys.int_size - 1 - key_obj_bits

module Index = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
end)

let packable ~task ~obj =
  task >= 0 && task lsr key_task_bits = 0 && obj >= 0 && obj lsr key_obj_bits = 0

let key ~task ~obj = (task lsl key_obj_bits) lor obj

type t = {
  slots : entry array;
  index : int Index.t; (* live (task, obj), packed -> slot *)
  free : Free_heap.h;
  mutable installs : int;
  mutable evictions : int;
  mutable conflicts : int;
  mutable rejected : int;
  mutable live : int;
  mutable peak : int;
  mutable exceptions : int;  (* live entries with the exception bit set *)
  mutable max_obj : int;  (* highest object id ever installed *)
}

let create ~entries =
  assert (entries > 0);
  let fresh () =
    { cap = Cheri.Cap.null; task = -1; obj = -1; live = false; exn = No_exception }
  in
  let free = Free_heap.create entries in
  for idx = 0 to entries - 1 do
    Free_heap.push free idx
  done;
  { slots = Array.init entries (fun _ -> fresh ());
    index = Index.create (2 * entries);
    free;
    installs = 0; conflicts = 0; evictions = 0; rejected = 0; live = 0;
    peak = 0; exceptions = 0; max_obj = -1 }

let capacity t = Array.length t.slots

let live_count t = t.live

let stats t =
  { st_installs = t.installs; st_evictions = t.evictions;
    st_conflicts = t.conflicts; st_rejected = t.rejected; st_live = t.live;
    st_peak = t.peak }

type install_result = Installed of int | Table_full | Rejected_untagged

(* Every exception bit changes here, so the count of set ones stays exact.
   Setting an already set bit is the same setting: it stays reported if it
   was. *)
let raise_exn t e =
  if e.exn = No_exception then begin
    e.exn <- Unreported;
    t.exceptions <- t.exceptions + 1
  end

let clear_exn t e =
  if e.exn <> No_exception then begin
    e.exn <- No_exception;
    t.exceptions <- t.exceptions - 1
  end

(* Slot of a live key, or -1.  An unpackable key can never have been
   installed. *)
let find_slot t ~task ~obj =
  if not (packable ~task ~obj) then -1
  else match Index.find t.index (key ~task ~obj) with
    | idx -> idx
    | exception Not_found -> -1

(* [find_slot] for installs and [evict_task]'s probes, where a miss is the
   common case: a membership test costs less than a raised [Not_found].
   Lookups keep [find_slot], since a granted check hits. *)
let live_slot t ~task ~obj =
  if not (packable ~task ~obj) then -1
  else
    let k = key ~task ~obj in
    if Index.mem t.index k then Index.find t.index k else -1

let install t ~task ~obj cap =
  if not (packable ~task ~obj) then
    invalid_arg
      (Printf.sprintf "Table.install: key (task %d, obj %d) out of range" task
         obj);
  if not cap.Cheri.Cap.tag then begin
    t.rejected <- t.rejected + 1;
    Rejected_untagged
  end
  else
    let live_idx = live_slot t ~task ~obj in
    let idx = if live_idx >= 0 then live_idx else Free_heap.pop t.free in
    if idx < 0 then begin
      t.conflicts <- t.conflicts + 1;
      Table_full
    end
    else begin
      let e = t.slots.(idx) in
      e.cap <- cap;
      e.task <- task;
      e.obj <- obj;
      e.live <- true;
      clear_exn t e;
      t.installs <- t.installs + 1;
      if live_idx < 0 then begin
        Index.replace t.index (key ~task ~obj) idx;
        t.live <- t.live + 1;
        if t.live > t.peak then t.peak <- t.live;
        if obj > t.max_obj then t.max_obj <- obj
      end;
      Installed idx
    end

let lookup t ~task ~obj =
  match find_slot t ~task ~obj with
  | -1 -> None
  | idx -> Some t.slots.(idx)

let mark_exception t ~task ~obj =
  match lookup t ~task ~obj with
  | Some e -> raise_exn t e
  | None -> ()

let release_slot t idx =
  let e = t.slots.(idx) in
  e.live <- false;
  e.cap <- Cheri.Cap.null;
  (* A dead slot must not keep reporting an exception: the key may belong to a
     departed tenant, and the slot will be recycled for an unrelated one. *)
  clear_exn t e;
  Free_heap.push t.free idx

let evict t ~task ~obj =
  match find_slot t ~task ~obj with
  | -1 -> false
  | idx ->
      release_slot t idx;
      Index.remove t.index (key ~task ~obj);
      t.evictions <- t.evictions + 1;
      t.live <- t.live - 1;
      true

(* This runs on every driver teardown.  Object ids are small and dense in
   practice (a task's buffers number from 0), so when every id ever
   installed is well below the capacity, probing the index for each is
   cheaper than scanning every slot; either way the same entries go. *)
let evict_task t ~task =
  let n = ref 0 in
  if 4 * (t.max_obj + 1) <= Array.length t.slots then
    for obj = 0 to t.max_obj do
      let idx = live_slot t ~task ~obj in
      if idx >= 0 then begin
        Index.remove t.index (key ~task ~obj);
        release_slot t idx;
        incr n
      end
    done
  else begin
    let slots = t.slots in
    for idx = 0 to Array.length slots - 1 do
      let e = slots.(idx) in
      if e.live && e.task = task then begin
        Index.remove t.index (key ~task ~obj:e.obj);
        release_slot t idx;
        incr n
      end
    done
  end;
  t.evictions <- t.evictions + !n;
  t.live <- t.live - !n;
  !n

let exception_count t = t.exceptions

let entries_with_exceptions t =
  Array.fold_left
    (fun acc (e : entry) ->
      if e.live && e.exn <> No_exception then (e.task, e.obj) :: acc else acc)
    [] t.slots
  |> List.rev

let report_exception t =
  if t.exceptions = 0 then None
  else
    let slots = t.slots in
    let rec from idx =
      if idx = Array.length slots then None
      else
        let e = slots.(idx) in
        if e.live && e.exn = Unreported then begin
          e.exn <- Reported;
          Some (e.task, e.obj)
        end
        else from (idx + 1)
    in
    from 0

let iter_live t f = Array.iter (fun (e : entry) -> if e.live then f e) t.slots
