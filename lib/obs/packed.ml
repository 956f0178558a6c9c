(* Row layout: [cycle; head; f0; f1; f2] in [ints], two string slots per
   row in [strs].  [head] packs the tag with [Bus_grant]'s read flag and
   source.  A grant keeps [at] whole and its other four fields as two pairs
   of 31/32-bit halves: the three gaps between its times, and [beats].  A
   grant whose values do not fit there is kept whole in [spilled], keyed by
   row, and its row holds [spill_tag].  Every other event has at most three
   int fields, so a row is five words.  Fields a constructor does not use
   keep whatever an older row left there; [decode_data] reads only the
   fields of the row's own tag. *)

let width = 5
let tags = 18
let spill_tag = tags

let head ~extra ~tag ~flag = (extra lsl 6) lor (tag lsl 1) lor flag
let head_tag h = (h lsr 1) land 31

(* [extra] takes the head's top 57 bits; a pair word holds a signed 31-bit
   [hi] above a signed 32-bit [lo]. *)
let fits_extra v = v asr 56 = 0 || v asr 56 = -1
let fits_hi v = v >= -0x4000_0000 && v < 0x4000_0000
let fits_lo v = v >= -0x8000_0000 && v < 0x8000_0000
let pair hi lo = (hi lsl 32) lor (lo land 0xFFFF_FFFF)
let hi w = w asr 32
let lo w = ((w land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000

let tag : Event.data -> int = function
  | Bus_grant _ -> 0
  | Bus_beat _ -> 1
  | Cache_hit _ -> 2
  | Cache_miss _ -> 3
  | Check_ok _ -> 4
  | Check_table_miss _ -> 5
  | Check_denial _ -> 6
  | Table_insert _ -> 7
  | Table_evict _ -> 8
  | Cap_import _ -> 9
  | Cap_revoke _ -> 10
  | Task_phase _ -> 11
  | Mmio_read _ -> 12
  | Mmio_write _ -> 13
  | Fault_injected _ -> 14
  | Task_retry _ -> 15
  | Task_fallback _ -> 16
  | Check_elided _ -> 17

(* ---- The store: a ring of rows, in chunks allocated on first write ---- *)

type t = {
  capacity : int;
  ints : int array array;      (* per chunk; [||] until first written *)
  strs : string array array;   (* per chunk; [||] until a string is written *)
  spilled : (int, Event.data) Hashtbl.t;  (* rows holding [spill_tag] *)
  mutable next : int;          (* row the next push writes *)
  mutable len : int;
  mutable dropped : int;
}

let chunk_bits = 10
let chunk_rows = 1 lsl chunk_bits

let create ~capacity =
  let chunks = (capacity + chunk_rows - 1) lsr chunk_bits in
  { capacity; ints = Array.make chunks [||]; strs = Array.make chunks [||];
    spilled = Hashtbl.create 16; next = 0; len = 0; dropped = 0 }

(* Rows in chunk [c]: the last chunk holds only the rows up to [capacity]. *)
let chunk_len t c = min chunk_rows (t.capacity - (c lsl chunk_bits))

let alloc_chunk t c = t.ints.(c) <- Array.make (chunk_len t c * width) 0

(* Chunk [c]'s string slots.  Only four event kinds carry strings, so the
   slots are allocated when the first of them lands in the chunk: a full
   sink of numeric events holds 5 words a row instead of 7. *)
let strings t c =
  if Array.length t.strs.(c) = 0 then t.strs.(c) <- Array.make (2 * chunk_len t c) "";
  t.strs.(c)

(* Top-level setters: local closures over [ints] would allocate per emit. *)
let set2 (ints : int array) b x y =
  ints.(b) <- x;
  ints.(b + 1) <- y

let set3 (ints : int array) b x y z =
  set2 ints b x y;
  ints.(b + 2) <- z

(* [row] is the ring row, [r] its index in chunk [c]. *)
let encode t c ints ~row r (data : Event.data) =
  let b = (r * width) + 2 and s = 2 * r in
  ints.(b - 1) <- head ~extra:0 ~tag:(tag data) ~flag:0;
  match data with
  | Bus_grant { source; beats; read; at; granted_at; data_done; completed } ->
      let d1 = granted_at - at and d2 = data_done - granted_at
      and d3 = completed - data_done in
      if fits_extra source && fits_hi d1 && fits_lo d2 && fits_hi d3 && fits_lo beats
      then begin
        ints.(b - 1) <- head ~extra:source ~tag:0 ~flag:(Bool.to_int read);
        set3 ints b at (pair d1 d2) (pair d3 beats)
      end
      else begin
        ints.(b - 1) <- head ~extra:0 ~tag:spill_tag ~flag:0;
        Hashtbl.replace t.spilled row data
      end
  | Bus_beat { source; beats } -> set2 ints b source beats
  | Cache_hit { core; addr } | Cache_miss { core; addr } -> set2 ints b core addr
  | Check_ok { task; obj; latency } -> set3 ints b task obj latency
  | Check_table_miss { task; obj } | Cap_import { task; obj } -> set2 ints b task obj
  | Check_denial { task; obj; detail } ->
      set2 ints b task obj;
      (strings t c).(s) <- detail
  | Table_insert { task; obj; slot } -> set3 ints b task obj slot
  | Table_evict { task; obj; count } -> set3 ints b task obj count
  | Cap_revoke { caps; entries } -> set2 ints b caps entries
  | Task_phase { task; phase; dur } ->
      set2 ints b task dur;
      (strings t c).(s) <- phase
  | Mmio_read { offset } | Mmio_write { offset } -> ints.(b) <- offset
  | Fault_injected { layer; kind; task } ->
      ints.(b) <- task;
      let strs = strings t c in
      strs.(s) <- layer;
      strs.(s + 1) <- kind
  | Task_retry { task; attempt; backoff } -> set3 ints b task attempt backoff
  | Task_fallback { task; reason } ->
      ints.(b) <- task;
      (strings t c).(s) <- reason
  | Check_elided { task; count } -> set2 ints b task count

let decode_data spilled ints strs ~row r : Event.data =
  let b = (r * width) + 2 and s = 2 * r in
  let f k = ints.(b + k) and str k = strs.(s + k) in
  let h = ints.(b - 1) in
  match head_tag h with
  | 0 ->
      let at = f 0 in
      let granted_at = at + hi (f 1) in
      let data_done = granted_at + lo (f 1) in
      Bus_grant
        { source = h asr 6; beats = lo (f 2); read = h land 1 <> 0; at; granted_at;
          data_done; completed = data_done + hi (f 2) }
  | 1 -> Bus_beat { source = f 0; beats = f 1 }
  | 2 -> Cache_hit { core = f 0; addr = f 1 }
  | 3 -> Cache_miss { core = f 0; addr = f 1 }
  | 4 -> Check_ok { task = f 0; obj = f 1; latency = f 2 }
  | 5 -> Check_table_miss { task = f 0; obj = f 1 }
  | 6 -> Check_denial { task = f 0; obj = f 1; detail = str 0 }
  | 7 -> Table_insert { task = f 0; obj = f 1; slot = f 2 }
  | 8 -> Table_evict { task = f 0; obj = f 1; count = f 2 }
  | 9 -> Cap_import { task = f 0; obj = f 1 }
  | 10 -> Cap_revoke { caps = f 0; entries = f 1 }
  | 11 -> Task_phase { task = f 0; phase = str 0; dur = f 1 }
  | 12 -> Mmio_read { offset = f 0 }
  | 13 -> Mmio_write { offset = f 0 }
  | 14 -> Fault_injected { layer = str 0; kind = str 1; task = f 0 }
  | 15 -> Task_retry { task = f 0; attempt = f 1; backoff = f 2 }
  | 16 -> Task_fallback { task = f 0; reason = str 0 }
  | 17 -> Check_elided { task = f 0; count = f 1 }
  | 18 -> Hashtbl.find spilled row
  | t -> invalid_arg (Printf.sprintf "Obs.Packed: unknown tag %d" t)

let sample tag =
  let ints = Array.make width 0 in
  ints.(1) <- head ~extra:0 ~tag ~flag:0;
  decode_data (Hashtbl.create 1) ints [| ""; "" |] ~row:0 0

let capacity t = t.capacity
let length t = t.len
let dropped t = t.dropped

let push t ~cycle data =
  let row = t.next in
  let c = row lsr chunk_bits and r = row land (chunk_rows - 1) in
  if Array.length t.ints.(c) = 0 then alloc_chunk t c;
  let ints = t.ints.(c) in
  if head_tag ints.((r * width) + 1) = spill_tag then Hashtbl.remove t.spilled row;
  ints.(r * width) <- cycle;
  encode t c ints ~row r data;
  t.next <- (if row + 1 = t.capacity then 0 else row + 1);
  if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let iter f t =
  let start = (t.next - t.len + t.capacity) mod t.capacity in
  for i = 0 to t.len - 1 do
    let row = (start + i) mod t.capacity in
    let ints = t.ints.(row lsr chunk_bits) and strs = t.strs.(row lsr chunk_bits) in
    let r = row land (chunk_rows - 1) in
    f { Event.cycle = ints.(r * width); data = decode_data t.spilled ints strs ~row r }
  done

let clear t =
  Array.iter (fun s -> Array.fill s 0 (Array.length s) "") t.strs;
  Hashtbl.reset t.spilled;
  t.next <- 0;
  t.len <- 0;
  t.dropped <- 0
