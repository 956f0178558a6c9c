type op = Write | Stream_read | Dep_read

let op_of kind ~dependent =
  match (kind, dependent) with
  | Guard.Iface.Write, _ -> Write
  | Guard.Iface.Read, false -> Stream_read
  | Guard.Iface.Read, true -> Dep_read

let code = function Write -> 0 | Stream_read -> 1 | Dep_read -> 2
let of_code = function 0 -> Write | 1 -> Stream_read | _ -> Dep_read

(* Four unboxed words per transaction, [gap; op code; beats; latency], in
   chunks of [chunk] transactions.  Past the first chunk, growing appends a
   chunk and copies nothing, so a long trace allocates its own length
   rounded up to one chunk, and a run that derives traces leaves no
   half-sized arrays behind for the collector (a doubling array allocates
   two to four times its length).  The first chunk starts small and
   doubles up to full size, so a short trace stays short.  A chunk holds
   1024 transactions: a run derives a trace per task and drops it, so the
   rounding up to a chunk and the first chunk's doubling are garbage that
   paces the collector; at 4096 they were 1.2 M of the 7.2 M trace words
   the [paper] benchmark allocates. *)
let chunk_bits = 10
let chunk = 1 lsl chunk_bits
let chunk_mask = chunk - 1

type t = { mutable chunks : int array array; mutable len : int }

let create () = { chunks = [| Array.make 256 0 |]; len = 0 }

let add t ~gap ~op ~beats ~latency =
  let c = t.len lsr chunk_bits and i = 4 * (t.len land chunk_mask) in
  if c = Array.length t.chunks then begin
    let more = Array.make (2 * c) [||] in
    Array.blit t.chunks 0 more 0 c;
    t.chunks <- more
  end;
  if i = Array.length t.chunks.(c) then
    t.chunks.(c) <-
      (if c = 0 then begin
         let w = Array.make (2 * i) 0 in
         Array.blit t.chunks.(0) 0 w 0 i;
         w
       end
       else Array.make (4 * chunk) 0);
  let w = t.chunks.(c) in
  w.(i) <- gap;
  w.(i + 1) <- code op;
  w.(i + 2) <- beats;
  w.(i + 3) <- latency;
  t.len <- t.len + 1

let length t = t.len

(* The per-transaction accessors inline into the replay loops; only the
   bounds check's [raise] stays out of line. *)
let[@inline never] out_of_range () = invalid_arg "Accel.Trace: index out of range"

let[@inline] word t idx k =
  if idx < 0 || idx >= t.len then out_of_range ();
  Array.unsafe_get
    (Array.unsafe_get t.chunks (idx lsr chunk_bits))
    ((4 * (idx land chunk_mask)) + k)

let[@inline] gap t idx = word t idx 0
let[@inline] op t idx = of_code (word t idx 1)
let[@inline] beats t idx = word t idx 2
let[@inline] latency t idx = word t idx 3

let total_beats t =
  let total = ref 0 in
  for idx = 0 to t.len - 1 do
    total := !total + word t idx 2
  done;
  !total
