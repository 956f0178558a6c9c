type op = Write | Stream_read | Dep_read

let op_of kind ~dependent =
  match (kind, dependent) with
  | Guard.Iface.Write, _ -> Write
  | Guard.Iface.Read, false -> Stream_read
  | Guard.Iface.Read, true -> Dep_read

let code = function Write -> 0 | Stream_read -> 1 | Dep_read -> 2
let of_code = function 0 -> Write | 1 -> Stream_read | _ -> Dep_read

(* Four unboxed words per transaction: [gap; op code; beats; latency]. *)
type t = { mutable words : int array; mutable len : int }

let create () = { words = Array.make 256 0; len = 0 }

let add t ~gap ~op ~beats ~latency =
  let i = 4 * t.len in
  if i = Array.length t.words then begin
    let bigger = Array.make (2 * i) 0 in
    Array.blit t.words 0 bigger 0 i;
    t.words <- bigger
  end;
  let w = t.words in
  w.(i) <- gap;
  w.(i + 1) <- code op;
  w.(i + 2) <- beats;
  w.(i + 3) <- latency;
  t.len <- t.len + 1

let length t = t.len

let word t idx k =
  if idx < 0 || idx >= t.len then invalid_arg "Accel.Trace: index out of range";
  t.words.((4 * idx) + k)

let gap t idx = word t idx 0
let op t idx = of_code (word t idx 1)
let beats t idx = word t idx 2
let latency t idx = word t idx 3

let iter t f =
  let w = t.words in
  for idx = 0 to t.len - 1 do
    let i = 4 * idx in
    f ~gap:w.(i) ~op:(of_code w.(i + 1)) ~beats:w.(i + 2) ~latency:w.(i + 3)
  done

let total_beats t =
  let total = ref 0 in
  for idx = 0 to t.len - 1 do
    total := !total + t.words.((4 * idx) + 2)
  done;
  !total
