(* Recorded access scripts: the config-independent skeleton of a kernel's
   execution.

   Interpreting a kernel is the expensive half of the accelerator model —
   per-element datapath ops, functional memory effects, value arithmetic.
   But everything the *timing* layers consume is a pure function of the
   access sequence the interpretation emits: (gap, buffer, offset, size,
   kind, dependence) per transaction, plus op counts.  That sequence depends
   only on the kernel, its parameters and the synthesized directives — never
   on the protection config, the layout bases, or the guard — so it can be
   recorded once and replayed through {!Engine}'s access pipeline per
   config, without interpreting again.

   Scripts stay resident for the whole process (one per bench), so a
   transaction is four unboxed words of one flat array, [gap; ops; off;
   code]:

     code bit 0      1 for a block copy
          bit 1      1 for a write (accesses)
          bit 2      1 for a dependent read (accesses)
          bits 3-18  the buffer (accesses) or the source buffer (copies)
          bits 19-   the size (accesses) or the byte count (copies)

   and a copy's [off] word holds its destination buffer. *)

type t = { s_words : int array; s_total_ops : int }

let total_ops s = s.s_total_ops

let buf_bits = 16
let buf_mask = (1 lsl buf_bits) - 1

let length s = Array.length s.s_words / 4

type entry = {
  mutable copy : bool;
  mutable gap : int;
  mutable ops : int;
  mutable kind : Guard.Iface.kind;
  mutable dependent : bool;
  mutable buf : int;
  mutable off : int;
  mutable size : int;
}

let entry () =
  { copy = false; gap = 0; ops = 0; kind = Guard.Iface.Read; dependent = false;
    buf = 0; off = 0; size = 0 }

let[@inline] load s i e =
  let w = s.s_words and j = 4 * i in
  let code = w.(j + 3) in
  e.copy <- code land 1 <> 0;
  e.gap <- w.(j);
  e.ops <- w.(j + 1);
  e.kind <- (if code land 2 = 0 then Guard.Iface.Read else Guard.Iface.Write);
  e.dependent <- code land 4 <> 0;
  e.buf <- (code lsr 3) land buf_mask;
  e.off <- w.(j + 2);
  e.size <- code lsr (3 + buf_bits)

let gap ~debt ~ipc ops =
  debt := !debt +. (float_of_int ops /. ipc);
  let gap = int_of_float !debt in
  debt := !debt -. float_of_int gap;
  gap

module Recorder = struct
  (* Fixed-size chunks, joined once by [finalize]: a doubling array would
     leave one to three times the script's length behind for the collector. *)
  type t = {
    mutable r_full : int array list;  (* filled chunks, newest first *)
    mutable r_words : int array;  (* the chunk being filled *)
    mutable r_len : int;  (* words used in it *)
    r_extents : int array;
  }

  let chunk_words = 1024

  exception Escaped

  let create ~extents =
    { r_full = []; r_words = Array.make chunk_words 0; r_len = 0; r_extents = extents }

  (* [off, off + size) must lie inside buffer [buf]; written so that no sum
     can wrap past [max_int]. *)
  let check r ~buf ~off ~size =
    if off < 0 || size < 0 || size > r.r_extents.(buf) - off then raise Escaped

  (* The gap word is filled in by [finalize]. *)
  let push r ~ops ~off ~code =
    if r.r_len = chunk_words then begin
      r.r_full <- r.r_words :: r.r_full;
      r.r_words <- Array.make chunk_words 0;
      r.r_len <- 0
    end;
    let w = r.r_words and i = r.r_len in
    w.(i + 1) <- ops;
    w.(i + 2) <- off;
    w.(i + 3) <- code;
    r.r_len <- i + 4

  let code ~copy ~write ~dependent ~buf ~size =
    if buf > buf_mask then invalid_arg "Accel.Script: too many buffers";
    Bool.to_int copy lor (Bool.to_int write lsl 1) lor (Bool.to_int dependent lsl 2)
    lor (buf lsl 3) lor (size lsl (3 + buf_bits))

  let access r ~kind ~buf ~off ~size ~dependent ~ops =
    check r ~buf ~off ~size;
    push r ~ops ~off
      ~code:
        (code ~copy:false ~write:(kind = Guard.Iface.Write) ~dependent ~buf ~size)

  let copy r ~bytes ~src ~dst ~ops =
    check r ~buf:src ~off:0 ~size:bytes;
    check r ~buf:dst ~off:0 ~size:bytes;
    push r ~ops ~off:dst
      ~code:(code ~copy:true ~write:false ~dependent:false ~buf:src ~size:bytes)

  let finalize r ~ipc ~total_ops =
    let words = Array.concat (List.rev (Array.sub r.r_words 0 r.r_len :: r.r_full)) in
    let debt = ref 0.0 and prev = ref 0 in
    for j = 0 to (Array.length words / 4) - 1 do
      let ops = words.((4 * j) + 1) in
      words.(4 * j) <- gap ~debt ~ipc (ops - !prev);
      prev := ops
    done;
    { s_words = words; s_total_ops = total_ops }
end
