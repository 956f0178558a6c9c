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

let iter s ~access ~copy =
  let w = s.s_words in
  let i = ref 0 in
  while !i < Array.length w do
    let gap = w.(!i) and ops = w.(!i + 1) and off = w.(!i + 2) and code = w.(!i + 3) in
    let buf = (code lsr 3) land buf_mask and size = code lsr (3 + buf_bits) in
    if code land 1 = 0 then
      access ~gap
        ~kind:(if code land 2 = 0 then Guard.Iface.Read else Guard.Iface.Write)
        ~buf ~off ~size ~dependent:(code land 4 <> 0) ~ops
    else copy ~gap ~bytes:size ~src:buf ~dst:off ~ops;
    i := !i + 4
  done

module Recorder = struct
  type t = {
    mutable r_words : int array;
    mutable r_len : int;  (* words used *)
    r_extents : int array;
  }

  exception Escaped

  let create ~extents = { r_words = Array.make 256 0; r_len = 0; r_extents = extents }

  (* [off, off + size) must lie inside buffer [buf]; written so that no sum
     can wrap past [max_int]. *)
  let check r ~buf ~off ~size =
    if off < 0 || size < 0 || size > r.r_extents.(buf) - off then raise Escaped

  let push r ~gap ~ops ~off ~code =
    if r.r_len = Array.length r.r_words then begin
      let bigger = Array.make (2 * r.r_len) 0 in
      Array.blit r.r_words 0 bigger 0 r.r_len;
      r.r_words <- bigger
    end;
    let w = r.r_words and i = r.r_len in
    w.(i) <- gap;
    w.(i + 1) <- ops;
    w.(i + 2) <- off;
    w.(i + 3) <- code;
    r.r_len <- i + 4

  let code ~copy ~write ~dependent ~buf ~size =
    if buf > buf_mask then invalid_arg "Accel.Script: too many buffers";
    Bool.to_int copy lor (Bool.to_int write lsl 1) lor (Bool.to_int dependent lsl 2)
    lor (buf lsl 3) lor (size lsl (3 + buf_bits))

  let access r ~gap ~kind ~buf ~off ~size ~dependent ~ops =
    check r ~buf ~off ~size;
    push r ~gap ~ops ~off
      ~code:
        (code ~copy:false ~write:(kind = Guard.Iface.Write) ~dependent ~buf ~size)

  let copy r ~gap ~bytes ~src ~dst ~ops =
    check r ~buf:src ~off:0 ~size:bytes;
    check r ~buf:dst ~off:0 ~size:bytes;
    push r ~gap ~ops ~off:dst
      ~code:(code ~copy:true ~write:false ~dependent:false ~buf:src ~size:bytes)

  let finalize r ~total_ops ~complete =
    if not complete then None
    else Some { s_words = Array.sub r.r_words 0 r.r_len; s_total_ops = total_ops }
end
