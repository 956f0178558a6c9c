type t = {
  checker : Checker.t;
  mutable staged_lo : int64;
  mutable staged_hi : int64;
  mutable staged_tag : bool;
  mutable key : int64;
  mutable rejected : bool;
  mutable reported : int;  (* exceptions already drained via EXC_KEY *)
}

let create checker =
  { checker; staged_lo = 0L; staged_hi = 0L; staged_tag = false; key = 0L;
    rejected = false; reported = 0 }

let checker t = t.checker

let window_bytes = 4096

let reg_cap_lo = 0x00
let reg_cap_hi = 0x08
let reg_cap_tag = 0x10
let reg_key = 0x18
let reg_command = 0x20
let reg_status = 0x28
let reg_exc_key = 0x30

let cmd_install = 1L
let cmd_evict = 2L
let cmd_evict_task = 3L
let cmd_clear_flag = 4L

let key_of ~task ~obj =
  Int64.logor
    (Int64.shift_left (Int64.of_int (task land 0xffff_ffff)) 32)
    (Int64.of_int (obj land 0xffff_ffff))

let split_key key =
  ( Int64.to_int (Int64.shift_right_logical key 32) land 0xffff_ffff,
    Int64.to_int (Int64.logand key 0xffff_ffffL) )

let staged_capability t =
  Cheri.Compress.decode ~tag:t.staged_tag
    { Cheri.Compress.hi = t.staged_hi; lo = t.staged_lo }

let execute t command =
  let task, obj = split_key t.key in
  if Int64.equal command cmd_install then
    (* The key register is 32+32 bits wide, wider than the table's key
       range: a key the table cannot hold is refused like a full table. *)
    if not (Table.packable ~task ~obj) then t.rejected <- true
    else
      match Checker.install t.checker ~task ~obj (staged_capability t) with
      | Table.Installed _ -> t.rejected <- false
      | Table.Table_full | Table.Rejected_untagged -> t.rejected <- true
  else if Int64.equal command cmd_evict then
    t.rejected <- not (Checker.evict t.checker ~task ~obj)
  else if Int64.equal command cmd_evict_task then begin
    ignore (Checker.evict_task t.checker ~task);
    t.rejected <- false
  end
  else if Int64.equal command cmd_clear_flag then
    Checker.clear_exception_flag t.checker
  (* Unknown commands decode to nothing. *)

let check_offset offset =
  if offset < 0 || offset >= window_bytes || offset mod 8 <> 0 then
    invalid_arg (Printf.sprintf "Capchecker.Mmio: bad register offset 0x%x" offset)

let write t ~offset value =
  check_offset offset;
  let obs = Checker.obs t.checker in
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs (Obs.Event.Mmio_write { offset });
  if offset = reg_cap_lo then begin
    (* Raw word writes can never set the tag (see stage_raw). *)
    t.staged_lo <- value;
    t.staged_tag <- false
  end
  else if offset = reg_cap_hi then begin
    t.staged_hi <- value;
    t.staged_tag <- false
  end
  else if offset = reg_cap_tag then
    (* The tag register is honored only for transfers that arrived with the
       interconnect's tag wire asserted; plain writes request tag=0.  A
       nonzero write is therefore ignored unless staged via stage_cap. *)
    (if Int64.equal (Int64.logand value 1L) 0L then t.staged_tag <- false)
  else if offset = reg_key then t.key <- value
  else if offset = reg_command then execute t value

let read t ~offset =
  check_offset offset;
  let obs = Checker.obs t.checker in
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs (Obs.Event.Mmio_read { offset });
  if offset = reg_status then begin
    let flag = if Checker.exception_flag t.checker then 1L else 0L in
    let rej = if t.rejected then 2L else 0L in
    let live =
      Int64.shift_left (Int64.of_int (Table.live_count (Checker.table t.checker))) 32
    in
    Int64.logor live (Int64.logor flag rej)
  end
  else if offset = reg_exc_key then begin
    (* Drain per-entry exception keys oldest-first. *)
    let keys = Table.entries_with_exceptions (Checker.table t.checker) in
    match List.nth_opt keys t.reported with
    | Some (task, obj) ->
        t.reported <- t.reported + 1;
        key_of ~task ~obj
    | None -> -1L
  end
  else 0L

let stage_cap t cap =
  let words = Cheri.Compress.encode cap in
  t.staged_lo <- words.Cheri.Compress.lo;
  t.staged_hi <- words.Cheri.Compress.hi;
  t.staged_tag <- cap.Cheri.Cap.tag

let stage_raw t ~lo ~hi =
  t.staged_lo <- lo;
  t.staged_hi <- hi;
  t.staged_tag <- false

let last_rejected t = t.rejected

let install t ~task ~obj cap =
  stage_cap t cap;
  write t ~offset:reg_key (key_of ~task ~obj);
  write t ~offset:reg_command cmd_install;
  if t.rejected then
    Error "CapChecker MMIO: install rejected (table full or untagged)"
  else Ok ()
