type t = {
  checker : Checker.t;
  regs : Bytes.t;
      (* CAP_LO, CAP_HI and KEY, little-endian at their own offsets: the
         staged capability is the 16-byte image at CAP_LO, and no register
         word is ever boxed *)
  mutable staged_tag : bool;
  mutable rejected : bool;
}

let window_bytes = 4096

let reg_cap_lo = 0x00
let reg_cap_hi = 0x08
let reg_cap_tag = 0x10
let reg_key = 0x18
let reg_command = 0x20
let reg_status = 0x28
let reg_exc_key = 0x30

let create checker =
  { checker; regs = Bytes.make (reg_key + 8) '\000'; staged_tag = false;
    rejected = false }

let checker t = t.checker

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

(* The KEY register's halves, as [split_key] reads them. *)
let key_task t = Int32.to_int (Bytes.get_int32_le t.regs (reg_key + 4)) land 0xffff_ffff
let key_obj t = Int32.to_int (Bytes.get_int32_le t.regs reg_key) land 0xffff_ffff

(* KEY := [key_of ~task ~obj], one 32-bit half at a time. *)
let set_key t ~task ~obj =
  Bytes.set_int32_le t.regs reg_key (Int32.of_int obj);
  Bytes.set_int32_le t.regs (reg_key + 4) (Int32.of_int task)

let execute t command =
  let task = key_task t and obj = key_obj t in
  if Int64.equal command cmd_install then
    (* The key register is 32+32 bits wide, wider than the table's key
       range: a key the table cannot hold is refused like a full table. *)
    if not (Table.packable ~task ~obj) then t.rejected <- true
    else
      let staged = Cheri.Compress.load ~tag:t.staged_tag t.regs reg_cap_lo in
      match Checker.install t.checker ~task ~obj staged with
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

let trace_write t offset =
  let obs = Checker.obs t.checker in
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs (Obs.Event.Mmio_write { offset })

let trace_read t offset =
  let obs = Checker.obs t.checker in
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs (Obs.Event.Mmio_read { offset })

let write t ~offset value =
  check_offset offset;
  trace_write t offset;
  if offset = reg_cap_lo || offset = reg_cap_hi then begin
    (* Raw word writes can never set the tag (see stage_raw). *)
    Bytes.set_int64_le t.regs offset value;
    t.staged_tag <- false
  end
  else if offset = reg_cap_tag then
    (* The tag register is honored only for transfers that arrived with the
       interconnect's tag wire asserted; plain writes request tag=0.  A
       nonzero write is therefore ignored unless staged via stage_cap. *)
    (if Int64.equal (Int64.logand value 1L) 0L then t.staged_tag <- false)
  else if offset = reg_key then Bytes.set_int64_le t.regs reg_key value
  else if offset = reg_command then execute t value

let read t ~offset =
  check_offset offset;
  trace_read t offset;
  if offset = reg_status then begin
    let flag = if Checker.exception_flag t.checker then 1L else 0L in
    let rej = if t.rejected then 2L else 0L in
    let live =
      Int64.shift_left (Int64.of_int (Table.live_count (Checker.table t.checker))) 32
    in
    Int64.logor live (Int64.logor flag rej)
  end
  else if offset = reg_exc_key then
    match Table.report_exception (Checker.table t.checker) with
    | Some (task, obj) -> key_of ~task ~obj
    | None -> -1L
  else 0L

let stage_cap t cap =
  Cheri.Compress.store cap t.regs reg_cap_lo;
  t.staged_tag <- cap.Cheri.Cap.tag

let stage_raw t ~lo ~hi =
  Bytes.set_int64_le t.regs reg_cap_lo lo;
  Bytes.set_int64_le t.regs reg_cap_hi hi;
  t.staged_tag <- false

let last_rejected t = t.rejected

(* The driver's sequences write the same registers, and trace the same
   accesses, as [write]/[read] would, with the key kept in ints. *)

let install t ~task ~obj cap =
  stage_cap t cap;
  trace_write t reg_key;
  set_key t ~task ~obj;
  trace_write t reg_command;
  execute t cmd_install;
  if t.rejected then
    Error "CapChecker MMIO: install rejected (table full or untagged)"
  else Ok ()

let evict_task t ~task =
  trace_write t reg_key;
  set_key t ~task ~obj:0;
  trace_write t reg_command;
  execute t cmd_evict_task

let exception_pending t =
  trace_read t reg_status;
  Checker.exception_flag t.checker
