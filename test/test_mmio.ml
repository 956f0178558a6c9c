(* The CapChecker's register window: decode, staging semantics, status and
   exception drain, and — crucially — the impossibility of staging a valid
   capability through raw (tag-less) writes. *)

open Capchecker

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let cap base len =
  match Cheri.Cap.set_bounds Cheri.Cap.root ~base ~length:len with
  | Ok c -> c
  | Error e -> Alcotest.failf "cap: %s" (Cheri.Cap.error_to_string e)

let make () =
  let checker = Checker.create ~entries:8 Checker.Fine in
  (checker, Mmio.create checker)

let test_key_roundtrip () =
  let key = Mmio.key_of ~task:7 ~obj:3 in
  let task, obj = Mmio.split_key key in
  checki "task" 7 task;
  checki "obj" 3 obj

let test_install_sequence () =
  let checker, m = make () in
  (match Mmio.install m ~task:1 ~obj:0 (cap 0x1000 64) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checki "entry live" 1 (Table.live_count (Checker.table checker));
  checkb "lookup works" true (Table.lookup (Checker.table checker) ~task:1 ~obj:0 <> None)

let test_manual_register_sequence () =
  let checker, m = make () in
  Mmio.stage_cap m (cap 0x2000 128);
  Mmio.write m ~offset:Mmio.reg_key (Mmio.key_of ~task:2 ~obj:5);
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_install;
  checkb "not rejected" false (Mmio.last_rejected m);
  match Table.lookup (Checker.table checker) ~task:2 ~obj:5 with
  | Some e -> checki "bounds made it through" 0x2000 e.Table.cap.Cheri.Cap.base
  | None -> Alcotest.fail "entry missing"

let test_raw_writes_cannot_forge () =
  let checker, m = make () in
  (* An attacker-controlled agent writes the exact bit pattern of a valid
     capability through the window, including the tag register. *)
  let words = Cheri.Compress.encode (cap 0x0 4096) in
  Mmio.write m ~offset:Mmio.reg_cap_lo words.Cheri.Compress.lo;
  Mmio.write m ~offset:Mmio.reg_cap_hi words.Cheri.Compress.hi;
  Mmio.write m ~offset:Mmio.reg_cap_tag 1L;
  Mmio.write m ~offset:Mmio.reg_key (Mmio.key_of ~task:0 ~obj:0);
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_install;
  checkb "install rejected" true (Mmio.last_rejected m);
  checki "nothing installed" 0 (Table.live_count (Checker.table checker))

let test_stage_raw_is_untagged () =
  let checker, m = make () in
  let words = Cheri.Compress.encode (cap 0x0 4096) in
  Mmio.stage_raw m ~lo:words.Cheri.Compress.lo ~hi:words.Cheri.Compress.hi;
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_install;
  checkb "rejected" true (Mmio.last_rejected m);
  checki "still empty" 0 (Table.live_count (Checker.table checker))

let test_raw_overwrite_after_stage_clears_tag () =
  let checker, m = make () in
  Mmio.stage_cap m (cap 0x1000 64);
  (* Touching either data register after a tagged stage invalidates it —
     half-forged hybrids are impossible. *)
  Mmio.write m ~offset:Mmio.reg_cap_hi 0xFFL;
  Mmio.write m ~offset:Mmio.reg_key (Mmio.key_of ~task:0 ~obj:0);
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_install;
  checkb "rejected" true (Mmio.last_rejected m);
  checki "empty" 0 (Table.live_count (Checker.table checker))

(* The key register carries a 32-bit object id, wider than the table's key
   range: an object id the table cannot hold is a refused install (status
   bit set), not a fault escaping the register write. *)
let test_install_key_out_of_table_range () =
  let checker, m = make () in
  Mmio.stage_cap m (cap 0x1000 64);
  Mmio.write m ~offset:Mmio.reg_key (Mmio.key_of ~task:1 ~obj:(1 lsl 20));
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_install;
  checkb "rejected" true (Mmio.last_rejected m);
  check64 "status reports rejection" 2L
    (Int64.logand (Mmio.read m ~offset:Mmio.reg_status) 2L);
  checki "nothing installed" 0 (Table.live_count (Checker.table checker));
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_evict;
  checkb "evict of that key rejected" true (Mmio.last_rejected m)

let test_evict_commands () =
  let checker, m = make () in
  (match Mmio.install m ~task:1 ~obj:0 (cap 0x1000 64) with Ok () -> () | Error e -> Alcotest.fail e);
  (match Mmio.install m ~task:1 ~obj:1 (cap 0x2000 64) with Ok () -> () | Error e -> Alcotest.fail e);
  Mmio.write m ~offset:Mmio.reg_key (Mmio.key_of ~task:1 ~obj:0);
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_evict;
  checki "one left" 1 (Table.live_count (Checker.table checker));
  Mmio.write m ~offset:Mmio.reg_key (Mmio.key_of ~task:1 ~obj:0);
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_evict_task;
  checki "all gone" 0 (Table.live_count (Checker.table checker))

let test_status_register () =
  let checker, m = make () in
  (match Mmio.install m ~task:1 ~obj:0 (cap 0x1000 64) with Ok () -> () | Error e -> Alcotest.fail e);
  let status = Mmio.read m ~offset:Mmio.reg_status in
  check64 "no flag, one live entry" 0x1_0000_0000L status;
  (* Trip the checker. *)
  ignore
    (Checker.check checker
       { Guard.Iface.source = 1; port = Some 0; addr = 0; size = 8;
         kind = Guard.Iface.Read });
  let status = Mmio.read m ~offset:Mmio.reg_status in
  check64 "flag set" 1L (Int64.logand status 1L);
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_clear_flag;
  check64 "flag cleared" 0L (Int64.logand (Mmio.read m ~offset:Mmio.reg_status) 1L)

let test_exception_key_drain () =
  let checker, m = make () in
  (match Mmio.install m ~task:3 ~obj:2 (cap 0x1000 64) with Ok () -> () | Error e -> Alcotest.fail e);
  ignore
    (Checker.check checker
       { Guard.Iface.source = 3; port = Some 2; addr = 0; size = 8;
         kind = Guard.Iface.Read });
  let key = Mmio.read m ~offset:Mmio.reg_exc_key in
  let task, obj = Mmio.split_key key in
  checki "task traced" 3 task;
  checki "object traced" 2 obj;
  check64 "drained" (-1L) (Mmio.read m ~offset:Mmio.reg_exc_key)

(* EXC_KEY returns every setting of an exception bit once, also after an
   earlier drain and an eviction changed which entries have a bit set. *)
let test_exception_key_drain_after_evict () =
  let checker, m = make () in
  let trip task =
    ignore
      (Checker.check checker
         { Guard.Iface.source = task; port = Some 0; addr = 0; size = 8;
           kind = Guard.Iface.Read })
  in
  let drain () = Mmio.split_key (Mmio.read m ~offset:Mmio.reg_exc_key) in
  List.iter
    (fun (task, base) ->
      match Mmio.install m ~task ~obj:0 (cap base 64) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ (1, 0x1000); (2, 0x2000); (3, 0x3000) ];
  trip 1;
  checki "first drain: task 1" 1 (fst (drain ()));
  check64 "nothing more" (-1L) (Mmio.read m ~offset:Mmio.reg_exc_key);
  Mmio.write m ~offset:Mmio.reg_key (Mmio.key_of ~task:1 ~obj:0);
  Mmio.write m ~offset:Mmio.reg_command Mmio.cmd_evict;
  trip 2;
  trip 3;
  (* A repeated denial on a reported bit is the same setting. *)
  trip 2;
  let a = fst (drain ()) in
  let b = fst (drain ()) in
  checki "second drain: task 2" 2 a;
  checki "third drain: task 3" 3 b;
  check64 "drained" (-1L) (Mmio.read m ~offset:Mmio.reg_exc_key);
  (* Reinstalling a key clears its bit: the next denial is a new setting. *)
  (match Mmio.install m ~task:2 ~obj:0 (cap 0x2000 64) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  trip 2;
  checki "new setting after reinstall" 2 (fst (drain ()));
  check64 "drained again" (-1L) (Mmio.read m ~offset:Mmio.reg_exc_key)

let test_bad_offsets () =
  let _, m = make () in
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Capchecker.Mmio: bad register offset 0x4") (fun () ->
      Mmio.write m ~offset:4 0L);
  Alcotest.check_raises "out of window"
    (Invalid_argument "Capchecker.Mmio: bad register offset 0x1000") (fun () ->
      ignore (Mmio.read m ~offset:4096))

let test_unknown_registers_ignored () =
  let checker, m = make () in
  Mmio.write m ~offset:0x100 42L;
  check64 "reads as zero" 0L (Mmio.read m ~offset:0x100);
  checki "no effect" 0 (Table.live_count (Checker.table checker))

let suite =
  [
    ("key roundtrip", `Quick, test_key_roundtrip);
    ("install sequence", `Quick, test_install_sequence);
    ("manual register sequence", `Quick, test_manual_register_sequence);
    ("raw writes cannot forge", `Quick, test_raw_writes_cannot_forge);
    ("stage_raw untagged", `Quick, test_stage_raw_is_untagged);
    ("raw overwrite detags stage", `Quick, test_raw_overwrite_after_stage_clears_tag);
    ("install key out of table range", `Quick,
     test_install_key_out_of_table_range);
    ("evict commands", `Quick, test_evict_commands);
    ("status register", `Quick, test_status_register);
    ("exception key drain", `Quick, test_exception_key_drain);
    ("exception key drain after evict", `Quick,
     test_exception_key_drain_after_evict);
    ("bad offsets", `Quick, test_bad_offsets);
    ("unknown registers ignored", `Quick, test_unknown_registers_ignored);
  ]
