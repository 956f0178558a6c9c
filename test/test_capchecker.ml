(* The CapChecker: capability table management, Fine/Coarse adjudication,
   exception reporting, Coarse address composition, area model. *)

open Capchecker

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let cap ?(perms = Cheri.Perms.data_rw) base len =
  let c =
    match Cheri.Cap.set_bounds Cheri.Cap.root ~base ~length:len with
    | Ok c -> c
    | Error e -> Alcotest.failf "cap: %s" (Cheri.Cap.error_to_string e)
  in
  match Cheri.Cap.with_perms c perms with
  | Ok c -> c
  | Error e -> Alcotest.failf "perms: %s" (Cheri.Cap.error_to_string e)

let read_req ?port ~source ~addr ~size () =
  { Guard.Iface.source; port; addr; size; kind = Guard.Iface.Read }

let write_req ?port ~source ~addr ~size () =
  { Guard.Iface.source; port; addr; size; kind = Guard.Iface.Write }

let granted = function Guard.Iface.Granted _ -> true | Guard.Iface.Denied _ -> false

let install_exn c ~task ~obj capability =
  match Checker.install c ~task ~obj capability with
  | Table.Installed slot -> slot
  | Table.Table_full -> Alcotest.fail "table full"
  | Table.Rejected_untagged -> Alcotest.fail "rejected"

(* ---------------- table ---------------- *)

let test_table_install_lookup () =
  let t = Table.create ~entries:8 in
  (match Table.install t ~task:1 ~obj:0 (cap 0x1000 64) with
  | Table.Installed _ -> ()
  | Table.Table_full | Table.Rejected_untagged -> Alcotest.fail "install");
  checki "live" 1 (Table.live_count t);
  checkb "found" true (Table.lookup t ~task:1 ~obj:0 <> None);
  checkb "missing obj" true (Table.lookup t ~task:1 ~obj:1 = None);
  checkb "missing task" true (Table.lookup t ~task:2 ~obj:0 = None)

let test_table_replace_same_key () =
  let t = Table.create ~entries:8 in
  ignore (Table.install t ~task:1 ~obj:0 (cap 0x1000 64));
  ignore (Table.install t ~task:1 ~obj:0 (cap 0x2000 64));
  checki "still one entry" 1 (Table.live_count t);
  match Table.lookup t ~task:1 ~obj:0 with
  | Some e -> checki "latest wins" 0x2000 e.Table.cap.Cheri.Cap.base
  | None -> Alcotest.fail "lost entry"

let test_table_full () =
  let t = Table.create ~entries:2 in
  ignore (Table.install t ~task:0 ~obj:0 (cap 0 16));
  ignore (Table.install t ~task:0 ~obj:1 (cap 32 16));
  (match Table.install t ~task:0 ~obj:2 (cap 64 16) with
  | Table.Table_full -> ()
  | Table.Installed _ | Table.Rejected_untagged -> Alcotest.fail "expected full");
  (* Eviction frees a slot again (the driver's stall-until-evict protocol). *)
  checkb "evicted" true (Table.evict t ~task:0 ~obj:0);
  match Table.install t ~task:0 ~obj:2 (cap 64 16) with
  | Table.Installed _ -> ()
  | Table.Table_full | Table.Rejected_untagged -> Alcotest.fail "slot not reusable"

let test_table_rejects_untagged () =
  let t = Table.create ~entries:4 in
  match Table.install t ~task:0 ~obj:0 (Cheri.Cap.clear_tag (cap 0 16)) with
  | Table.Rejected_untagged -> ()
  | Table.Installed _ | Table.Table_full -> Alcotest.fail "accepted untagged"

let test_table_evict_task () =
  let t = Table.create ~entries:8 in
  ignore (Table.install t ~task:1 ~obj:0 (cap 0 16));
  ignore (Table.install t ~task:1 ~obj:1 (cap 32 16));
  ignore (Table.install t ~task:2 ~obj:0 (cap 64 16));
  checki "two evicted" 2 (Table.evict_task t ~task:1);
  checki "one left" 1 (Table.live_count t);
  checkb "other task intact" true (Table.lookup t ~task:2 ~obj:0 <> None)

let slot_exn t ~task ~obj capability =
  match Table.install t ~task ~obj capability with
  | Table.Installed slot -> slot
  | Table.Table_full -> Alcotest.fail "table full"
  | Table.Rejected_untagged -> Alcotest.fail "rejected"

(* Live entries flagged with an exception; the table's incremental count
   must agree with the list it summarizes. *)
let flagged c =
  let t = Checker.table c in
  let n = List.length (Table.entries_with_exceptions t) in
  checki "exception count = flagged entries" n (Table.exception_count t);
  n

let test_table_eviction_clears_exception_bit () =
  (* Regression: eviction used to leave [exn_bit] set on the dead slot, so a
     task that reused the slot inherited the previous occupant's exception
     state and [entries_with_exceptions] reported ghosts. *)
  let c = Checker.create ~entries:4 Checker.Fine in
  ignore (install_exn c ~task:1 ~obj:0 (cap 0x1000 64));
  ignore (Checker.check c (read_req ~port:0 ~source:1 ~addr:0x9999 ~size:8 ()));
  checki "bit set by the denial" 1
    (flagged c);
  checkb "evicted" true (Checker.evict c ~task:1 ~obj:0);
  checki "no ghost exception on a dead slot" 0
    (flagged c);
  (* The reused slot starts clean for its new occupant. *)
  ignore (install_exn c ~task:2 ~obj:0 (cap 0x2000 64));
  checki "reused slot starts clean" 0
    (flagged c);
  (* A replacing install of the same key starts clean too. *)
  ignore (Checker.check c (read_req ~port:0 ~source:2 ~addr:0x9999 ~size:8 ()));
  checki "bit set again" 1 (flagged c);
  ignore (install_exn c ~task:2 ~obj:0 (cap 0x2000 64));
  checki "replaced entry starts clean" 0 (flagged c)

let test_table_churn_no_ghost_exceptions () =
  (* Sustained install/deny/evict churn — including [evict_task] — must
     never accumulate exception bits on dead or reused slots. *)
  let c = Checker.create ~entries:4 Checker.Fine in
  for round = 0 to 24 do
    let task = round mod 3 in
    ignore (install_exn c ~task ~obj:0 (cap 0x1000 64));
    ignore (install_exn c ~task ~obj:1 (cap 0x2000 64));
    ignore (Checker.check c (read_req ~port:0 ~source:task ~addr:0x9999 ~size:8 ()));
    checki
      (Printf.sprintf "round %d: only the live denied entry flagged" round)
      1
      (flagged c);
    if round mod 2 = 0 then checki "both entries revoked" 2 (Checker.evict_task c ~task)
    else begin
      checkb "evicted obj 0" true (Checker.evict c ~task ~obj:0);
      checkb "evicted obj 1" true (Checker.evict c ~task ~obj:1)
    end;
    checki (Printf.sprintf "round %d: clean after revocation" round) 0
      (flagged c);
    checki "empty between rounds" 0 (Table.live_count (Checker.table c))
  done

let test_table_slot_reuse_lowest_first () =
  (* The free-slot heap must reproduce the original linear scan's choice:
     installs always land in the lowest-numbered free slot, and replacing a
     live key reuses its slot instead of consuming a free one. *)
  let t = Table.create ~entries:4 in
  checki "slot 0" 0 (slot_exn t ~task:0 ~obj:0 (cap 0 16));
  checki "slot 1" 1 (slot_exn t ~task:0 ~obj:1 (cap 32 16));
  checki "slot 2" 2 (slot_exn t ~task:0 ~obj:2 (cap 64 16));
  checki "slot 3" 3 (slot_exn t ~task:0 ~obj:3 (cap 96 16));
  checkb "evict slot 1" true (Table.evict t ~task:0 ~obj:1);
  checkb "evict slot 3" true (Table.evict t ~task:0 ~obj:3);
  checki "lowest free slot first" 1 (slot_exn t ~task:1 ~obj:0 (cap 128 16));
  checki "replace keeps the slot" 1 (slot_exn t ~task:1 ~obj:0 (cap 160 16));
  checki "next free slot after that" 3 (slot_exn t ~task:1 ~obj:1 (cap 192 16));
  checki "full again" 4 (Table.live_count t)

(* The hash-indexed table against a naive association model: lookups,
   live counts and full/evict outcomes must agree after any op sequence,
   and so must slots: the model keeps each live key's slot, so a fresh key
   must land in the lowest slot the model holds free (after any mix of
   [evict] and [evict_task]) and a replaced key must keep its slot. *)
(* [task_of]/[obj_of] spread the four drawn ids over the key space, so the
   packed index is exercised at its edges as well as near zero. *)
let table_matches_reference ~name ~task_of ~obj_of =
  QCheck.Test.make ~count:300 ~name
    QCheck.(small_list (triple (int_bound 3) (int_bound 3) (int_bound 3)))
    (fun ops ->
      let ops = List.map (fun (op, tk, ob) -> (op, task_of tk, obj_of ob)) ops in
      let entries = 4 in
      let t = Table.create ~entries in
      let model : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      let lowest_free () =
        let used = Hashtbl.fold (fun _ slot acc -> slot :: acc) model [] in
        let rec go s = if List.mem s used then go (s + 1) else s in
        go 0
      in
      List.for_all
        (fun (op, task, obj) ->
          match op with
          | 0 | 1 -> (
              let expected =
                match Hashtbl.find_opt model (task, obj) with
                | Some slot -> slot
                | None -> lowest_free ()
              in
              match Table.install t ~task ~obj (cap 0x1000 64) with
              | Table.Installed slot ->
                  Hashtbl.replace model (task, obj) slot;
                  slot = expected
              | Table.Table_full ->
                  Hashtbl.length model = entries
                  && not (Hashtbl.mem model (task, obj))
              | Table.Rejected_untagged -> false)
          | 2 ->
              let was = Hashtbl.mem model (task, obj) in
              Hashtbl.remove model (task, obj);
              Table.evict t ~task ~obj = was
          | _ ->
              let mine =
                Hashtbl.fold
                  (fun (tk, ob) _ acc -> if tk = task then (tk, ob) :: acc else acc)
                  model []
              in
              List.iter (Hashtbl.remove model) mine;
              Table.evict_task t ~task = List.length mine)
        ops
      && Table.live_count t = Hashtbl.length model
      && List.for_all
           (fun task ->
             List.for_all
               (fun obj ->
                 (Table.lookup t ~task ~obj <> None)
                 = Hashtbl.mem model (task, obj))
               (List.map obj_of [ 0; 1; 2; 3 ]))
           (List.map task_of [ 0; 1; 2; 3 ]))

let prop_table_matches_reference =
  table_matches_reference ~name:"indexed table matches a naive reference"
    ~task_of:Fun.id ~obj_of:Fun.id

let prop_table_wide_keys =
  let pick l i = List.nth l i in
  table_matches_reference ~name:"indexed table matches the reference on wide keys"
    ~task_of:(pick [ 0; 100_003; 1 lsl 30; (1 lsl 42) - 1 ])
    ~obj_of:(pick [ 0; 255; 1 lsl 12; (1 lsl 20) - 1 ])

(* Keys outside the packable range: never installable, always absent. *)
let test_table_key_range () =
  let t = Table.create ~entries:4 in
  List.iter
    (fun (task, obj) ->
      checkb "out-of-range install refused" true
        (match Table.install t ~task ~obj (cap 0x1000 64) with
        | _ -> false
        | exception Invalid_argument _ -> true);
      checkb "out-of-range lookup absent" true (Table.lookup t ~task ~obj = None);
      checkb "out-of-range evict absent" false (Table.evict t ~task ~obj))
    [ (-1, 0); (0, -1); (1 lsl 42, 0); (0, 1 lsl 20) ];
  ignore (Table.install t ~task:((1 lsl 42) - 1) ~obj:((1 lsl 20) - 1) (cap 0 16));
  checkb "widest key installs" true
    (Table.lookup t ~task:((1 lsl 42) - 1) ~obj:((1 lsl 20) - 1) <> None);
  checkb "neighbour key absent" true
    (Table.lookup t ~task:((1 lsl 42) - 2) ~obj:((1 lsl 20) - 1) = None);
  checki "one live entry" 1 (Table.live_count t)

(* ---------------- fine mode ---------------- *)

let test_fine_grants_and_denies () =
  let c = Checker.create ~entries:8 Checker.Fine in
  ignore (install_exn c ~task:1 ~obj:0 (cap 0x1000 64));
  checkb "in bounds" true
    (granted (Checker.check c (read_req ~port:0 ~source:1 ~addr:0x1020 ~size:8 ())));
  checkb "oob denied" false
    (granted (Checker.check c (read_req ~port:0 ~source:1 ~addr:0x1040 ~size:8 ())));
  checkb "wrong port denied" false
    (granted (Checker.check c (read_req ~port:1 ~source:1 ~addr:0x1020 ~size:8 ())));
  checkb "wrong task denied" false
    (granted (Checker.check c (read_req ~port:0 ~source:2 ~addr:0x1020 ~size:8 ())));
  checkb "no provenance denied" false
    (granted (Checker.check c (read_req ~source:1 ~addr:0x1020 ~size:8 ())))

let test_fine_readonly_cap () =
  let c = Checker.create ~entries:8 Checker.Fine in
  ignore (install_exn c ~task:1 ~obj:0 (cap ~perms:Cheri.Perms.data_ro 0x1000 64));
  checkb "read ok" true
    (granted (Checker.check c (read_req ~port:0 ~source:1 ~addr:0x1000 ~size:8 ())));
  checkb "write denied" false
    (granted (Checker.check c (write_req ~port:0 ~source:1 ~addr:0x1000 ~size:8 ())))

(* ---------------- coarse mode ---------------- *)

let test_coarse_compose_split () =
  let addr = Checker.compose_coarse ~obj:3 0x1234 in
  let obj, phys = Checker.split_coarse addr in
  checki "obj" 3 obj;
  checki "phys" 0x1234 phys

let test_coarse_roundtrip_boundaries () =
  (* Every object id — including 128..255, whose top bit the old bit-56
     packing silently dropped — round-trips at both extremes of the coarse
     physical window, and every composed bus word stays non-negative. *)
  let max_phys = Checker.coarse_window - 1 in
  for obj = 0 to 255 do
    List.iter
      (fun phys ->
        let addr = Checker.compose_coarse ~obj phys in
        checkb (Printf.sprintf "obj %d at 0x%x: non-negative" obj phys) true
          (addr >= 0);
        let obj', phys' = Checker.split_coarse addr in
        checki (Printf.sprintf "obj %d at 0x%x: obj" obj phys) obj obj';
        checki (Printf.sprintf "obj %d at 0x%x: phys" obj phys) phys phys')
      [ 0; max_phys ]
  done

let test_coarse_compose_rejects_out_of_range () =
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> true
    | (_ : int) -> false
  in
  (* The full 56-bit CHERI physical space does not fit a 63-bit host word
     alongside the 8-bit id: addresses beyond the coarse window must be
     rejected loudly, never truncated into a neighbouring object's window. *)
  checkb "phys = coarse_window rejected" true
    (rejects (fun () -> Checker.compose_coarse ~obj:0 Checker.coarse_window));
  checkb "phys = max_address rejected" true
    (rejects (fun () -> Checker.compose_coarse ~obj:0 Cheri.Cap.max_address));
  checkb "negative phys rejected" true
    (rejects (fun () -> Checker.compose_coarse ~obj:0 (-1)));
  checkb "obj = 256 rejected" true
    (rejects (fun () -> Checker.compose_coarse ~obj:256 0));
  checkb "negative obj rejected" true
    (rejects (fun () -> Checker.compose_coarse ~obj:(-1) 0));
  checkb "in-range still composes" true
    (Checker.compose_coarse ~obj:255 (Checker.coarse_window - 1) > 0)

let test_coarse_grants_and_strips () =
  let c = Checker.create ~entries:8 Checker.Coarse in
  ignore (install_exn c ~task:1 ~obj:2 (cap 0x8000 128));
  let addr = Checker.compose_coarse ~obj:2 0x8010 in
  (match Checker.check c (read_req ~source:1 ~addr ~size:8 ()) with
  | Guard.Iface.Granted { phys; _ } -> checki "id stripped" 0x8010 phys
  | Guard.Iface.Denied d -> Alcotest.failf "denied: %s" d.Guard.Iface.detail);
  (* Address overflow that stays under the same object id is caught. *)
  checkb "plain overflow denied" false
    (granted
       (Checker.check c
          (read_req ~source:1 ~addr:(Checker.compose_coarse ~obj:2 0x9000) ~size:8 ())))

let test_coarse_unknown_object () =
  let c = Checker.create ~entries:8 Checker.Coarse in
  ignore (install_exn c ~task:1 ~obj:2 (cap 0x8000 128));
  checkb "unknown id denied" false
    (granted
       (Checker.check c
          (read_req ~source:1 ~addr:(Checker.compose_coarse ~obj:7 0x8000) ~size:8 ())))

(* ---------------- exceptions ---------------- *)

let test_exception_flag_and_log () =
  let c = Checker.create ~entries:8 Checker.Fine in
  ignore (install_exn c ~task:1 ~obj:0 (cap 0x1000 64));
  ignore (install_exn c ~task:2 ~obj:0 (cap 0x2000 64));
  checkb "flag clear" false (Checker.exception_flag c);
  ignore (Checker.check c (read_req ~port:0 ~source:1 ~addr:0x9999 ~size:8 ()));
  checkb "flag raised" true (Checker.exception_flag c);
  checki "task 1 logged" 1 (List.length (Checker.exception_log_for c ~task:1));
  checki "task 2 clean" 0 (List.length (Checker.exception_log_for c ~task:2));
  checki "entry bit set" 1
    (flagged c);
  Checker.clear_exception_flag c;
  checkb "flag cleared" false (Checker.exception_flag c);
  checki "log survives the flag" 1 (List.length (Checker.exception_log c))

let test_granted_after_denial () =
  (* A denial must not wedge the checker: subsequent legal traffic flows. *)
  let c = Checker.create ~entries:8 Checker.Fine in
  ignore (install_exn c ~task:1 ~obj:0 (cap 0x1000 64));
  ignore (Checker.check c (read_req ~port:0 ~source:1 ~addr:0 ~size:8 ()));
  checkb "still grants" true
    (granted (Checker.check c (read_req ~port:0 ~source:1 ~addr:0x1000 ~size:8 ())))

(* Every denial reason, rendered.  The detail text is what software reads
   from the exception log and what counterexample notes print, and the
   checker now renders it only on demand, so each reason is pinned
   literally, in both modes, through every check path.  Task 1 holds a rw
   object 0 at 0x1000, a read-only object 1 at 0x2000 and a sealed object 2
   at 0x3000. *)
let denial_cases mode =
  let addr ~obj phys =
    match mode with
    | Checker.Fine -> phys
    | Checker.Coarse -> Checker.compose_coarse ~obj phys
  in
  let port obj = match mode with Checker.Fine -> Some obj | Checker.Coarse -> None in
  let req ?(write = false) ~source ~obj phys =
    { Guard.Iface.source; port = port obj; addr = addr ~obj phys; size = 8;
      kind = (if write then Guard.Iface.Write else Guard.Iface.Read) }
  in
  match mode with
  | Checker.Fine ->
      [ (req ~source:2 ~obj:0 0x1000, "no capability for task 2 object 0");
          ( req ~write:true ~source:1 ~obj:1 0x2000,
            "task 1 object 1: permission violation (needs W) (W src=1 port=1 \
             addr=0x2000 size=8)" );
          ( req ~source:1 ~obj:0 0x1040,
            "task 1 object 0: bounds violation at 0x1040+8 (R src=1 port=0 \
             addr=0x1040 size=8)" );
          ( req ~source:1 ~obj:2 0x3000,
            "task 1 object 2: seal violation (R src=1 port=2 addr=0x3000 \
             size=8)" );
          ( { (req ~source:1 ~obj:0 0x1000) with Guard.Iface.port = None },
            "fine-mode request without object provenance" ) ]
    | Checker.Coarse ->
        [ (req ~source:2 ~obj:0 0x1000, "no capability for task 2 object 0");
          ( req ~write:true ~source:1 ~obj:1 0x2000,
            "task 1 object 1: permission violation (needs W) (W src=1 port=- \
             addr=0x40000000002000 size=8)" );
          ( req ~source:1 ~obj:0 0x1040,
            "task 1 object 0: bounds violation at 0x1040+8 (R src=1 port=- \
             addr=0x1040 size=8)" );
          ( req ~source:1 ~obj:2 0x3000,
            "task 1 object 2: seal violation (R src=1 port=- \
             addr=0x80000000003000 size=8)" ) ]

let sealed_cap () =
  let sealer =
    Cheri.Cap.set_address
      (match Cheri.Cap.set_bounds Cheri.Cap.root ~base:0x40 ~length:16 with
      | Ok c -> c
      | Error _ -> Alcotest.fail "sealer")
      0x42
  in
  match Cheri.Cap.seal_with (cap 0x3000 64) ~sealer with
  | Ok c -> c
  | Error _ -> Alcotest.fail "seal"

let denial_paths mode =
  let fresh () =
    let c = Checker.create ~entries:8 mode in
    ignore (install_exn c ~task:1 ~obj:0 (cap 0x1000 64));
    ignore (install_exn c ~task:1 ~obj:1 (cap ~perms:Cheri.Perms.data_ro 0x2000 64));
    ignore (install_exn c ~task:1 ~obj:2 (sealed_cap ()));
    c
  in
  let via_shim placement () =
    let c = fresh () in
    let fleet = Shim.create ~central:c ~sources:4 placement in
    (c, Shim.check fleet)
  in
  [ ("check", fun () -> let c = fresh () in (c, Checker.check c));
    ("central shim", via_shim Shim.Central);
    ("distributed shim", via_shim Shim.Distributed) ]

let test_denial_details mode () =
  let cases = denial_cases mode in
  List.iter
    (fun (path, make) ->
      let c, check = make () in
      List.iter
        (fun (req, expected) ->
          match check req with
          | Guard.Iface.Granted _ -> Alcotest.failf "%s: granted %s" path expected
          | Guard.Iface.Denied d ->
              Alcotest.(check string) (path ^ ": code") "capchecker" d.Guard.Iface.code;
              Alcotest.(check string) (path ^ ": detail") expected d.Guard.Iface.detail)
        cases;
      Alcotest.(check (list string))
        (path ^ ": log renders the same details")
        (List.map snd cases)
        (List.map (fun d -> d.Guard.Iface.detail) (Checker.exception_log c)))
    (denial_paths mode)

(* A tag violation cannot come out of a check (the table refuses untagged
   capabilities), so its rendering is pinned on the value itself. *)
let test_denial_tag_rendering () =
  let req = read_req ~port:0 ~source:1 ~addr:0x1000 ~size:8 () in
  let d =
    Checker.render
      { Checker.task = 1; obj = 0; reason = Checker.Violation (Cheri.Cap.Tag_violation, req) }
  in
  Alcotest.(check string) "tag violation"
    "task 1 object 0: tag violation (R src=1 port=0 addr=0x1000 size=8)"
    d.Guard.Iface.detail;
  let c = Checker.create ~entries:4 Checker.Fine in
  checkb "untagged install refused" true
    (Checker.install c ~task:1 ~obj:0 (Cheri.Cap.clear_tag (cap 0x1000 64))
    = Table.Rejected_untagged)

(* Overflowing a small log keeps the newest denials, oldest first, counts
   the rest, and filters by task after the overflow. *)
let test_exception_log_overflow () =
  let c = Checker.create ~entries:8 ~log_capacity:3 Checker.Fine in
  let deny ~source addr =
    ignore (Checker.check c (read_req ~port:0 ~source ~addr ~size:8 ()))
  in
  deny ~source:1 0x10;
  deny ~source:2 0x20;
  deny ~source:1 0x30;
  deny ~source:2 0x40;
  deny ~source:1 0x50;
  checki "capacity" 3 (Checker.log_capacity c);
  checki "dropped" 2 (Checker.dropped_denials c);
  let details l = List.map (fun d -> d.Guard.Iface.detail) l in
  Alcotest.(check (list string)) "newest three, oldest first"
    [ "no capability for task 1 object 0";
      "no capability for task 2 object 0";
      "no capability for task 1 object 0" ]
    (details (Checker.exception_log c));
  checki "task 1 retained" 2 (List.length (Checker.exception_log_for c ~task:1));
  checki "task 2 retained" 1 (List.length (Checker.exception_log_for c ~task:2));
  checki "task 3 none" 0 (List.length (Checker.exception_log_for c ~task:3));
  (* the log holds structured denials: the last one is readable as a value *)
  let last = Checker.last_denial c in
  checki "last denial task" 1 last.Checker.task;
  checkb "last denial reason" true (last.Checker.reason = Checker.No_capability)

(* [verdict] is [check] without the rendering: same grants, same latency,
   [-1] exactly where [check] denies. *)
let test_verdict_matches_check () =
  let c = Checker.create ~entries:8 Checker.Fine in
  ignore (install_exn c ~task:1 ~obj:0 (cap 0x1000 64));
  List.iter
    (fun addr ->
      let req = read_req ~port:0 ~source:1 ~addr ~size:8 () in
      let v = Checker.verdict c req in
      match Checker.check c req with
      | Guard.Iface.Granted { phys; latency } ->
          checki "phys" phys v;
          checki "latency" latency (Checker.last_latency c)
      | Guard.Iface.Denied _ -> checki "denied" (-1) v)
    [ 0x1000; 0x1038; 0x1039; 0x2000 ]

(* ---------------- distributed shims ---------------- *)

let same_verdict a b =
  match (a, b) with
  | Guard.Iface.Granted { phys = p; _ }, Guard.Iface.Granted { phys = p'; _ } ->
      p = p'
  | Guard.Iface.Denied d, Guard.Iface.Denied d' -> d = d'
  | Guard.Iface.Granted _, Guard.Iface.Denied _
  | Guard.Iface.Denied _, Guard.Iface.Granted _ -> false

let verdict_to_string = function
  | Guard.Iface.Granted { phys; _ } -> Printf.sprintf "granted @0x%x" phys
  | Guard.Iface.Denied d -> "denied: " ^ d.Guard.Iface.detail

(* Drive an identical install/check/churn sequence through a plain central
   checker and through a distributed shim fleet over a second identically
   configured central: every verdict — grant phys and denial detail alike —
   must match; only latency may differ. *)
let shim_parity_sequence mode compose =
  let plain = Checker.create ~entries:8 mode in
  let central = Checker.create ~entries:8 mode in
  let fleet = Shim.create ~central ~sources:4 Shim.Distributed in
  let install ~task ~obj c =
    ignore (install_exn plain ~task ~obj c);
    ignore (install_exn central ~task ~obj c)
  in
  let evict ~task ~obj =
    ignore (Checker.evict plain ~task ~obj);
    ignore (Checker.evict central ~task ~obj)
  in
  let evict_task ~task =
    ignore (Checker.evict_task plain ~task);
    ignore (Checker.evict_task central ~task)
  in
  let compare req =
    let a = Checker.check plain req and b = Shim.check fleet req in
    checkb
      (Printf.sprintf "parity (%s vs %s)" (verdict_to_string a)
         (verdict_to_string b))
      true (same_verdict a b)
  in
  install ~task:1 ~obj:0 (cap 0x1000 64);
  install ~task:2 ~obj:1 (cap 0x2000 32);
  (* In-bounds, repeated (second one is a shim hit), out-of-bounds, wrong
     task, missing provenance/object. *)
  compare (read_req ~port:0 ~source:1 ~addr:(compose ~obj:0 0x1000) ~size:8 ());
  compare (read_req ~port:0 ~source:1 ~addr:(compose ~obj:0 0x1020) ~size:8 ());
  compare (read_req ~port:0 ~source:1 ~addr:(compose ~obj:0 0x1040) ~size:8 ());
  compare (write_req ~port:1 ~source:2 ~addr:(compose ~obj:1 0x2000) ~size:8 ());
  compare (read_req ~port:0 ~source:2 ~addr:(compose ~obj:0 0x1000) ~size:8 ());
  compare (read_req ~source:1 ~addr:0x1000 ~size:8 ());
  (* Churn: central evictions must invalidate the shims' cached copies — a
     stale shim grant here would be an isolation hole. *)
  evict ~task:1 ~obj:0;
  compare (read_req ~port:0 ~source:1 ~addr:(compose ~obj:0 0x1020) ~size:8 ());
  install ~task:1 ~obj:0 (cap 0x1000 16);
  compare (read_req ~port:0 ~source:1 ~addr:(compose ~obj:0 0x1020) ~size:8 ());
  compare (read_req ~port:0 ~source:1 ~addr:(compose ~obj:0 0x1008) ~size:8 ());
  evict_task ~task:2;
  compare (write_req ~port:1 ~source:2 ~addr:(compose ~obj:1 0x2000) ~size:8 ())

let fine_addr ~obj:_ phys = phys

let test_shim_parity_fine () = shim_parity_sequence Checker.Fine fine_addr

let test_shim_parity_coarse () =
  shim_parity_sequence Checker.Coarse (fun ~obj phys ->
      Checker.compose_coarse ~obj phys)

let test_shim_hit_miss_accounting () =
  let central = Checker.create ~entries:8 Checker.Fine in
  let fleet = Shim.create ~central ~sources:2 Shim.Distributed in
  ignore (install_exn central ~task:1 ~obj:0 (cap 0x1000 64));
  let req = read_req ~port:0 ~source:1 ~addr:0x1000 ~size:8 () in
  ignore (Shim.check fleet req);
  checki "first check misses" 1 (Shim.misses fleet);
  checki "no hit yet" 0 (Shim.hits fleet);
  ignore (Shim.check fleet req);
  checki "second check hits locally" 1 (Shim.hits fleet);
  checki "no extra miss" 1 (Shim.misses fleet);
  checki "one shim materialized" 1 (Shim.shim_count fleet);
  (* Central churn invalidates the copy: the next check misses again. *)
  ignore (Checker.evict central ~task:1 ~obj:0);
  ignore (install_exn central ~task:1 ~obj:0 (cap 0x1000 64));
  ignore (Shim.check fleet req);
  checki "invalidation forces a refill" 2 (Shim.misses fleet);
  let stats = Shim.shim_stats fleet in
  checkb "refills counted as shim installs" true
    (stats.Table.st_installs >= 2)

(* Shims are indexed by source id in an array sized to the declared fleet:
   a source past the fleet (here 5_000 on a two-source fleet) grows it, and
   hit/miss/table accounting must come out at the pinned totals. *)
let test_shim_accounting_past_fleet () =
  let central = Checker.create ~entries:8 Checker.Fine in
  let fleet = Shim.create ~central ~sources:2 Shim.Distributed in
  List.iter
    (fun task -> ignore (install_exn central ~task ~obj:0 (cap 0x1000 64)))
    [ 0; 5_000 ];
  let check source addr =
    granted (Shim.check fleet (read_req ~port:0 ~source ~addr ~size:8 ()))
  in
  let verdicts =
    [ check 0 0x1000; check 5_000 0x1000; check 0 0x1008; check 5_000 0x2000;
      check 0 0x1010 ]
  in
  ignore (Checker.evict central ~task:0 ~obj:0);
  let verdicts = verdicts @ [ check 0 0x1000; check 5_000 0x1008 ] in
  Alcotest.(check (list bool)) "verdicts"
    [ true; true; true; false; true; false; true ] verdicts;
  checki "hits" 4 (Shim.hits fleet);
  checki "misses" 3 (Shim.misses fleet);
  checki "shims" 2 (Shim.shim_count fleet);
  let stats = Shim.shim_stats fleet in
  checki "shim installs" 2 stats.Table.st_installs;
  checki "shim live" 1 stats.Table.st_live;
  checki "invalidations" 1 (Shim.invalidations fleet);
  Alcotest.check_raises "negative source id"
    (Invalid_argument "Capchecker.Shim: negative source id") (fun () ->
      ignore (check (-1) 0x1000))

(* The stale-copy race the verification layer pins directly: a revocation
   landing between a shim refill and the task's next access must drop the
   cached copy through the invalidate channel — a grant from the
   pre-revocation entry would be an isolation hole. *)
let test_shim_revocation_between_refill_and_access () =
  let central = Checker.create ~entries:8 Checker.Fine in
  let fleet = Shim.create ~central ~sources:2 Shim.Distributed in
  ignore (install_exn central ~task:1 ~obj:0 (cap 0x1000 64));
  let req = read_req ~port:0 ~source:1 ~addr:0x1000 ~size:8 () in
  (* miss + refill: the shim now holds a private copy *)
  checkb "pre-revocation access grants" true (granted (Shim.check fleet req));
  checki "refill took the miss path" 1 (Shim.misses fleet);
  let inv0 = Shim.invalidations fleet in
  (* the revocation epoch bump (task-wide eviction) lands before any further
     access touches the freshly refilled copy *)
  ignore (Checker.evict_task central ~task:1);
  checkb "invalidate channel dropped the cached copy" true
    (Shim.invalidations fleet > inv0);
  (* the next access must re-consult the central table and be denied *)
  checkb "post-revocation access denied" true
    (not (granted (Shim.check fleet req)));
  checki "denial re-took the miss path" 2 (Shim.misses fleet);
  checki "stale entry never adjudicated locally" 0 (Shim.hits fleet);
  (* a fresh install restores both the grant and the local hit path *)
  ignore (install_exn central ~task:1 ~obj:0 (cap 0x1000 64));
  checkb "reinstall restores the grant" true (granted (Shim.check fleet req));
  ignore (Shim.check fleet req);
  checkb "reinstall restores the hit path" true (Shim.hits fleet > 0)

let test_shim_area_and_guard () =
  let central = Checker.create ~entries:256 Checker.Fine in
  let dist = Shim.create ~central ~sources:8 Shim.Distributed in
  let cent = Shim.create ~central ~sources:8 Shim.Central in
  checki "central placement adds no area"
    (Checker.as_guard central).Guard.Iface.info.Guard.Iface.area_luts
    (Shim.area_luts cent);
  checkb "shim tables cost area" true (Shim.area_luts dist > Shim.area_luts cent);
  let g = Shim.guard dist in
  checkb "guard name marks the shims" true
    (String.length g.Guard.Iface.info.Guard.Iface.name >= 6);
  ignore (install_exn central ~task:0 ~obj:0 (cap 0 16));
  checki "entries view stays central" 1 (g.Guard.Iface.entries_in_use ())

(* ---------------- costs and area ---------------- *)

let test_mmio_costs_positive () =
  let p = Bus.Params.default in
  checkb "install" true (Checker.install_cycles p > 0);
  checkb "evict" true (Checker.evict_cycles p > 0);
  checkb "poll" true (Checker.poll_cycles p > 0);
  checkb "install is the expensive one" true
    (Checker.install_cycles p > Checker.evict_cycles p)

let test_area_calibration () =
  let full = Area.luts ~entries:Area.prototype_entries in
  checkb "256 entries ~ 30k LUTs" true (full > 28_000 && full < 32_000);
  let tiny = Area.luts_lightweight ~entries:4 in
  checkb "CFU variant < 100 LUTs" true (tiny < 100)

let test_guard_view () =
  let c = Checker.create Checker.Fine in
  let g = Checker.as_guard c in
  checkb "object granularity" true
    (g.Guard.Iface.info.granularity = Guard.Iface.G_object);
  let coarse = Checker.as_guard (Checker.create Checker.Coarse) in
  checkb "coarse is task granularity" true
    (coarse.Guard.Iface.info.granularity = Guard.Iface.G_task);
  ignore (install_exn c ~task:0 ~obj:0 (cap 0 16));
  checki "entries view" 1 (g.Guard.Iface.entries_in_use ())

let prop_check_agrees_with_cap =
  QCheck.Test.make ~count:300 ~name:"grant iff the capability allows"
    QCheck.(triple (int_bound 100_000) (int_range 1 1_000) (int_bound 120_000))
    (fun (base, len, addr) ->
      let c = Checker.create ~entries:4 Checker.Fine in
      let capability = cap base len in
      ignore (install_exn c ~task:0 ~obj:0 capability);
      let req = read_req ~port:0 ~source:0 ~addr ~size:8 () in
      granted (Checker.check c req)
      = (Cheri.Cap.access_ok capability ~addr ~size:8 Cheri.Cap.Read = Ok ()))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_check_agrees_with_cap; prop_table_matches_reference;
      prop_table_wide_keys ]

let suite =
  [
    ("table install/lookup", `Quick, test_table_install_lookup);
    ("table replace same key", `Quick, test_table_replace_same_key);
    ("table full and evict", `Quick, test_table_full);
    ("table rejects untagged", `Quick, test_table_rejects_untagged);
    ("table evict task", `Quick, test_table_evict_task);
    ("table eviction clears exception bit", `Quick,
     test_table_eviction_clears_exception_bit);
    ("table churn: no ghost exceptions", `Quick,
     test_table_churn_no_ghost_exceptions);
    ("table slot reuse lowest-first", `Quick, test_table_slot_reuse_lowest_first);
    ("table key range", `Quick, test_table_key_range);
    ("shim parity: fine", `Quick, test_shim_parity_fine);
    ("shim parity: coarse", `Quick, test_shim_parity_coarse);
    ("shim hit/miss accounting", `Quick, test_shim_hit_miss_accounting);
    ("shim accounting for sources past the fleet", `Quick,
     test_shim_accounting_past_fleet);
    ( "shim revocation between refill and access",
      `Quick,
      test_shim_revocation_between_refill_and_access );
    ("shim area and guard", `Quick, test_shim_area_and_guard);
    ("fine grants/denies", `Quick, test_fine_grants_and_denies);
    ("fine read-only cap", `Quick, test_fine_readonly_cap);
    ("coarse compose/split", `Quick, test_coarse_compose_split);
    ("coarse roundtrip boundaries", `Quick, test_coarse_roundtrip_boundaries);
    ("coarse compose rejects out-of-range", `Quick,
     test_coarse_compose_rejects_out_of_range);
    ("coarse grant strips id", `Quick, test_coarse_grants_and_strips);
    ("coarse unknown object", `Quick, test_coarse_unknown_object);
    ("exception flag and log", `Quick, test_exception_flag_and_log);
    ("grants after denial", `Quick, test_granted_after_denial);
    ("denial details pinned: fine", `Quick, test_denial_details Checker.Fine);
    ("denial details pinned: coarse", `Quick, test_denial_details Checker.Coarse);
    ("denial detail: tag violation", `Quick, test_denial_tag_rendering);
    ("exception log overflow", `Quick, test_exception_log_overflow);
    ("verdict matches check", `Quick, test_verdict_matches_check);
    ("mmio costs", `Quick, test_mmio_costs_positive);
    ("area calibration", `Quick, test_area_calibration);
    ("guard view", `Quick, test_guard_view);
  ]
  @ qsuite
