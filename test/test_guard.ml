(* The protection baselines: IOPMP region rules, IOMMU page tables + IOTLB,
   sNPU bounds registers, and the pass-through. *)

open Guard

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let read_req ?port ~source ~addr ~size () =
  { Iface.source; port; addr; size; kind = Iface.Read }

let write_req ~source ~addr ~size () =
  { Iface.source; port = None; addr; size; kind = Iface.Write }

let granted = function Iface.Granted _ -> true | Iface.Denied _ -> false

let phys_of = function
  | Iface.Granted { phys; _ } -> phys
  | Iface.Denied d -> Alcotest.failf "denied: %s" d.Iface.detail

(* ---------------- pass-through ---------------- *)

let test_pass_through () =
  let g = Iface.pass_through in
  let r = read_req ~source:3 ~addr:0xDEAD ~size:8 () in
  checkb "grants anything" true (granted (g.Iface.check r));
  checki "address unchanged" 0xDEAD (phys_of (g.Iface.check r));
  checki "no entries" 0 (g.Iface.entries_in_use ())

(* ---------------- IOPMP ---------------- *)

let test_iopmp_rules () =
  let pmp = Iopmp.create ~regions:4 () in
  (match
     Iopmp.add_rule pmp
       { Iopmp.source = 1; base = 0x1000; top = 0x2000; can_read = true;
         can_write = false }
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let g = Iopmp.as_guard pmp in
  checkb "read inside" true (granted (g.Iface.check (read_req ~source:1 ~addr:0x1800 ~size:8 ())));
  checkb "write denied by perm" false
    (granted (g.Iface.check (write_req ~source:1 ~addr:0x1800 ~size:8 ())));
  checkb "other source denied" false
    (granted (g.Iface.check (read_req ~source:2 ~addr:0x1800 ~size:8 ())));
  checkb "straddling top denied" false
    (granted (g.Iface.check (read_req ~source:1 ~addr:0x1ffc ~size:8 ())));
  checki "one entry" 1 (g.Iface.entries_in_use ())

let test_iopmp_capacity () =
  let pmp = Iopmp.create ~regions:2 () in
  let rule base =
    { Iopmp.source = 0; base; top = base + 16; can_read = true; can_write = true }
  in
  checkb "1st ok" true (Iopmp.add_rule pmp (rule 0) = Ok ());
  checkb "2nd ok" true (Iopmp.add_rule pmp (rule 32) = Ok ());
  checkb "3rd rejected" true (Result.is_error (Iopmp.add_rule pmp (rule 64)))

let test_iopmp_remove () =
  let pmp = Iopmp.create () in
  List.iter
    (fun source ->
      match
        Iopmp.add_rule pmp
          { Iopmp.source; base = 0; top = 64; can_read = true; can_write = true }
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ 1; 2; 1 ];
  Iopmp.remove_rules_for pmp ~source:1;
  checki "only source 2 remains" 1 ((Iopmp.as_guard pmp).Iface.entries_in_use ())

(* ---------------- IOMMU ---------------- *)

let test_iommu_mapping () =
  let mmu = Iommu.create () in
  Iommu.map_range mmu ~source:1 ~base:0x2000 ~size:100 ~read:true ~write:false;
  let g = Iommu.as_guard mmu in
  checkb "read in page" true
    (granted (g.Iface.check (read_req ~source:1 ~addr:0x2000 ~size:8 ())));
  (* The whole page is reachable even past the 100-byte buffer: the intra-page
     blind spot. *)
  checkb "page slop granted" true
    (granted (g.Iface.check (read_req ~source:1 ~addr:0x2ff8 ~size:8 ())));
  checkb "next page denied" false
    (granted (g.Iface.check (read_req ~source:1 ~addr:0x3000 ~size:8 ())));
  checkb "write denied" false
    (granted (g.Iface.check (write_req ~source:1 ~addr:0x2000 ~size:8 ())));
  checkb "other source denied" false
    (granted (g.Iface.check (read_req ~source:2 ~addr:0x2000 ~size:8 ())))

let test_iommu_multi_page_access () =
  let mmu = Iommu.create () in
  Iommu.map_range mmu ~source:1 ~base:0x0 ~size:8192 ~read:true ~write:true;
  let g = Iommu.as_guard mmu in
  checkb "straddling two mapped pages ok" true
    (granted (g.Iface.check (read_req ~source:1 ~addr:4090 ~size:12 ())));
  Iommu.unmap_source mmu ~source:1;
  checkb "unmapped" false
    (granted (g.Iface.check (read_req ~source:1 ~addr:0 ~size:8 ())));
  checki "no entries" 0 (Iommu.mapped_pages mmu)

let test_iommu_perm_union () =
  let mmu = Iommu.create () in
  Iommu.map_range mmu ~source:1 ~base:0 ~size:64 ~read:true ~write:false;
  Iommu.map_range mmu ~source:1 ~base:128 ~size:64 ~read:false ~write:true;
  let g = Iommu.as_guard mmu in
  (* Both buffers share page 0, so the page carries the union — precisely the
     granularity loss the paper criticises. *)
  checkb "write through read-only neighbour" true
    (granted (g.Iface.check (write_req ~source:1 ~addr:0 ~size:8 ())))

let test_iommu_entries_math () =
  checki "empty" 0 (Iommu.entries_for_range ~base:0 ~size:0);
  checki "one byte one page" 1 (Iommu.entries_for_range ~base:0 ~size:1);
  checki "exactly a page" 1 (Iommu.entries_for_range ~base:0 ~size:4096);
  checki "page + 1" 2 (Iommu.entries_for_range ~base:0 ~size:4097);
  checki "unaligned straddle" 2 (Iommu.entries_for_range ~base:4090 ~size:12)

let test_iommu_tlb_latency () =
  let mmu = Iommu.create ~tlb_entries:4 () in
  Iommu.map_range mmu ~source:1 ~base:0 ~size:4096 ~read:true ~write:true;
  let g = Iommu.as_guard mmu in
  let lat req =
    match g.Iface.check req with
    | Iface.Granted { latency; _ } -> latency
    | Iface.Denied _ -> Alcotest.fail "denied"
  in
  let miss = lat (read_req ~source:1 ~addr:0 ~size:8 ()) in
  let hit = lat (read_req ~source:1 ~addr:8 ~size:8 ()) in
  checkb "miss slower than hit" true (miss > hit)

let prop_iommu_entries_model =
  QCheck.Test.make ~count:300 ~name:"entries_for_range matches page count"
    QCheck.(pair (int_bound 100_000) (int_range 1 100_000))
    (fun (base, size) ->
      let first = base / 4096 and last = (base + size - 1) / 4096 in
      Iommu.entries_for_range ~base ~size = last - first + 1)

(* ---------------- sNPU ---------------- *)

let test_snpu_regions () =
  let s = Snpu.create () in
  (match Snpu.grant s ~source:1 ~base:0x100 ~size:64 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Snpu.grant s ~source:1 ~base:0x400 ~size:64 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let g = Snpu.as_guard s in
  checkb "region one" true
    (granted (g.Iface.check (read_req ~source:1 ~addr:0x120 ~size:8 ())));
  (* Task granularity: any region of the task admits, reads and writes
     indistinguishably. *)
  checkb "writes allowed too" true
    (granted (g.Iface.check (write_req ~source:1 ~addr:0x420 ~size:8 ())));
  checkb "between regions denied" false
    (granted (g.Iface.check (read_req ~source:1 ~addr:0x200 ~size:8 ())));
  checkb "other task denied" false
    (granted (g.Iface.check (read_req ~source:2 ~addr:0x120 ~size:8 ())));
  Snpu.revoke_task s ~source:1;
  checkb "revoked" false
    (granted (g.Iface.check (read_req ~source:1 ~addr:0x120 ~size:8 ())))

let test_snpu_capacity () =
  let s = Snpu.create ~regions_per_task:2 () in
  checkb "1st" true (Snpu.grant s ~source:0 ~base:0 ~size:8 = Ok ());
  checkb "2nd" true (Snpu.grant s ~source:0 ~base:16 ~size:8 = Ok ());
  checkb "3rd rejected" true (Result.is_error (Snpu.grant s ~source:0 ~base:32 ~size:8));
  checkb "other task unaffected" true (Snpu.grant s ~source:1 ~base:0 ~size:8 = Ok ())

(* ---------------- ends past a region, wrapping included ---------------- *)

(* Every bounds check must deny a request whose true end lies past its
   region, also when [addr + size] would wrap past [max_int].  A case is a
   region of [len] units at [base] units (units of the guard's granularity),
   the request's start [dx] bytes from the region base (possibly past the
   top), and a size chosen just past the top, anywhere past it, or so large
   that the end wraps. *)
let past_end_arb =
  QCheck.make
    ~print:(fun (base, len, dx, how, r) ->
      Printf.sprintf "base=%d len=%d dx=%d how=%d r=%d" base len dx how r)
    QCheck.Gen.(
      let* base = int_range 0 256 in
      let* len = int_range 1 8 in
      let* dx = int_range 0 ((8 * 4096) + 64) in
      let* how = int_bound 2 in
      let* r = map (fun r -> r land max_int) int in
      return (base, len, dx, how, r))

(* A request at [base + dx] whose true end lies past [top]. *)
let past_request ~base ~top ~dx ~how ~r =
  let addr = base + dx in
  let lo = max 1 (top - addr + 1) in
  let size =
    match how with
    | 0 -> lo + (r mod 64)
    | 1 -> lo + (r mod (max_int - lo + 1))
    | _ -> if addr = 0 then max_int else max_int - addr + 1 + (r mod addr)
  in
  (addr, size)

(* [setup ~base ~len] builds a guard granting [len] bytes at [base] and
   returns the region [b, t) it really admits plus its admission test; the
   whole region must be admitted and every request ending past [t] denied. *)
let prop_past_end name ~align setup =
  QCheck.Test.make ~count:1000
    ~name:(name ^ ": end past region denied, wrap included")
    past_end_arb
    (fun (base, len, dx, how, r) ->
      let b, t, admits = setup ~base:(base * align) ~len:(len * align) in
      let addr, size = past_request ~base:b ~top:t ~dx ~how ~r in
      admits ~addr:b ~size:(t - b) && not (admits ~addr ~size))

let admitted_by (g : Iface.t) ~addr ~size =
  granted (g.Iface.check (read_req ~source:0 ~addr ~size ()))

let prop_past_end_iopmp =
  prop_past_end "iopmp" ~align:1 (fun ~base ~len ->
      let pmp = Iopmp.create () in
      ignore
        (Iopmp.add_rule pmp
           { Iopmp.source = 0; base; top = base + len; can_read = true;
             can_write = true });
      (base, base + len, admitted_by (Iopmp.as_guard pmp)))

let prop_past_end_snpu =
  prop_past_end "snpu" ~align:1 (fun ~base ~len ->
      let s = Snpu.create () in
      ignore (Snpu.grant s ~source:0 ~base ~size:len);
      (base, base + len, admitted_by (Snpu.as_guard s)))

let prop_past_end_iommu =
  prop_past_end "iommu" ~align:Iommu.page_size (fun ~base ~len ->
      let m = Iommu.create () in
      Iommu.map_range m ~source:0 ~base ~size:len ~read:true ~write:true;
      (base, base + len, admitted_by (Iommu.as_guard m)))

let prop_past_end_cap =
  prop_past_end "cheri cap" ~align:1 (fun ~base ~len ->
      let c =
        Result.get_ok (Cheri.Cap.set_bounds Cheri.Cap.root ~base ~length:len)
      in
      ( c.Cheri.Cap.base, c.Cheri.Cap.top,
        fun ~addr ~size -> Cheri.Cap.access_ok c ~addr ~size Cheri.Cap.Read = Ok () ))

let prop_past_end_mem =
  prop_past_end "tagmem" ~align:Tagmem.Mem.granule (fun ~base:_ ~len ->
      let mem = Tagmem.Mem.create ~size:len in
      ( 0, Tagmem.Mem.size mem,
        fun ~addr ~size ->
          match Tagmem.Mem.read_bytes mem ~addr ~size with
          | _ -> true
          | exception Tagmem.Mem.Out_of_range _ -> false ))

let prop_past_end_dram =
  prop_past_end "addr map" ~align:1 (fun ~base:_ ~len:_ ->
      let base = Bus.Addr_map.dram_base in
      ( base, base + Bus.Addr_map.dram_size,
        fun ~addr ~size -> Bus.Addr_map.in_dram ~addr ~size ))

(* The guard-free recording pass stops at the first access that leaves its
   buffer; it is the only bounds check a recorded script ever sees. *)
let prop_past_end_recorder =
  prop_past_end "script recorder" ~align:1 (fun ~base:_ ~len ->
      ( 0, len,
        fun ~addr ~size ->
          let r = Accel.Script.Recorder.create ~extents:[| len |] in
          match
            Accel.Script.Recorder.access r ~kind:Iface.Read ~buf:0
              ~off:addr ~size ~dependent:false ~ops:0
          with
          | () -> true
          | exception Accel.Script.Recorder.Escaped -> false ))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_iommu_entries_model; prop_past_end_iopmp; prop_past_end_snpu;
      prop_past_end_iommu; prop_past_end_cap; prop_past_end_mem;
      prop_past_end_dram; prop_past_end_recorder ]

let suite =
  [
    ("pass-through", `Quick, test_pass_through);
    ("iopmp rules", `Quick, test_iopmp_rules);
    ("iopmp capacity", `Quick, test_iopmp_capacity);
    ("iopmp remove", `Quick, test_iopmp_remove);
    ("iommu mapping", `Quick, test_iommu_mapping);
    ("iommu multi-page", `Quick, test_iommu_multi_page_access);
    ("iommu permission union", `Quick, test_iommu_perm_union);
    ("iommu entries math", `Quick, test_iommu_entries_math);
    ("iommu tlb latency", `Quick, test_iommu_tlb_latency);
    ("snpu regions", `Quick, test_snpu_regions);
    ("snpu capacity", `Quick, test_snpu_capacity);
  ]
  @ qsuite
