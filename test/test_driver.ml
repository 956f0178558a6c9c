(* The trusted driver: allocation/deallocation flows for every backend,
   capability derivation and installation, exception collection, scrubbing,
   and resource exhaustion behaviour. *)

open Kernel.Ir

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let kernel2 =
  {
    name = "two_buffers";
    bufs = [ buf ~writable:false "in" I64 32; buf "out" I64 16 ];
    scratch = [];
    body = [];
  }

let make_driver ?(instances = 2) backend =
  let mem = Tagmem.Mem.create ~size:(1 lsl 21) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 21) - 4096) in
  ( Driver.create ~mem ~heap ~backend ~bus:Bus.Params.default ~n_instances:instances (),
    mem, heap )

let alloc_exn driver kernel =
  match Driver.allocate driver kernel with
  | Ok a -> a
  | Error msg -> Alcotest.failf "allocate: %s" msg

let test_allocate_basics () =
  let driver, _, _ = make_driver (Driver.Backend.No_protection { naive_tags = false }) in
  let a = alloc_exn driver kernel2 in
  checki "task id" 0 a.Driver.handle.Driver.task_id;
  checkb "cycles charged" true (a.Driver.cycles > 0);
  checki "objects numbered" 2 (List.length a.Driver.handle.Driver.obj_ids);
  checki "in is object 0" 0 (List.assoc "in" a.Driver.handle.Driver.obj_ids);
  checki "free instances" 1 (Driver.free_instances driver)

let test_instance_exhaustion_and_release () =
  let driver, _, _ = make_driver ~instances:1 (Driver.Backend.No_protection { naive_tags = false }) in
  let a = alloc_exn driver kernel2 in
  checkb "second allocation stalls" true (Result.is_error (Driver.allocate driver kernel2));
  let _ = Driver.deallocate driver a.Driver.handle ~denied:None in
  checkb "instance released" true (Result.is_ok (Driver.allocate driver kernel2))

let test_capchecker_backend_installs () =
  let checker = Capchecker.Checker.create ~entries:8 Capchecker.Checker.Fine in
  let driver, _, _ = make_driver (Driver.Backend.Capchecker checker) in
  let a = alloc_exn driver kernel2 in
  checki "one entry per buffer" 2
    (Capchecker.Table.live_count (Capchecker.Checker.table checker));
  (* The installed capability for the read-only buffer must not carry store
     permission. *)
  (match Capchecker.Table.lookup (Capchecker.Checker.table checker)
           ~task:a.Driver.handle.Driver.task_id ~obj:0 with
  | Some e ->
      checkb "read-only grant" false
        (Cheri.Perms.mem Cheri.Perms.store e.Capchecker.Table.cap.Cheri.Cap.perms)
  | None -> Alcotest.fail "missing entry");
  (match Capchecker.Table.lookup (Capchecker.Checker.table checker)
           ~task:a.Driver.handle.Driver.task_id ~obj:1 with
  | Some e ->
      checkb "writable grant" true
        (Cheri.Perms.mem Cheri.Perms.store e.Capchecker.Table.cap.Cheri.Cap.perms)
  | None -> Alcotest.fail "missing entry");
  let _ = Driver.deallocate driver a.Driver.handle ~denied:None in
  checki "evicted on dealloc" 0
    (Capchecker.Table.live_count (Capchecker.Checker.table checker))

let test_capchecker_caps_cover_buffers () =
  let checker = Capchecker.Checker.create ~entries:8 Capchecker.Checker.Fine in
  let driver, _, _ = make_driver (Driver.Backend.Capchecker checker) in
  let a = alloc_exn driver kernel2 in
  List.iter
    (fun (binding : Memops.Layout.binding) ->
      let cap = List.assoc binding.decl.buf_name a.Driver.handle.Driver.caps in
      checkb "covers base" true (cap.Cheri.Cap.base <= binding.Memops.Layout.base);
      checkb "covers top" true
        (cap.Cheri.Cap.top
        >= binding.Memops.Layout.base + buf_decl_bytes binding.decl);
      checkb "tagged" true cap.Cheri.Cap.tag)
    (Memops.Layout.bindings a.Driver.handle.Driver.layout)

let test_capchecker_table_exhaustion () =
  let checker = Capchecker.Checker.create ~entries:2 Capchecker.Checker.Fine in
  let driver, _, _ = make_driver ~instances:4 (Driver.Backend.Capchecker checker) in
  let _a = alloc_exn driver kernel2 in
  (* Second task needs 2 more entries than the 2-entry table has. *)
  checkb "would stall" true (Result.is_error (Driver.allocate driver kernel2))

let test_iommu_backend_pages () =
  let mmu = Guard.Iommu.create () in
  let driver, _, _ = make_driver (Driver.Backend.Iommu mmu) in
  let a = alloc_exn driver kernel2 in
  (* Page-aligned allocation: one buffer per page. *)
  List.iter
    (fun (b : Memops.Layout.binding) ->
      checki "page aligned" 0 (b.Memops.Layout.base mod Guard.Iommu.page_size))
    (Memops.Layout.bindings a.Driver.handle.Driver.layout);
  checki "two pages mapped" 2 (Guard.Iommu.mapped_pages mmu);
  let _ = Driver.deallocate driver a.Driver.handle ~denied:None in
  checki "unmapped" 0 (Guard.Iommu.mapped_pages mmu)

let test_iopmp_backend_single_arena_rule () =
  let pmp = Guard.Iopmp.create () in
  let driver, _, _ = make_driver (Driver.Backend.Iopmp pmp) in
  let _a = alloc_exn driver kernel2 in
  checki "one rule per task" 1 ((Guard.Iopmp.as_guard pmp).Guard.Iface.entries_in_use ())

let test_snpu_backend_per_buffer_regions () =
  let s = Guard.Snpu.create () in
  let driver, _, _ = make_driver (Driver.Backend.Snpu s) in
  let _a = alloc_exn driver kernel2 in
  checki "one region per buffer" 2
    ((Guard.Snpu.as_guard s).Guard.Iface.entries_in_use ())

let test_dealloc_scrubs_on_exception () =
  let checker = Capchecker.Checker.create ~entries:8 Capchecker.Checker.Fine in
  let driver, mem, _ = make_driver (Driver.Backend.Capchecker checker) in
  let a = alloc_exn driver kernel2 in
  let out = Memops.Layout.find a.Driver.handle.Driver.layout "out" in
  Tagmem.Mem.write_u64 mem ~addr:out.Memops.Layout.base 0x1234L;
  let report =
    Driver.deallocate driver a.Driver.handle
      ~denied:(Some { Guard.Iface.code = "capchecker"; detail = "test" })
  in
  checkb "exception seen" true report.Driver.exception_seen;
  checkb "bytes scrubbed" true (report.Driver.scrubbed_bytes > 0);
  Alcotest.(check int64) "buffer cleared" 0L
    (Tagmem.Mem.read_u64 mem ~addr:out.Memops.Layout.base)

let test_dealloc_clean_keeps_data () =
  let driver, mem, _ = make_driver (Driver.Backend.No_protection { naive_tags = false }) in
  let a = alloc_exn driver kernel2 in
  let out = Memops.Layout.find a.Driver.handle.Driver.layout "out" in
  Tagmem.Mem.write_u64 mem ~addr:out.Memops.Layout.base 0x1234L;
  let report = Driver.deallocate driver a.Driver.handle ~denied:None in
  checkb "no exception" false report.Driver.exception_seen;
  checki "nothing scrubbed" 0 report.Driver.scrubbed_bytes

let test_dealloc_collects_checker_log () =
  let checker = Capchecker.Checker.create ~entries:8 Capchecker.Checker.Fine in
  let driver, _, _ = make_driver (Driver.Backend.Capchecker checker) in
  let a = alloc_exn driver kernel2 in
  (* An illegal access recorded by the hardware against this task. *)
  ignore
    (Capchecker.Checker.check checker
       { Guard.Iface.source = a.Driver.handle.Driver.task_id; port = Some 0;
         addr = 0; size = 8; kind = Guard.Iface.Read });
  let report = Driver.deallocate driver a.Driver.handle ~denied:None in
  checkb "exception collected from hardware" true report.Driver.exception_seen;
  checkb "denial reported" true (report.Driver.denials <> [])

let test_dealloc_other_tasks_exception_not_charged () =
  let checker = Capchecker.Checker.create ~entries:8 Capchecker.Checker.Fine in
  let driver, _, _ = make_driver (Driver.Backend.Capchecker checker) in
  let a = alloc_exn driver kernel2 in
  let b = alloc_exn driver kernel2 in
  ignore
    (Capchecker.Checker.check checker
       { Guard.Iface.source = b.Driver.handle.Driver.task_id; port = Some 0;
         addr = 0; size = 8; kind = Guard.Iface.Read });
  let report = Driver.deallocate driver a.Driver.handle ~denied:None in
  checkb "innocent task unaffected" false report.Driver.exception_seen

let test_heap_returned_after_dealloc () =
  let driver, _, heap = make_driver (Driver.Backend.No_protection { naive_tags = false }) in
  let before = Tagmem.Alloc.bytes_free heap in
  let a = alloc_exn driver kernel2 in
  let _ = Driver.deallocate driver a.Driver.handle ~denied:None in
  checki "heap restored" before (Tagmem.Alloc.bytes_free heap)

let test_heap_returned_iopmp_arena () =
  let pmp = Guard.Iopmp.create () in
  let driver, _, heap = make_driver (Driver.Backend.Iopmp pmp) in
  let before = Tagmem.Alloc.bytes_free heap in
  let a = alloc_exn driver kernel2 in
  let _ = Driver.deallocate driver a.Driver.handle ~denied:None in
  checki "arena restored" before (Tagmem.Alloc.bytes_free heap)

(* Ill-formed kernels must fail loudly at allocation (construction) time,
   naming the offending buffer and statement — not surface mid-interpretation
   as a guard denial. *)
let test_allocate_rejects_ill_formed_kernel () =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go j = j + n <= m && (String.sub s j n = sub || go (j + 1)) in
    n = 0 || go 0
  in
  let driver, _, _ = make_driver (Driver.Backend.No_protection { naive_tags = false }) in
  let bad =
    {
      name = "bad_ro";
      bufs = [ buf ~writable:false "out" I64 8 ];
      scratch = [];
      body = [ store "out" (i 0) (i 1) ];
    }
  in
  (match Driver.allocate driver bad with
  | exception Invalid_argument msg ->
      checkb "names the buffer" true (contains ~sub:"read-only buffer out" msg);
      checkb "names the statement" true (contains ~sub:"out[0] <- 1" msg)
  | Ok _ | Error _ -> Alcotest.fail "ill-formed kernel was accepted");
  (* Nothing was placed: the instance and the heap are untouched. *)
  checki "no instance consumed" 2 (Driver.free_instances driver);
  (* Validation is remembered only for kernels that pass it: the same
     ill-formed value is refused again on every later call. *)
  checkb "refused again on a second call" true
    (match Driver.allocate driver bad with
    | exception Invalid_argument _ -> true
    | Ok _ | Error _ -> false);
  let a = alloc_exn driver kernel2 in
  checkb "well-formed kernel still allocates" true (a.Driver.cycles > 0);
  (* A validated kernel allocates again after its teardown, at the same
     cost, and an ill-formed one is still refused after that. *)
  let _ = Driver.deallocate driver a.Driver.handle ~denied:None in
  let b = alloc_exn driver kernel2 in
  checki "allocates again after deallocate, same cost" a.Driver.cycles
    b.Driver.cycles;
  checkb "still refused after a valid allocation" true
    (match Driver.allocate driver bad with
    | exception Invalid_argument _ -> true
    | Ok _ | Error _ -> false)

(* Driver cost follows the table, not the simulator's bookkeeping: a warm
   allocate/deallocate pair on the CapChecker backend with the null sink
   allocates a few records per buffer (the bindings, the delegated and the
   installed capabilities), not a rebuilt free list, hash buckets, boxed
   register words or a sorted layout.  The budget is a quarter of the 725
   words a pair took while it still built those (about 126 now, over the
   four serve kernels' 1 to 5 buffers). *)
let test_capchecker_pair_allocation () =
  let checker = Capchecker.Checker.create ~entries:256 Capchecker.Checker.Fine in
  let driver, _, _ = make_driver ~instances:8 (Driver.Backend.Capchecker checker) in
  let kernels =
    Array.map
      (fun n -> (Machsuite.Registry.find n).Machsuite.Bench_def.kernel)
      [| "aes"; "kmp"; "sort_merge"; "spmv_crs" |]
  in
  let pair i =
    let a = alloc_exn driver kernels.(i mod Array.length kernels) in
    ignore (Driver.deallocate driver a.Driver.handle ~denied:None)
  in
  (* Warm: every kernel validated, every structure at its working size. *)
  for i = 0 to 99 do pair i done;
  let pairs = 1000 in
  let before = Gc.minor_words () in
  for i = 0 to pairs - 1 do pair i done;
  let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
  if per_pair > 181. then
    Alcotest.failf "%.1f minor words per allocate+deallocate pair (budget 181)"
      per_pair

let suite =
  [
    ("allocate basics", `Quick, test_allocate_basics);
    ("allocate rejects ill-formed kernel", `Quick,
     test_allocate_rejects_ill_formed_kernel);
    ("instance exhaustion/release", `Quick, test_instance_exhaustion_and_release);
    ("capchecker installs", `Quick, test_capchecker_backend_installs);
    ("capchecker caps cover buffers", `Quick, test_capchecker_caps_cover_buffers);
    ("capchecker table exhaustion", `Quick, test_capchecker_table_exhaustion);
    ("iommu pages", `Quick, test_iommu_backend_pages);
    ("iopmp arena rule", `Quick, test_iopmp_backend_single_arena_rule);
    ("snpu regions", `Quick, test_snpu_backend_per_buffer_regions);
    ("scrub on exception", `Quick, test_dealloc_scrubs_on_exception);
    ("clean dealloc keeps data", `Quick, test_dealloc_clean_keeps_data);
    ("collects checker log", `Quick, test_dealloc_collects_checker_log);
    ("innocent task not charged", `Quick, test_dealloc_other_tasks_exception_not_charged);
    ("heap returned", `Quick, test_heap_returned_after_dealloc);
    ("heap returned (arena)", `Quick, test_heap_returned_iopmp_arena);
    ("capchecker pair allocation", `Quick, test_capchecker_pair_allocation);
  ]
