module Backend = Backend
module Revoker = Revoker

type t = {
  mem : Tagmem.Mem.t;
  heap : Tagmem.Alloc.t;
  backend : Backend.t;
  bus : Bus.Params.t;
  n_instances : int;
  busy : bool array;
  obs : Obs.Trace.t;
  faults : Fault.Injector.t;
  mmio : Capchecker.Mmio.t option;
      (* register window of the CapChecker, when one is present: the driver
         programs the hardware through it, never through internal calls *)
  mutable validated : Kernel.Ir.t list;
      (* kernels that passed [Kernel.Ir.validate], by physical identity *)
}

let create ?(obs = Obs.Trace.null) ?(faults = Fault.Injector.none) ~mem ~heap
    ~backend ~bus ~n_instances () =
  assert (n_instances > 0);
  let mmio =
    match backend with
    | Backend.Capchecker checker -> Some (Capchecker.Mmio.create checker)
    | Backend.No_protection _ | Backend.Iopmp _ | Backend.Iommu _
    | Backend.Snpu _ | Backend.Capchecker_cached _ -> None
  in
  { mem; heap; backend; bus; n_instances; busy = Array.make n_instances false;
    obs; faults; mmio; validated = [] }

let backend t = t.backend
let mem t = t.mem

let free_instances t =
  Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 t.busy

type handle = {
  task_id : int;
  layout : Memops.Layout.t;
  obj_ids : (string * int) list;
  caps : (string * Cheri.Cap.t) list;
}

type allocated = { handle : handle; cycles : int }

type dealloc_report = {
  cycles : int;
  exception_seen : bool;
  denials : Guard.Iface.denial list;
  scrubbed_bytes : int;
}

let malloc_cycles = 40
let free_cycles = 20

let find_free_instance t =
  let rec go idx =
    if idx >= t.n_instances then None
    else if t.busy.(idx) then go (idx + 1)
    else Some idx
  in
  go 0

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Allocate each buffer of the kernel.  For the IOPMP the task gets one
   contiguous arena; for everything else, individual allocations padded to
   CHERI-representable shapes so a capability never covers a neighbour. *)
let place_buffers t (kernel : Kernel.Ir.t) =
  let align = Backend.buffer_alignment t.backend in
  match t.backend with
  | Backend.Iopmp _ ->
      let shapes =
        List.map
          (fun (b : Kernel.Ir.buf_decl) ->
            let _, padded = Cheri.Bounds_enc.malloc_shape ~length:(Kernel.Ir.buf_decl_bytes b) in
            (b, padded))
          kernel.bufs
      in
      let total = List.fold_left (fun acc (_, p) -> acc + p) 0 shapes in
      let arena = Tagmem.Alloc.malloc t.heap ~align total in
      let _, bindings =
        List.fold_left
          (fun (offset, acc) (decl, padded) ->
            (offset + padded, { Memops.Layout.decl; base = arena + offset } :: acc))
          (0, []) shapes
      in
      (List.rev bindings, [ arena ], 1)
  | Backend.No_protection _ | Backend.Iommu _ | Backend.Snpu _
  | Backend.Capchecker _ | Backend.Capchecker_cached _ ->
      let bindings =
        List.map
          (fun (decl : Kernel.Ir.buf_decl) ->
            let bytes = Kernel.Ir.buf_decl_bytes decl in
            let cap_align, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
            let base =
              Tagmem.Alloc.malloc t.heap ~align:(max align cap_align) padded
            in
            { Memops.Layout.decl; base })
          kernel.bufs
      in
      (bindings, List.map (fun b -> b.Memops.Layout.base) bindings, List.length bindings)

let derive_cap (binding : Memops.Layout.binding) =
  let decl = binding.decl in
  let bytes = Kernel.Ir.buf_decl_bytes decl in
  let _, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
  let perms =
    if decl.Kernel.Ir.writable then Cheri.Perms.data_rw else Cheri.Perms.data_ro
  in
  let* cap = Cheri.Cap.set_bounds_exact Cheri.Cap.root ~base:binding.base ~length:padded in
  let* cap = Cheri.Cap.with_perms cap perms in
  Ok cap

let mmio_exn t =
  match t.mmio with
  | Some m -> m
  | None -> invalid_arg "Driver: no CapChecker register window in this system"

let program_backend t ~task_id ~bindings =
  let p = t.bus in
  match t.backend with
  | Backend.No_protection _ -> Ok (0, [])
  | Backend.Iopmp g ->
      let base = List.fold_left (fun acc b -> min acc b.Memops.Layout.base) max_int bindings in
      let top =
        List.fold_left
          (fun acc (b : Memops.Layout.binding) ->
            let _, padded =
              Cheri.Bounds_enc.malloc_shape ~length:(Kernel.Ir.buf_decl_bytes b.decl)
            in
            max acc (b.Memops.Layout.base + padded))
          0 bindings
      in
      let* () =
        Guard.Iopmp.add_rule g
          { Guard.Iopmp.source = task_id; base; top; can_read = true; can_write = true }
      in
      Ok (2 * p.Bus.Params.mmio_write, [])
  | Backend.Iommu g ->
      let cycles = ref 0 in
      List.iter
        (fun (b : Memops.Layout.binding) ->
          let bytes = Kernel.Ir.buf_decl_bytes b.decl in
          Guard.Iommu.map_range g ~source:task_id ~base:b.base ~size:bytes ~read:true
            ~write:b.decl.Kernel.Ir.writable;
          (* Page-table entries are memory writes by the driver. *)
          cycles := !cycles + (6 * Guard.Iommu.entries_for_range ~base:b.base ~size:bytes))
        bindings;
      Ok (!cycles + p.Bus.Params.mmio_write, [])
  | Backend.Snpu g ->
      let cycles = ref 0 in
      let rec grant_all = function
        | [] -> Ok ()
        | (b : Memops.Layout.binding) :: rest ->
            let bytes = Kernel.Ir.buf_decl_bytes b.decl in
            let* () = Guard.Snpu.grant g ~source:task_id ~base:b.base ~size:bytes in
            cycles := !cycles + (2 * p.Bus.Params.mmio_write);
            grant_all rest
      in
      let* () = grant_all bindings in
      Ok (!cycles, [])
  | Backend.Capchecker _ ->
      let mmio = mmio_exn t in
      let cycles = ref 0 in
      let rec install_all acc = function
        | [] -> Ok (List.rev acc)
        | ((b : Memops.Layout.binding), obj) :: rest -> (
            let* cap =
              match derive_cap b with
              | Ok c -> Ok c
              | Error e -> Error (Cheri.Cap.error_to_string e)
            in
            (* Deriving the capability costs a few CPU instructions; shipping
               it through the capability interconnect costs the register
               sequence of Mmio.install (stage + key + command). *)
            cycles := !cycles + 3 + Capchecker.Checker.install_cycles t.bus;
            match Capchecker.Mmio.install mmio ~task:task_id ~obj cap with
            | Ok () ->
                if Obs.Trace.enabled t.obs then
                  Obs.Trace.emit t.obs (Obs.Event.Cap_import { task = task_id; obj });
                install_all ((b.decl.Kernel.Ir.buf_name, cap) :: acc) rest
            | Error _ when Capchecker.Mmio.last_rejected mmio ->
                Error "CapChecker capability table full (driver would stall)"
            | Error msg -> Error msg)
      in
      let numbered = List.mapi (fun obj b -> (b, obj)) bindings in
      let* caps = install_all [] numbered in
      Ok (!cycles, caps)
  | Backend.Capchecker_cached checker ->
      (* Install into the in-memory backing table: the driver writes the
         16-byte entry with a capability store plus a cache invalidate. *)
      let cycles = ref 0 in
      let rec install_all acc = function
        | [] -> Ok (List.rev acc)
        | ((b : Memops.Layout.binding), obj) :: rest -> (
            let* cap =
              match derive_cap b with
              | Ok c -> Ok c
              | Error e -> Error (Cheri.Cap.error_to_string e)
            in
            cycles := !cycles + 3 + 4 + p.Bus.Params.mmio_write;
            match Capchecker.Cached.install checker ~task:task_id ~obj cap with
            | Ok () ->
                if Obs.Trace.enabled t.obs then
                  Obs.Trace.emit t.obs (Obs.Event.Cap_import { task = task_id; obj });
                install_all ((b.decl.Kernel.Ir.buf_name, cap) :: acc) rest
            | Error msg -> Error msg)
      in
      let numbered = List.mapi (fun obj b -> (b, obj)) bindings in
      let* caps = install_all [] numbered in
      Ok (!cycles, caps)

(* Undo partially installed protection state after a failed allocation, so a
   retry starts from a clean slate. *)
let rollback_backend t ~task_id =
  match t.backend with
  | Backend.No_protection _ -> ()
  | Backend.Iopmp g -> Guard.Iopmp.remove_rules_for g ~source:task_id
  | Backend.Iommu g -> Guard.Iommu.unmap_source g ~source:task_id
  | Backend.Snpu g -> Guard.Snpu.revoke_task g ~source:task_id
  | Backend.Capchecker checker ->
      ignore (Capchecker.Checker.evict_task checker ~task:task_id)
  | Backend.Capchecker_cached checker ->
      ignore (Capchecker.Cached.evict_task checker ~task:task_id)

(* A malformed kernel is a driver-API misuse, not a run-time condition the
   caller should retry: surface it before any buffer is placed.  A kernel
   value is immutable, so one that passed once passes again: it is checked
   on its first allocation only.  A failing kernel is never recorded. *)
let check_kernel t (kernel : Kernel.Ir.t) =
  if not (List.memq kernel t.validated) then
    match Kernel.Ir.validate kernel with
    | Ok () -> t.validated <- kernel :: t.validated
    | Error msg ->
        invalid_arg
          (Printf.sprintf "Driver.allocate: ill-formed kernel %s: %s"
             kernel.Kernel.Ir.name msg)

let allocate t (kernel : Kernel.Ir.t) =
  check_kernel t kernel;
  if Fault.Injector.alloc_fail t.faults then
    Error "transient allocation fault (injected)"
  else
  match find_free_instance t with
  | None -> Error "all functional units busy"
  | Some task_id -> (
      match place_buffers t kernel with
      | exception Tagmem.Alloc.Out_of_memory n ->
          Error (Printf.sprintf "driver heap exhausted (%d bytes requested)" n)
      | bindings, allocs, n_mallocs -> (
          let obj_ids =
            List.mapi (fun obj (b : Memops.Layout.binding) -> (b.decl.Kernel.Ir.buf_name, obj)) bindings
          in
          match program_backend t ~task_id ~bindings with
          | Error _ as e ->
              (* A failed allocation must release everything it placed:
                 leaked buffers and half-installed capabilities would make
                 each retry start from a worse state than the last. *)
              rollback_backend t ~task_id;
              List.iter (Tagmem.Alloc.free t.heap) allocs;
              e
          | Ok (backend_cycles, caps) ->
              (* Pointer and control registers of the accelerator instance:
                 one register per buffer plus task configuration and start. *)
              let ctrl_cycles = (List.length bindings + 2) * t.bus.Bus.Params.mmio_write in
              t.busy.(task_id) <- true;
              let cycles = (n_mallocs * malloc_cycles) + backend_cycles + ctrl_cycles in
              if Obs.Trace.enabled t.obs then
                Obs.Trace.emit t.obs
                  (Obs.Event.Task_phase
                     { task = task_id; phase = "driver-alloc"; dur = cycles });
              Ok
                {
                  handle =
                    { task_id; layout = Memops.Layout.make bindings; obj_ids; caps };
                  cycles;
                }))

type retry_policy = {
  max_attempts : int;
  backoff_base : int;
  backoff_factor : int;
}

let default_retry_policy = { max_attempts = 4; backoff_base = 64; backoff_factor = 2 }

let retry_probe_cycles = 16

let backoff_cycles policy ~attempt =
  let rec pow acc n = if n <= 0 then acc else pow (acc * policy.backoff_factor) (n - 1) in
  policy.backoff_base * pow 1 (max 0 (attempt - 1))

let allocate_with_retry ?(policy = default_retry_policy) t kernel =
  let rec go attempt ~penalty =
    match allocate t kernel with
    | Ok a -> Ok ({ a with cycles = a.cycles + penalty }, attempt - 1)
    | Error msg when attempt >= policy.max_attempts -> Error msg
    | Error _ ->
        let backoff = backoff_cycles policy ~attempt in
        Fault.Injector.note_retry t.faults ~backoff;
        if Obs.Trace.enabled t.obs then
          Obs.Trace.emit t.obs (Obs.Event.Task_retry { task = -1; attempt; backoff });
        go (attempt + 1) ~penalty:(penalty + retry_probe_cycles + backoff)
  in
  go 1 ~penalty:0

let scrub t handle =
  List.fold_left
    (fun acc (b : Memops.Layout.binding) ->
      let bytes = Kernel.Ir.buf_decl_bytes b.decl in
      Tagmem.Mem.fill t.mem ~addr:b.base ~size:bytes '\000';
      acc + bytes)
    0
    (Memops.Layout.bindings handle.layout)

let deallocate t handle ~denied =
  let p = t.bus in
  let cycles = ref 0 in
  let denials = ref (match denied with Some d -> [ d ] | None -> []) in
  let exception_seen = ref (denied <> None) in
  (* Collect and clear protection state. *)
  (match t.backend with
  | Backend.No_protection _ -> ()
  | Backend.Iopmp g ->
      Guard.Iopmp.remove_rules_for g ~source:handle.task_id;
      cycles := !cycles + p.Bus.Params.mmio_write
  | Backend.Iommu g ->
      Guard.Iommu.unmap_source g ~source:handle.task_id;
      cycles := !cycles + p.Bus.Params.mmio_write
  | Backend.Snpu g ->
      Guard.Snpu.revoke_task g ~source:handle.task_id;
      cycles := !cycles + p.Bus.Params.mmio_write
  | Backend.Capchecker checker ->
      let mmio = mmio_exn t in
      cycles := !cycles + Capchecker.Checker.poll_cycles p;
      let status = Capchecker.Mmio.read mmio ~offset:Capchecker.Mmio.reg_status in
      if Int64.logand status 1L <> 0L then begin
        let mine =
          Capchecker.Checker.exception_log_for checker ~task:handle.task_id
        in
        if mine <> [] then begin
          exception_seen := true;
          denials :=
            !denials
            @ List.filter (fun d -> not (List.mem d !denials)) mine
        end
      end;
      let before = Capchecker.Table.live_count (Capchecker.Checker.table checker) in
      Capchecker.Mmio.write mmio ~offset:Capchecker.Mmio.reg_key
        (Capchecker.Mmio.key_of ~task:handle.task_id ~obj:0);
      Capchecker.Mmio.write mmio ~offset:Capchecker.Mmio.reg_command
        Capchecker.Mmio.cmd_evict_task;
      let after = Capchecker.Table.live_count (Capchecker.Checker.table checker) in
      cycles := !cycles + ((before - after) * Capchecker.Checker.evict_cycles p)
  | Backend.Capchecker_cached checker ->
      let evicted = Capchecker.Cached.evict_task checker ~task:handle.task_id in
      cycles := !cycles + (evicted * 4) + p.Bus.Params.mmio_read);
  (* Scrub buffers on an exception so a follow-up task cannot read leftovers. *)
  let scrubbed_bytes =
    if !exception_seen then begin
      let bytes = scrub t handle in
      cycles := !cycles + (bytes / 8);
      bytes
    end
    else 0
  in
  (* Clear pointer/control registers, free memory, release the instance. *)
  let bindings = Memops.Layout.bindings handle.layout in
  cycles := !cycles + ((List.length bindings + 2) * p.Bus.Params.mmio_write);
  (match t.backend with
  | Backend.Iopmp _ ->
      (* Under the arena policy all bindings share one allocation. *)
      let arena =
        List.fold_left (fun acc b -> min acc b.Memops.Layout.base) max_int bindings
      in
      Tagmem.Alloc.free t.heap arena;
      cycles := !cycles + free_cycles
  | Backend.No_protection _ | Backend.Iommu _ | Backend.Snpu _
  | Backend.Capchecker _ | Backend.Capchecker_cached _ ->
      (* One allocation per binding, each at its own base. *)
      List.iter
        (fun (b : Memops.Layout.binding) ->
          Tagmem.Alloc.free t.heap b.Memops.Layout.base;
          cycles := !cycles + free_cycles)
        bindings);
  t.busy.(handle.task_id) <- false;
  if Obs.Trace.enabled t.obs then
    Obs.Trace.emit t.obs
      (Obs.Event.Task_phase
         { task = handle.task_id; phase = "driver-teardown"; dur = !cycles });
  {
    cycles = !cycles;
    exception_seen = !exception_seen;
    denials = !denials;
    scrubbed_bytes;
  }
