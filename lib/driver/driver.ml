module Backend = Backend
module Revoker = Revoker

(* What the driver takes from a kernel once, when it first validates it:
   the shape of every buffer and the object numbering, which depend on the
   kernel alone, so a request's driver cost depends on its buffers, not on
   re-deriving them. *)
type plan = {
  kernel : Kernel.Ir.t;
  decls : Kernel.Ir.buf_decl array;
  cap_align : int array;  (* alignment giving exact bounds to [padded] *)
  padded : int array;  (* bytes, padded to a representable length *)
  obj_ids : (string * int) list;
}

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
  mutable plans : plan list;
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
    obs; faults; mmio; plans = [] }

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

(* The lowest free instance, or -1. *)
let find_free_instance t =
  let rec go idx =
    if idx >= t.n_instances then -1 else if t.busy.(idx) then go (idx + 1) else idx
  in
  go 0

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let plan_of (kernel : Kernel.Ir.t) =
  let decls = Array.of_list kernel.bufs in
  let shapes =
    Array.map
      (fun d -> Cheri.Bounds_enc.malloc_shape ~length:(Kernel.Ir.buf_decl_bytes d))
      decls
  in
  { kernel; decls; cap_align = Array.map fst shapes; padded = Array.map snd shapes;
    obj_ids = List.mapi (fun obj (d : Kernel.Ir.buf_decl) -> (d.buf_name, obj)) kernel.bufs }

(* A malformed kernel is a driver-API misuse, not a run-time condition the
   caller should retry: surface it before any buffer is placed.  A kernel
   value is immutable, so one that passed once passes again: it is checked,
   and planned, on its first allocation only.  A failing kernel is never
   recorded. *)
let rec plan_for t (kernel : Kernel.Ir.t) = function
  | p :: rest -> if p.kernel == kernel then p else plan_for t kernel rest
  | [] -> (
      match Kernel.Ir.validate kernel with
      | Ok () ->
          let p = plan_of kernel in
          t.plans <- p :: t.plans;
          p
      | Error msg ->
          invalid_arg
            (Printf.sprintf "Driver.allocate: ill-formed kernel %s: %s"
               kernel.Kernel.Ir.name msg))

(* The loops below are top-level functions rather than local closures, so
   a request's allocation and teardown build only the records they return. *)

(* Bind buffers [i..] at consecutive offsets of one arena. *)
let rec bind_arena plan ~arena i offset =
  if i = Array.length plan.decls then []
  else
    { Memops.Layout.decl = plan.decls.(i); base = arena + offset }
    :: bind_arena plan ~arena (i + 1) (offset + plan.padded.(i))

(* Allocate buffers [i..] one by one, freeing what was placed if the heap
   runs out. *)
let rec place_each t plan ~align i =
  if i = Array.length plan.decls then []
  else
    let base =
      Tagmem.Alloc.malloc t.heap ~align:(max align plan.cap_align.(i)) plan.padded.(i)
    in
    match place_each t plan ~align (i + 1) with
    | rest -> { Memops.Layout.decl = plan.decls.(i); base } :: rest
    | exception (Tagmem.Alloc.Out_of_memory _ as e) ->
        Tagmem.Alloc.free t.heap base;
        raise e

(* Allocate each buffer of the kernel.  For the IOPMP the task gets one
   contiguous arena; for everything else, individual allocations padded to
   CHERI-representable shapes so a capability never covers a neighbour.  A
   placement that runs out of heap frees what it placed before it raises. *)
let place_buffers t plan =
  let align = Backend.buffer_alignment t.backend in
  match t.backend with
  | Backend.Iopmp _ ->
      let arena = Tagmem.Alloc.malloc t.heap ~align (Array.fold_left ( + ) 0 plan.padded) in
      bind_arena plan ~arena 0 0
  | Backend.No_protection _ | Backend.Iommu _ | Backend.Snpu _
  | Backend.Capchecker _ | Backend.Capchecker_cached _ ->
      place_each t plan ~align 0

let rec free_each t n = function
  | [] -> n
  | (b : Memops.Layout.binding) :: rest ->
      Tagmem.Alloc.free t.heap b.base;
      free_each t (n + 1) rest

(* Return a task's buffers to the heap; the number of frees. *)
let release_buffers t (bindings : Memops.Layout.binding list) =
  match (t.backend, bindings) with
  | Backend.Iopmp _, [] -> 0
  | Backend.Iopmp _, first :: _ ->
      (* Under the arena policy all bindings share one allocation, at the
         first buffer's base. *)
      Tagmem.Alloc.free t.heap first.base;
      1
  | ( ( Backend.No_protection _ | Backend.Iommu _ | Backend.Snpu _
      | Backend.Capchecker _ | Backend.Capchecker_cached _ ),
      _ ) ->
      free_each t 0 bindings

(* The capability delegated for buffer [obj]: the root narrowed exactly to
   the padded allocation, write permission only for writable buffers. *)
let derive_cap plan obj (b : Memops.Layout.binding) =
  let perms =
    if b.decl.Kernel.Ir.writable then Cheri.Perms.data_rw else Cheri.Perms.data_ro
  in
  Cheri.Cap.restrict Cheri.Cap.root ~base:b.base ~length:plan.padded.(obj) ~perms

let mmio_exn t =
  match t.mmio with
  | Some m -> m
  | None -> invalid_arg "Driver: no CapChecker register window in this system"

exception Refused of string

(* Deliver one capability to the task's capability table.  On the
   CapChecker that is the register sequence of Mmio.install (stage + key +
   command); the cached variant writes its in-memory backing table. *)
let install_cap t ~task_id ~obj cap =
  match t.backend with
  | Backend.Capchecker _ -> (
      match Capchecker.Mmio.install (mmio_exn t) ~task:task_id ~obj cap with
      | Ok () -> ()
      | Error _ -> raise (Refused "CapChecker capability table full (driver would stall)"))
  | Backend.Capchecker_cached checker -> (
      match Capchecker.Cached.install checker ~task:task_id ~obj cap with
      | Ok () -> ()
      | Error msg -> raise (Refused msg))
  | Backend.No_protection _ | Backend.Iopmp _ | Backend.Iommu _ | Backend.Snpu _ ->
      invalid_arg "Driver: no capability table in this system"

(* Derive and install one capability per buffer, object [obj] for the
   [obj]-th binding, in object order; a refused install raises [Refused]. *)
let rec install_caps t plan ~task_id obj = function
  | [] -> []
  | (b : Memops.Layout.binding) :: rest ->
      let cap = derive_cap plan obj b in
      install_cap t ~task_id ~obj cap;
      if Obs.Trace.enabled t.obs then
        Obs.Trace.emit t.obs (Obs.Event.Cap_import { task = task_id; obj });
      let caps = install_caps t plan ~task_id (obj + 1) rest in
      (b.decl.Kernel.Ir.buf_name, cap) :: caps

let install_all t plan ~task_id ~per_cap bindings =
  match install_caps t plan ~task_id 0 bindings with
  | caps -> Ok (Array.length plan.decls * per_cap, caps)
  | exception Refused msg -> Error msg

let program_backend t plan ~task_id ~bindings =
  let p = t.bus in
  match t.backend with
  | Backend.No_protection _ -> Ok (0, [])
  | Backend.Iopmp g ->
      let base = List.fold_left (fun acc b -> min acc b.Memops.Layout.base) max_int bindings in
      let top = base + Array.fold_left ( + ) 0 plan.padded in
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
      (* Deriving the capability costs a few CPU instructions; shipping it
         through the capability interconnect costs the register sequence
         of Mmio.install (stage + key + command). *)
      install_all t plan ~task_id ~per_cap:(3 + Capchecker.Checker.install_cycles p)
        bindings
  | Backend.Capchecker_cached _ ->
      (* Install into the in-memory backing table: the driver writes the
         16-byte entry with a capability store plus a cache invalidate. *)
      install_all t plan ~task_id ~per_cap:(3 + 4 + p.Bus.Params.mmio_write) bindings

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

let allocate t (kernel : Kernel.Ir.t) =
  let plan = plan_for t kernel t.plans in
  if Fault.Injector.alloc_fail t.faults then
    Error "transient allocation fault (injected)"
  else
    let task_id = find_free_instance t in
    if task_id < 0 then Error "all functional units busy"
    else
      match place_buffers t plan with
      | exception Tagmem.Alloc.Out_of_memory n ->
          Error (Printf.sprintf "driver heap exhausted (%d bytes requested)" n)
      | bindings -> (
          match program_backend t plan ~task_id ~bindings with
          | Error _ as e ->
              (* A failed allocation must release everything it placed:
                 leaked buffers and half-installed capabilities would make
                 each retry start from a worse state than the last. *)
              rollback_backend t ~task_id;
              ignore (release_buffers t bindings);
              e
          | Ok (backend_cycles, caps) ->
              let n = Array.length plan.decls in
              let n_mallocs =
                match t.backend with
                | Backend.Iopmp _ -> 1
                | Backend.No_protection _ | Backend.Iommu _ | Backend.Snpu _
                | Backend.Capchecker _ | Backend.Capchecker_cached _ -> n
              in
              (* Pointer and control registers of the accelerator instance:
                 one register per buffer plus task configuration and start. *)
              let ctrl_cycles = (n + 2) * t.bus.Bus.Params.mmio_write in
              t.busy.(task_id) <- true;
              let cycles = (n_mallocs * malloc_cycles) + backend_cycles + ctrl_cycles in
              if Obs.Trace.enabled t.obs then
                Obs.Trace.emit t.obs
                  (Obs.Event.Task_phase
                     { task = task_id; phase = "driver-alloc"; dur = cycles });
              Ok
                {
                  handle =
                    { task_id; layout = Memops.Layout.make bindings;
                      obj_ids = plan.obj_ids; caps };
                  cycles;
                })

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
      if Capchecker.Mmio.exception_pending mmio then begin
        let mine =
          Capchecker.Checker.exception_log_for checker ~task:handle.task_id
        in
        if mine <> [] then begin
          exception_seen := true;
          let seen = !denials in
          denials := seen @ List.filter (fun d -> not (List.mem d seen)) mine
        end
      end;
      let table = Capchecker.Checker.table checker in
      let before = Capchecker.Table.live_count table in
      Capchecker.Mmio.evict_task mmio ~task:handle.task_id;
      let after = Capchecker.Table.live_count table in
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
  cycles := !cycles + (release_buffers t bindings * free_cycles);
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
