type mode = Fine | Coarse

(* Table mutations, broadcast to registered listeners so replicas of table
   state held elsewhere (the per-source shims of {!Shim}) can invalidate.
   Matches the hardware's snoop/invalidate channel on the refill network. *)
type update =
  | Up_install of { task : int; obj : int }
  | Up_evict of { task : int; obj : int }
  | Up_evict_task of { task : int }

(* Why an access was denied.  Kept structured so the hot path records a
   denial without formatting it: {!render} builds the detail text only when
   someone reads it (the [Denied] outcome of {!check}, the exception log, a
   recording sink). *)
type reason =
  | No_provenance
  | No_capability
  | Violation of Cheri.Cap.error * Guard.Iface.req

type denial = { task : int; obj : int; reason : reason }

type t = {
  mode : mode;
  table : Table.t;
  obs : Obs.Trace.t;
  faults : Fault.Injector.t;
  mutable flag : bool;
  mutable listeners : (update -> unit) list;
  log : denial Obs.Ring.t;
      (* bounded denial log, oldest first via Ring.to_list; hardware keeps
         only the flag and per-entry bits — and a denial storm must not grow
         simulator memory either (the full stream lives in the trace) *)
  mutable latency : int;  (* latency of the last granted verdict *)
  mutable last : denial;  (* the last denial recorded *)
}

let default_log_capacity = 256

let no_denial = { task = -1; obj = -1; reason = No_capability }

let create ?(entries = 256) ?(obs = Obs.Trace.null) ?(log_capacity = default_log_capacity)
    ?(faults = Fault.Injector.none) mode =
  {
    mode;
    table = Table.create ~entries;
    obs;
    faults;
    flag = false;
    listeners = [];
    log = Obs.Ring.create ~capacity:log_capacity;
    latency = 0;
    last = no_denial;
  }

let on_update t f = t.listeners <- t.listeners @ [ f ]

(* Callers test [listeners] first, so a checker nobody replicates builds no
   update record per table change. *)
let notify t u = List.iter (fun f -> f u) t.listeners

let mode t = t.mode
let table t = t.table
let obs t = t.obs

let check_latency = 1

let obj_id_bits = 8

(* The paper's Coarse encoding packs the object id into the top [obj_id_bits]
   of the 64-bit bus address, above the 56-bit physical space.  The
   simulator's bus word is a 63-bit OCaml int — one bit short of that layout:
   packing at bit 56 silently dropped the id's top bit, aliasing object
   [128+k] onto object [k].  The model therefore reserves the top
   [obj_id_bits] of the host word's non-negative range instead, leaving a
   54-bit coarse physical window (bits 0-53) that still covers every address
   the simulated SoC can allocate, and keeps every composed bus word
   non-negative. *)
let coarse_shift = Sys.int_size - 1 - obj_id_bits
let coarse_window = 1 lsl coarse_shift

let compose_coarse ~obj phys =
  (* Truncating silently would alias a foreign object id or address — a
     capability-confusion bug in the trusted driver.  Reject loudly. *)
  if not (obj >= 0 && obj < 1 lsl obj_id_bits) then
    invalid_arg
      (Printf.sprintf "Checker.compose_coarse: object id %d outside [0, %d)"
         obj (1 lsl obj_id_bits));
  if not (phys >= 0 && phys < coarse_window) then
    invalid_arg
      (Printf.sprintf
         "Checker.compose_coarse: physical address 0x%x outside the %d-bit \
          coarse window"
         phys coarse_shift);
  (obj lsl coarse_shift) lor phys

let split_coarse addr =
  ( (addr lsr coarse_shift) land ((1 lsl obj_id_bits) - 1),
    addr land (coarse_window - 1) )

let render_detail { task; obj; reason } =
  match reason with
  | No_provenance -> "fine-mode request without object provenance"
  | No_capability -> Printf.sprintf "no capability for task %d object %d" task obj
  | Violation (e, req) ->
      Printf.sprintf "task %d object %d: %s (%s)" task obj
        (Cheri.Cap.error_to_string e)
        (Guard.Iface.req_to_string req)

let render d = { Guard.Iface.code = "capchecker"; detail = render_detail d }

let record_denial t ~task ~obj reason =
  let d = { task; obj; reason } in
  t.flag <- true;
  Table.mark_exception t.table ~task ~obj;
  Obs.Ring.push t.log d;
  t.last <- d;
  if Obs.Trace.enabled t.obs then
    Obs.Trace.emit t.obs
      (Obs.Event.Check_denial { task; obj; detail = render_detail d });
  -1

let resolve t (req : Guard.Iface.req) =
  match t.mode with
  | Fine -> (
      match req.port with
      | Some port -> (port, req.addr)
      | None -> (-1, req.addr))
  | Coarse -> split_coarse req.addr

(* The shared tail of adjudication: evaluate the fetched entry against the
   request.  [latency] varies with where the entry was found (central table,
   shim hit, shim miss + refill) but the verdict never does — which is what
   the cross-topology verdict-parity tests pin. *)
let adjudicate_entry t (req : Guard.Iface.req) ~task ~obj ~phys ~latency
    (entry : Table.entry) =
  let kind =
    match req.kind with
    | Guard.Iface.Read -> Cheri.Cap.Read
    | Guard.Iface.Write -> Cheri.Cap.Write
  in
  match Cheri.Cap.access_ok entry.Table.cap ~addr:phys ~size:req.size kind with
  | Ok () ->
      (* Guarded so a null sink costs no event record per granted check. *)
      if Obs.Trace.enabled t.obs then
        Obs.Trace.emit t.obs (Obs.Event.Check_ok { task; obj; latency });
      t.latency <- latency;
      phys
  | Error e -> record_denial t ~task ~obj (Violation (e, req))

let verdict t (req : Guard.Iface.req) =
  let task = req.source in
  let obj, phys = resolve t req in
  if obj < 0 then record_denial t ~task ~obj:0 No_provenance
  else
    match Table.lookup t.table ~task ~obj with
    | None -> record_denial t ~task ~obj No_capability
    | Some entry ->
        adjudicate_entry t req ~task ~obj ~phys ~latency:check_latency entry

let last_latency t = t.latency
let last_denial t = t.last

let check t req =
  let phys = verdict t req in
  if phys >= 0 then Guard.Iface.Granted { phys; latency = t.latency }
  else Guard.Iface.Denied (render t.last)

let install t ~task ~obj cap =
  (* An injected table-full models transient table pressure: the install is
     refused exactly as if the table had no free slot, and the driver's
     normal stall/retry handling takes over. *)
  if Fault.Injector.table_full t.faults then Table.Table_full
  else
  let result = Table.install t.table ~task ~obj cap in
  (match result with
  | Table.Installed slot ->
      if Obs.Trace.enabled t.obs then
        Obs.Trace.emit t.obs (Obs.Event.Table_insert { task; obj; slot });
      if t.listeners <> [] then notify t (Up_install { task; obj })
  | Table.Table_full | Table.Rejected_untagged -> ());
  result

let evict t ~task ~obj =
  let evicted = Table.evict t.table ~task ~obj in
  if evicted then begin
    if Obs.Trace.enabled t.obs then
      Obs.Trace.emit t.obs (Obs.Event.Table_evict { task; obj; count = 1 });
    if t.listeners <> [] then notify t (Up_evict { task; obj })
  end;
  evicted

let evict_task t ~task =
  let count = Table.evict_task t.table ~task in
  if count > 0 then begin
    if Obs.Trace.enabled t.obs then
      Obs.Trace.emit t.obs (Obs.Event.Table_evict { task; obj = -1; count });
    if t.listeners <> [] then notify t (Up_evict_task { task })
  end;
  count

let table_stats t = Table.stats t.table

let observe_table t ~into =
  let s = Table.stats t.table in
  let set name v =
    (* [add] on a fresh metrics store; callers merging several checkers into
       one store get the sum, which is what a fleet-wide gauge means here. *)
    Obs.Metrics.add into name v
  in
  set "checker.table_installs" s.Table.st_installs;
  set "checker.table_evictions" s.Table.st_evictions;
  set "checker.table_conflicts" s.Table.st_conflicts;
  set "checker.table_rejected" s.Table.st_rejected;
  set "checker.table_live" s.Table.st_live;
  set "checker.table_peak" s.Table.st_peak

let exception_flag t = t.flag
let clear_exception_flag t = t.flag <- false

let exception_log t = List.map render (Obs.Ring.to_list t.log)

let exception_log_for t ~task =
  List.filter_map
    (fun d -> if d.task = task then Some (render d) else None)
    (Obs.Ring.to_list t.log)

let dropped_denials t = Obs.Ring.dropped t.log
let log_capacity t = Obs.Ring.capacity t.log

let install_cycles (p : Bus.Params.t) = 3 * p.mmio_write
let evict_cycles (p : Bus.Params.t) = p.mmio_write
let poll_cycles (p : Bus.Params.t) = p.mmio_read

let area_luts t = Area.luts ~entries:(Table.capacity t.table)

let as_guard t =
  {
    Guard.Iface.info =
      {
        name = (match t.mode with Fine -> "capchecker-fine" | Coarse -> "capchecker-coarse");
        granularity =
          (match t.mode with Fine -> Guard.Iface.G_object | Coarse -> Guard.Iface.G_task);
        area_luts = area_luts t;
      };
    check = (fun req -> check t req);
    entries_in_use = (fun () -> Table.live_count t.table);
    (* A granted check is a pure table lookup against driver-programmed
       state at the fixed pipeline latency; only denials mutate (exception
       flag, denial log), and those are exactly the accesses the proof-
       driven fast path can never take. *)
    const_latency = Some check_latency;
  }
