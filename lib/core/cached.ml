type line = { mutable key : int; mutable cap : Cheri.Cap.t }
(* key = task * max_objs + obj; -1 when invalid *)

type t = {
  mode : Checker.mode;
  mem : Tagmem.Mem.t;
  table_base : int;
  max_tasks : int;
  max_objs : int;
  lines : line array;
  obs : Obs.Trace.t;
  faults : Fault.Injector.t;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable flag : bool;
  mutable live : int;
      (* tagged backing-table entries; kept in sync by install/evict_task so
         [entries_in_use] is O(1) instead of scanning max_tasks * max_objs
         granules per call *)
}

let hit_latency = 1
let miss_latency = 1 + 20  (* tag + check after a DRAM fetch of the entry *)

let backing_bytes ~max_tasks ~max_objs = max_tasks * max_objs * Tagmem.Mem.granule

let create ?(cache_entries = 16) ?(obs = Obs.Trace.null)
    ?(faults = Fault.Injector.none) ~mode ~mem ~table_base ~max_tasks ~max_objs
    () =
  assert (cache_entries > 0);
  assert (table_base mod Tagmem.Mem.granule = 0);
  {
    mode; mem; table_base; max_tasks; max_objs;
    lines = Array.init cache_entries (fun _ -> { key = -1; cap = Cheri.Cap.null });
    obs; faults; hit_count = 0; miss_count = 0; flag = false; live = 0;
  }

let key_of t ~task ~obj = (task * t.max_objs) + obj

let entry_addr t key = t.table_base + (key * Tagmem.Mem.granule)

let in_range t ~task ~obj =
  task >= 0 && task < t.max_tasks && obj >= 0 && obj < t.max_objs

let set_of t key = key mod Array.length t.lines

let install t ~task ~obj cap =
  if not (in_range t ~task ~obj) then Error "cached capchecker: key out of range"
  else if Fault.Injector.table_full t.faults then
    (* Transient backing-table write drop: the entry never lands, reported to
       the driver the same way a full table would be. *)
    Error "cached capchecker: table write dropped (injected fault)"
  else begin
    let key = key_of t ~task ~obj in
    let addr = entry_addr t key in
    let was_tagged = Tagmem.Mem.tag_at t.mem ~addr in
    Tagmem.Mem.store_cap t.mem ~addr cap;
    let now_tagged = Tagmem.Mem.tag_at t.mem ~addr in
    t.live <- t.live + Bool.to_int now_tagged - Bool.to_int was_tagged;
    let line = t.lines.(set_of t key) in
    if line.key = key then line.key <- -1;
    if Obs.Trace.enabled t.obs then
      Obs.Trace.emit t.obs (Obs.Event.Table_insert { task; obj; slot = set_of t key });
    Ok ()
  end

let evict_task t ~task =
  if task < 0 || task >= t.max_tasks then 0
  else begin
    let cleared = ref 0 in
    for obj = 0 to t.max_objs - 1 do
      let key = key_of t ~task ~obj in
      let addr = entry_addr t key in
      if Tagmem.Mem.tag_at t.mem ~addr then incr cleared;
      Tagmem.Mem.store_cap t.mem ~addr Cheri.Cap.null;
      let line = t.lines.(set_of t key) in
      if line.key = key then line.key <- -1
    done;
    t.live <- t.live - !cleared;
    if !cleared > 0 && Obs.Trace.enabled t.obs then
      Obs.Trace.emit t.obs (Obs.Event.Table_evict { task; obj = -1; count = !cleared });
    !cleared
  end

let hits t = t.hit_count
let misses t = t.miss_count

let fetch t ~task ~obj =
  let key = key_of t ~task ~obj in
  let line = t.lines.(set_of t key) in
  (* An injected drop loses the cache line before the lookup: the capability
     is re-fetched from the tagged backing table, so protection is unchanged
     and only the miss latency is paid. *)
  if line.key = key && Fault.Injector.cache_drop t.faults then line.key <- -1;
  if line.key = key then begin
    t.hit_count <- t.hit_count + 1;
    (line.cap, hit_latency)
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    if Obs.Trace.enabled t.obs then
      Obs.Trace.emit t.obs (Obs.Event.Check_table_miss { task; obj });
    let cap = Tagmem.Mem.load_cap t.mem ~addr:(entry_addr t key) in
    line.key <- key;
    line.cap <- cap;
    (cap, miss_latency)
  end

let check t (req : Guard.Iface.req) =
  let task = req.source in
  let obj, phys =
    match t.mode with
    | Checker.Fine -> (
        match req.port with Some port -> (port, req.addr) | None -> (-1, req.addr))
    | Checker.Coarse -> Checker.split_coarse req.addr
  in
  let deny detail =
    t.flag <- true;
    if Obs.Trace.enabled t.obs then
      Obs.Trace.emit t.obs (Obs.Event.Check_denial { task; obj; detail });
    Guard.Iface.Denied { code = "capchecker-cached"; detail }
  in
  if not (in_range t ~task ~obj) then deny "no capability slot for this access"
  else
    let cap, latency = fetch t ~task ~obj in
    let kind =
      match req.kind with
      | Guard.Iface.Read -> Cheri.Cap.Read
      | Guard.Iface.Write -> Cheri.Cap.Write
    in
    match Cheri.Cap.access_ok cap ~addr:phys ~size:req.size kind with
    | Ok () ->
        if Obs.Trace.enabled t.obs then
          Obs.Trace.emit t.obs (Obs.Event.Check_ok { task; obj; latency });
        Guard.Iface.Granted { phys; latency }
    | Error e -> deny (Cheri.Cap.error_to_string e)

let area_luts t =
  (* Cache lines cost like table entries, plus the refill state machine. *)
  600 + (130 * Array.length t.lines)

let live_entries t = t.live

let live_entries_scan t =
  let live = ref 0 in
  for key = 0 to (t.max_tasks * t.max_objs) - 1 do
    if Tagmem.Mem.tag_at t.mem ~addr:(entry_addr t key) then incr live
  done;
  !live

let as_guard t =
  {
    Guard.Iface.info =
      { name = "capchecker-cached"; granularity = Guard.Iface.G_object;
        area_luts = area_luts t };
    check = (fun req -> check t req);
    entries_in_use = (fun () -> t.live);
    (* Hit/miss latency (1 vs 21) depends on cache state and every check
       updates it. *)
    const_latency = None;
  }
