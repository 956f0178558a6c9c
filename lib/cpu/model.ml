type isa = Rv64 | Cheri_rv64

type costs = {
  alu : int;
  imul : int;
  idiv : int;
  fadd : int;
  fmul : int;
  fdiv : int;
  fspec : int;
  branch : int;
}

let default_costs =
  { alu = 1; imul = 3; idiv = 12; fadd = 3; fmul = 4; fdiv = 18; fspec = 24; branch = 1 }

type config = {
  isa : isa;
  cache : Cache.config;
  costs : costs;
  cheri_reg_traffic_period : int;
}

let config isa =
  { isa; cache = Cache.default_config; costs = default_costs;
    cheri_reg_traffic_period = 16 }

type result = {
  cycles : int;
  loads : int;
  stores : int;
  cache_hits : int;
  cache_misses : int;
  trap : string option;
}

let cost_of cfg (c : Kernel.Interp.cost) =
  match c with
  | Alu -> cfg.costs.alu
  | Imul -> cfg.costs.imul
  | Idiv -> cfg.costs.idiv
  | Fadd -> cfg.costs.fadd
  | Fmul -> cfg.costs.fmul
  | Fdiv -> cfg.costs.fdiv
  | Fspec -> cfg.costs.fspec
  | Branch -> cfg.costs.branch
  | Sram -> 1

let copy_bytes_per_cycle cfg =
  match cfg.isa with Rv64 -> 8 | Cheri_rv64 -> 16

(* One capability per binding of [bufs]. *)
let derive_caps bufs =
  Array.map
    (fun (b : Memops.Layout.binding) ->
      let decl = b.Memops.Layout.decl in
      let perms =
        if decl.Kernel.Ir.writable then Cheri.Perms.data_rw else Cheri.Perms.data_ro
      in
      match
        Cheri.Cap.set_bounds Cheri.Cap.root ~base:b.Memops.Layout.base
          ~length:(Kernel.Ir.buf_decl_bytes decl)
      with
      | Ok c -> (
          match Cheri.Cap.with_perms c perms with
          | Ok c -> c
          | Error e -> failwith (Cheri.Cap.error_to_string e))
      | Error e -> failwith (Cheri.Cap.error_to_string e))
    bufs

let run ?(obs = Obs.Trace.null) cfg mem kernel layout ?(params = []) () =
  let cache = Cache.create ~obs cfg.cache in
  (* The kernel's ops are counted by class in [ops] and weighted here; every
     other cycle (memory, copies, capability traffic) accrues in [cycles]. *)
  let cycles = ref 0 and ops = Kernel.Interp.counters () in
  let weights = Array.map (cost_of cfg) Kernel.Interp.costs in
  let op_cycles () =
    let sum = ref 0 in
    for c = 0 to Array.length ops - 1 do
      sum := !sum + (ops.(c) * weights.(c))
    done;
    !sum
  in
  (* Keep the trace clock in lock-step with the accounted cycles so cache
     events are stamped where they happen; the sink never feeds back. *)
  let t0 = Obs.Trace.now obs in
  let sync () =
    if Obs.Trace.enabled obs then Obs.Trace.set_now obs (t0 + !cycles + op_cycles ())
  in
  let loads = ref 0 and stores = ref 0 in
  let mem_accesses = ref 0 in
  (* A buffer's handle is its index among the layout's bindings. *)
  let bufs = Array.of_list (Memops.Layout.bindings layout) in
  let caps = match cfg.isa with Cheri_rv64 -> Some (derive_caps bufs) | Rv64 -> None in
  let charge_cheri_traffic () =
    match cfg.isa with
    | Cheri_rv64 ->
        incr mem_accesses;
        if !mem_accesses mod cfg.cheri_reg_traffic_period = 0 then incr cycles
    | Rv64 -> incr mem_accesses
  in
  let cheri_check h ~addr ~size kind =
    match caps with
    | None -> ()
    | Some caps -> (
        match Cheri.Cap.access_ok caps.(h) ~addr ~size kind with
        | Ok () -> ()
        | Error e ->
            raise
              (Kernel.Interp.Aborted
                 (Printf.sprintf "CHERI CPU trap on %s: %s"
                    bufs.(h).decl.Kernel.Ir.buf_name
                    (Cheri.Cap.error_to_string e))))
  in
  (* One element access: checked, counted and charged; its address. *)
  let access h idx kind count =
    let b = bufs.(h) in
    let addr = Memops.Layout.elem_addr b idx in
    cheri_check h ~addr ~size:(Kernel.Ir.elem_bytes b.decl.Kernel.Ir.elem) kind;
    incr count;
    charge_cheri_traffic ();
    sync ();
    cycles := !cycles + Cache.access cache ~addr;
    addr
  in
  let machine =
    {
      Kernel.Interp.buffer =
        (fun name ->
          let b = Memops.Layout.find layout name in
          Option.get (Array.find_index (fun b' -> b' == b) bufs));
      load =
        (fun h ~idx ~dependent:_ ->
          let addr = access h idx Cheri.Cap.Read loads in
          Memops.Layout.read_elem mem bufs.(h).decl.Kernel.Ir.elem ~addr);
      store =
        (fun h ~idx value ->
          let addr = access h idx Cheri.Cap.Write stores in
          Memops.Layout.write_elem mem bufs.(h).decl.Kernel.Ir.elem ~addr value;
          true);
      copy =
        (fun ~dst ~src ~elems ->
          let db = bufs.(dst) in
          let sb = bufs.(src) in
          let width = Kernel.Ir.elem_bytes sb.decl.Kernel.Ir.elem in
          let bytes = elems * width in
          cheri_check src ~addr:sb.base ~size:bytes Cheri.Cap.Read;
          cheri_check dst ~addr:db.base ~size:bytes Cheri.Cap.Write;
          let data = Tagmem.Mem.read_bytes mem ~addr:sb.base ~size:bytes in
          Tagmem.Mem.write_bytes mem ~addr:db.base data;
          let w = copy_bytes_per_cycle cfg in
          cycles := !cycles + ((bytes + w - 1) / w);
          sync ();
          cycles := !cycles + Cache.touch_range cache ~addr:sb.base ~size:bytes;
          cycles := !cycles + Cache.touch_range cache ~addr:db.base ~size:bytes;
          true);
      param =
        (fun name ->
          match List.assoc_opt name params with
          | Some value -> value
          | None -> invalid_arg ("Cpu.Model.run: unknown param " ^ name));
      ops;
    }
  in
  let trap =
    match Kernel.Interp.run kernel machine with
    | () -> None
    | exception Kernel.Interp.Aborted reason -> Some reason
  in
  sync ();
  {
    cycles = !cycles + op_cycles ();
    loads = !loads;
    stores = !stores;
    cache_hits = Cache.hits cache;
    cache_misses = Cache.misses cache;
    trap;
  }

let cap_setup_cycles cfg ~n_bufs =
  match cfg.isa with Rv64 -> 0 | Cheri_rv64 -> 3 * n_bufs

let init_store_cycles cfg ~bytes =
  ignore cfg;
  (* Streaming stores at one word per cycle plus the write-allocate misses. *)
  (bytes / 8) + (bytes / 64 * 4)

let area_luts = function Rv64 -> 40_000 | Cheri_rv64 -> 44_800
