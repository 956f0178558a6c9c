type addressing = Script.addressing = Plain | Coarse_ids | Fine_ports

(* How adjudication is performed when a static proof covers the task's whole
   footprint and the guard declares a pure constant-latency check path
   (Guard.Iface.const_latency).  [Fp_on l] skips the guard call outright and
   grants at latency [l] — the access still counts as a check, so every
   reported number matches the un-fast-pathed run.  [Fp_check l] calls the
   guard anyway and fails loudly if the grant differs from what the fast path
   would have fabricated: the differential mode's oracle for the purity
   contract. *)
type fastpath = Fp_off | Fp_on of int | Fp_check of int

type task = {
  instance : int;
  kernel : Kernel.Ir.t;
  layout : Memops.Layout.t;
  params : (string * Kernel.Value.t) list;
  obj_ids : (string * int) list;
}

type outcome = {
  trace : Trace.t;
  denied : Guard.Iface.denial option;
  checks : int;
  elided : int;
  reads : int;
  writes : int;
  ops : int;
}

type ev_outcome = {
  ev_denied : Guard.Iface.denial option;
  ev_checks : int;
  ev_elided : int;
  ev_reads : int;
  ev_writes : int;
  ev_ops : int;
  ev_finish : int;
  ev_failed : bool;
}

(* Raised internally to unwind the interpreter on a guard denial; the denial
   itself is reported in the outcome. *)
exception Denied_access of Guard.Iface.denial

(* Functional execution and adjudication are shared between the trace-recording
   and event-driven paths; only the treatment of simulated time differs.  A
   backend receives each transaction after the datapath gap is computed and
   decides when (and against what) adjudication and data movement are timed.
   [access] and [copy] call [adjudicate] exactly once per guard decision and
   return the physical address(es) the data movement must use. *)
type backend = {
  bk_access :
    gap:int ->
    kind:Guard.Iface.kind ->
    addr:int ->
    size:int ->
    dependent:bool ->
    adjudicate:(unit -> int * int) ->
    int;
  bk_copy :
    gap:int ->
    bytes:int ->
    adjudicate_rd:(unit -> int * int) ->
    adjudicate_wr:(unit -> int * int) ->
    int * int;
}

type counters = {
  mutable c_checks : int;
  mutable c_elided : int;
  mutable c_fastpathed : int;
  mutable c_reads : int;
  mutable c_writes : int;
  mutable c_ops : int;
  mutable c_pending_ops : int;
  mutable c_gap_debt : float;
}

let fresh_counters () =
  { c_checks = 0; c_elided = 0; c_fastpathed = 0; c_reads = 0; c_writes = 0;
    c_ops = 0; c_pending_ops = 0; c_gap_debt = 0.0 }

let run_core ~elide ~fastpath ~recorder ~mem ~guard ~directives ~addressing
    ~naive_tag_writes ~counters:c ~backend task =
  let open Hls.Directives in
  let obj_of name =
    match List.assoc_opt name task.obj_ids with
    | Some obj -> obj
    | None -> invalid_arg ("Accel.Engine: no object id for buffer " ^ name)
  in
  let bus_addr (b : Memops.Layout.binding) name ~byte_offset =
    match addressing with
    | Plain | Fine_ports -> b.base + byte_offset
    | Coarse_ids ->
        Capchecker.Checker.compose_coarse ~obj:(obj_of name) b.base + byte_offset
  in
  let port_of name =
    match addressing with
    | Fine_ports -> Some (obj_of name)
    | Plain | Coarse_ids -> None
  in
  (* Datapath time between transactions: ops since the last access divided by
     the synthesized ops-per-cycle.  Fractional cycles carry over so that a
     wide datapath really does issue back-to-back (gap-0) accesses that merge
     into AXI bursts, instead of every access rounding up to a 1-cycle gap. *)
  let take_gap () =
    c.c_gap_debt <-
      c.c_gap_debt +. (float_of_int c.c_pending_ops /. directives.compute_ipc);
    c.c_pending_ops <- 0;
    let gap = int_of_float c.c_gap_debt in
    c.c_gap_debt <- c.c_gap_debt -. float_of_int gap;
    gap
  in
  (* [plain] is the true physical address (base + offset) the access resolves
     to when the guard is provably redundant: with the task's footprint
     statically proven in bounds (see {!Analysis}), the elide path skips the
     adjudication entirely — no check counted, no checker latency. *)
  let adjudicate ~name ~addr ~plain ~size ~kind () =
    if elide then begin
      c.c_elided <- c.c_elided + 1;
      (plain, 0)
    end
    else begin
      c.c_checks <- c.c_checks + 1;
      match fastpath with
      | Fp_on latency ->
          (* Proven footprint + pure guard: the grant is a foregone
             conclusion, so fabricate it.  Still counted as a check — the
             hardware would have performed it; only the simulator skips. *)
          c.c_fastpathed <- c.c_fastpathed + 1;
          (plain, latency)
      | Fp_off | Fp_check _ -> (
          let req =
            { Guard.Iface.source = task.instance; port = port_of name; addr; size; kind }
          in
          match guard.Guard.Iface.check req with
          | Guard.Iface.Granted { phys; latency } ->
              (match fastpath with
              | Fp_check l when phys <> plain || latency <> l ->
                  failwith
                    (Printf.sprintf
                       "Accel.Engine: fast-path divergence on %s: guard \
                        granted (phys=0x%x, latency=%d), fast path would \
                        fabricate (phys=0x%x, latency=%d)"
                       name phys latency plain l)
              | _ -> ());
              (phys, latency)
          | Guard.Iface.Denied denial -> raise (Denied_access denial))
    end
  in
  let machine =
    {
      Kernel.Interp.load =
        (fun name ~idx ~dependent ->
          let b = Memops.Layout.find task.layout name in
          let width = Kernel.Ir.elem_bytes b.decl.Kernel.Ir.elem in
          let byte_offset = idx * width in
          let addr = bus_addr b name ~byte_offset in
          (* The gap is hoisted so the backend's clock sits at the issue point
             of this access when the guard stamps its check events; adjudicate
             never touches the gap state, so timing is backend-independent. *)
          let gap = take_gap () in
          (match recorder with
          | Some r ->
              Script.Recorder.access r ~gap ~kind:Guard.Iface.Read ~name
                ~off:byte_offset ~size:width ~dependent ~ops:c.c_ops
          | None -> ());
          let phys =
            backend.bk_access ~gap ~kind:Guard.Iface.Read ~addr ~size:width
              ~dependent
              ~adjudicate:
                (adjudicate ~name ~addr ~plain:(b.base + byte_offset) ~size:width
                   ~kind:Guard.Iface.Read)
          in
          c.c_reads <- c.c_reads + 1;
          Memops.Layout.read_elem mem b.decl.Kernel.Ir.elem ~addr:phys);
      store =
        (fun name ~idx value ->
          let b = Memops.Layout.find task.layout name in
          let width = Kernel.Ir.elem_bytes b.decl.Kernel.Ir.elem in
          let byte_offset = idx * width in
          let addr = bus_addr b name ~byte_offset in
          let gap = take_gap () in
          (match recorder with
          | Some r ->
              Script.Recorder.access r ~gap ~kind:Guard.Iface.Write ~name
                ~off:byte_offset ~size:width ~dependent:false ~ops:c.c_ops
          | None -> ());
          let phys =
            backend.bk_access ~gap ~kind:Guard.Iface.Write ~addr ~size:width
              ~dependent:false
              ~adjudicate:
                (adjudicate ~name ~addr ~plain:(b.base + byte_offset) ~size:width
                   ~kind:Guard.Iface.Write)
          in
          c.c_writes <- c.c_writes + 1;
          if naive_tag_writes then
            Memops.Layout.write_elem_preserving_tags mem b.decl.Kernel.Ir.elem
              ~addr:phys value
          else Memops.Layout.write_elem mem b.decl.Kernel.Ir.elem ~addr:phys value);
      copy =
        (fun ~dst ~src ~elems ->
          let db = Memops.Layout.find task.layout dst in
          let sb = Memops.Layout.find task.layout src in
          let width = Kernel.Ir.elem_bytes sb.decl.Kernel.Ir.elem in
          let bytes = elems * width in
          if bytes > 0 then begin
            let src_addr = bus_addr sb src ~byte_offset:0 in
            let dst_addr = bus_addr db dst ~byte_offset:0 in
            let gap = take_gap () in
            (match recorder with
            | Some r ->
                Script.Recorder.copy r ~gap ~bytes ~src ~dst ~ops:c.c_ops
            | None -> ());
            let src_phys, dst_phys =
              backend.bk_copy ~gap ~bytes
                ~adjudicate_rd:
                  (adjudicate ~name:src ~addr:src_addr ~plain:sb.base ~size:bytes
                     ~kind:Guard.Iface.Read)
                ~adjudicate_wr:
                  (adjudicate ~name:dst ~addr:dst_addr ~plain:db.base ~size:bytes
                     ~kind:Guard.Iface.Write)
            in
            c.c_reads <- c.c_reads + 1;
            c.c_writes <- c.c_writes + 1;
            let data = Tagmem.Mem.read_bytes mem ~addr:src_phys ~size:bytes in
            if naive_tag_writes then
              Tagmem.Mem.unsafe_write_preserving_tags mem ~addr:dst_phys data
            else Tagmem.Mem.write_bytes mem ~addr:dst_phys data
          end);
      tick =
        (fun _cost n ->
          c.c_pending_ops <- c.c_pending_ops + n;
          c.c_ops <- c.c_ops + n);
      param =
        (fun name ->
          match List.assoc_opt name task.params with
          | Some value -> value
          | None -> invalid_arg ("Accel.Engine: unknown param " ^ name));
    }
  in
  match Kernel.Interp.run task.kernel machine with
  | () -> None
  | exception Denied_access denial -> Some denial
  | exception Tagmem.Mem.Out_of_range { addr; size } ->
      (* An unguarded access escaped physical memory: a bus error. *)
      Some
        { Guard.Iface.code = "bus";
          detail = Printf.sprintf "bus error at 0x%x+%d" addr size }

let run ?(obs = Obs.Trace.null) ?(elide = false) ?(fastpath = Fp_off) ~mem
    ~guard ~bus ~directives ~addressing ~naive_tag_writes task =
  let trace = Trace.create () in
  let backend =
    {
      bk_access =
        (fun ~gap ~kind ~addr ~size ~dependent ~adjudicate ->
          Obs.Trace.advance obs gap;
          let phys, latency = adjudicate () in
          Trace.add_access trace ~bus ~max_burst:bus.Bus.Params.max_burst ~gap
            ~kind ~addr ~size ~dependent ~latency;
          Obs.Trace.advance obs (Bus.Params.beats_for bus size);
          phys);
      bk_copy =
        (fun ~gap ~bytes ~adjudicate_rd ~adjudicate_wr ->
          Obs.Trace.advance obs gap;
          let src_phys, rd_latency = adjudicate_rd () in
          let dst_phys, wr_latency = adjudicate_wr () in
          (* DMA block move: max_burst-sized bursts back to back. *)
          let beats_left = ref (Bus.Params.beats_for bus bytes) in
          Obs.Trace.advance obs (2 * !beats_left);
          let copy_gap = ref gap in
          while !beats_left > 0 do
            let beats = min !beats_left bus.Bus.Params.max_burst in
            beats_left := !beats_left - beats;
            Trace.add trace
              { Trace.gap = !copy_gap;
                kind = Guard.Iface.Read; beats; dependent = false;
                latency = rd_latency };
            Trace.add trace
              { Trace.gap = 0; kind = Guard.Iface.Write; beats; dependent = false;
                latency = wr_latency };
            copy_gap := 0
          done;
          (src_phys, dst_phys));
    }
  in
  let c = fresh_counters () in
  let denied =
    run_core ~elide ~fastpath ~recorder:None ~mem ~guard ~directives
      ~addressing ~naive_tag_writes ~counters:c ~backend task
  in
  if c.c_elided > 0 && Obs.Trace.enabled obs then
    Obs.Trace.emit obs
      (Obs.Event.Check_elided { task = task.instance; count = c.c_elided });
  if c.c_fastpathed > 0 then
    Obs.Counters.add Obs.Counters.accesses_fast_pathed c.c_fastpathed;
  { trace; denied; checks = c.c_checks; elided = c.c_elided; reads = c.c_reads;
    writes = c.c_writes; ops = c.c_ops }

(* Recording pass: one guard-free, trace-free interpretation whose only
   product is the task's access script.  Every access resolves to its plain
   address ([elide]: the guard is never consulted, so no checker state moves)
   and no DMA trace is built.  The script is config-independent, so it can
   then drive every task of every config through {!Script.drive_event}.
   Without a guard nothing else would stop an access that leaves its
   buffer, so the recorder does: the pass gives up before moving the data,
   and the caller interprets live, where the real guard adjudicates it. *)
let record ~mem ~directives ~addressing ~naive_tag_writes task =
  let extent name =
    Kernel.Ir.buf_decl_bytes (Memops.Layout.find task.layout name).decl
  in
  let recorder = Script.Recorder.create ~extent in
  let backend =
    {
      bk_access =
        (fun ~gap:_ ~kind:_ ~addr:_ ~size:_ ~dependent:_ ~adjudicate ->
          fst (adjudicate ()));
      bk_copy =
        (fun ~gap:_ ~bytes:_ ~adjudicate_rd ~adjudicate_wr ->
          let src_phys, _ = adjudicate_rd () in
          let dst_phys, _ = adjudicate_wr () in
          (src_phys, dst_phys));
    }
  in
  let c = fresh_counters () in
  match
    run_core ~elide:true ~fastpath:Fp_off ~recorder:(Some recorder) ~mem
      ~guard:Guard.Iface.pass_through ~directives ~addressing ~naive_tag_writes
      ~counters:c ~backend task
  with
  | denied ->
      Script.Recorder.finalize recorder ~total_ops:c.c_ops
        ~complete:(denied = None)
  | exception Script.Recorder.Escaped -> None

(* State of the burst being formed by the event backend, mirroring the merge
   rule of {!Trace.add_access}: back-to-back (gap-0) same-kind independent
   accesses to contiguous addresses coalesce into one AXI burst, and the
   merged burst keeps the first access's checker latency.  One record per
   task, reused for every burst; [pb_live] says whether it holds one. *)
type pending_burst = {
  mutable pb_live : bool;
  mutable pb_gap : int;
  mutable pb_kind : Guard.Iface.kind;
  mutable pb_dependent : bool;
  mutable pb_latency : int;
  mutable pb_target : int; (* bank of the first beat; a burst never switches banks *)
  mutable pb_end : int;    (* one past the last byte merged so far *)
  mutable pb_bytes : int;
}

let run_event ?(obs = Obs.Trace.null) ?(elide = false) ?(fastpath = Fp_off)
    ?error_retry_limit ~sched ~ic ~start ~mem ~guard ~bus ~directives
    ~addressing ~naive_tag_writes task ~on_done =
  Ccsim.Sched.spawn sched ~at:start (fun () ->
      let flow =
        Flow.create ?error_retry_limit ~sched ~ic ~src:task.instance ~start
          ~max_outstanding:directives.Hls.Directives.max_outstanding ()
      in
      let max_burst = bus.Bus.Params.max_burst in
      let p =
        { pb_live = false; pb_gap = 0; pb_kind = Guard.Iface.Read;
          pb_dependent = false; pb_latency = 0; pb_target = 0; pb_end = 0;
          pb_bytes = 0 }
      in
      let flush () =
        if p.pb_live then begin
          p.pb_live <- false;
          Flow.issue flow ~target:p.pb_target ~gap:p.pb_gap ~kind:p.pb_kind
            ~beats:(Bus.Params.beats_for bus p.pb_bytes)
            ~dependent:p.pb_dependent ~latency:p.pb_latency
        end
      in
      let backend =
        {
          bk_access =
            (fun ~gap ~kind ~addr ~size ~dependent ~adjudicate ->
              if
                p.pb_live && gap = 0 && (not dependent) && addr = p.pb_end
                && p.pb_kind = kind && (not p.pb_dependent)
                && Bus.Params.beats_for bus (p.pb_bytes + size) <= max_burst
              then begin
                (* Adjudicated like every access (check counts and checker
                   state must not depend on burst formation), but the merged
                   burst keeps the first access's latency. *)
                let phys, _latency = adjudicate () in
                p.pb_bytes <- p.pb_bytes + size;
                p.pb_end <- addr + size;
                phys
              end
              else begin
                flush ();
                Ccsim.Sched.wait sched gap;
                let phys, latency = adjudicate () in
                p.pb_live <- true;
                p.pb_gap <- gap;
                p.pb_kind <- kind;
                p.pb_dependent <- dependent;
                p.pb_latency <- latency;
                p.pb_target <- Bus.Topology.target_for ic ~addr:phys;
                p.pb_end <- addr + size;
                p.pb_bytes <- size;
                phys
              end);
          bk_copy =
            (fun ~gap ~bytes ~adjudicate_rd ~adjudicate_wr ->
              flush ();
              Ccsim.Sched.wait sched gap;
              let src_phys, rd_latency = adjudicate_rd () in
              let dst_phys, wr_latency = adjudicate_wr () in
              (* DMA block move: max_burst-sized bursts back to back, each
                 chunk addressed to the bank its first beat lives in. *)
              let beats_left = ref (Bus.Params.beats_for bus bytes) in
              let copy_gap = ref gap in
              let off = ref 0 in
              while !beats_left > 0 do
                let beats = min !beats_left max_burst in
                beats_left := !beats_left - beats;
                Flow.issue flow
                  ~target:(Bus.Topology.target_for ic ~addr:(src_phys + !off))
                  ~gap:!copy_gap ~kind:Guard.Iface.Read ~beats
                  ~dependent:false ~latency:rd_latency;
                Flow.issue flow
                  ~target:(Bus.Topology.target_for ic ~addr:(dst_phys + !off))
                  ~gap:0 ~kind:Guard.Iface.Write ~beats ~dependent:false
                  ~latency:wr_latency;
                copy_gap := 0;
                off := !off + (beats * bus.Bus.Params.beat_bytes)
              done;
              (src_phys, dst_phys));
        }
      in
      let c = fresh_counters () in
      let failed = ref false in
      let denied =
        match
          run_core ~elide ~fastpath ~recorder:None ~mem ~guard ~directives
            ~addressing ~naive_tag_writes ~counters:c ~backend task
        with
        | denied -> (
            (* A denial truncates the stream, but the burst already formed
               before the denied access was committed and still transfers. *)
            match flush () with
            | () -> denied
            | exception Flow.Failed ->
                failed := true;
                denied)
        | exception Flow.Failed ->
            failed := true;
            None
      in
      if c.c_elided > 0 && Obs.Trace.enabled obs then
        Obs.Trace.emit obs
          (Obs.Event.Check_elided { task = task.instance; count = c.c_elided });
      if c.c_fastpathed > 0 then
        Obs.Counters.add Obs.Counters.accesses_fast_pathed c.c_fastpathed;
      on_done
        { ev_denied = denied; ev_checks = c.c_checks; ev_elided = c.c_elided;
          ev_reads = c.c_reads; ev_writes = c.c_writes; ev_ops = c.c_ops;
          ev_finish = Flow.finish flow; ev_failed = !failed })
