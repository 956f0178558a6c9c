(* One access pipeline, two sources.

   A task's DMA stream comes either from interpreting its kernel or from
   replaying the bench's recorded script.  Both sources resolve each
   transaction to (buffer index, byte offset, size, kind) and hand it to the
   same per-task pipeline: one adjudicator, one burst former, then one
   sink — a DMA trace for the legacy replay fabric, the live event core, or
   the script recorder.
   Nothing in the pipeline knows which source fed it, so a replayed task
   cannot drift from an interpreted one.  The pipeline is a mutable record
   per task and every stage is a direct call on it: nothing is allocated per
   access beyond what the guard and the sinks themselves need. *)

type addressing = Plain | Coarse_ids | Fine_ports

type adjudication =
  | Adj_live of Guard.Iface.t
  | Adj_fastpath of int
  | Adj_elide

type source = Interpret | Replay of Script.t

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

(* Raised to unwind a source on a guard denial; the denial itself is
   reported in the outcome. *)
exception Denied_access of Guard.Iface.denial

type sink =
  | Trace_sink of Trace.t * Obs.Trace.t
      (* the sink's clock advances with the compute-local issue clock *)
  | Event_sink of Flow.t * Ccsim.Sched.t * Bus.Topology.t
  | Record_sink of Script.Recorder.t

type pipe = {
  p_adj : adjudication;
  p_source : int;                 (* interconnect source id *)
  p_bus : Bus.Params.t;
  p_sink : sink;
  p_base : int array;             (* plain physical base per buffer *)
  p_bus_base : int array;         (* bus-visible base (Coarse_ids composes the id) *)
  p_port : int option array;
  mutable p_checks : int;
  mutable p_elided : int;
  mutable p_fastpathed : int;
  mutable p_reads : int;
  mutable p_writes : int;
  mutable p_ops : int;
  mutable p_latency : int;        (* checker latency of the last grant *)
  mutable p_src_phys : int;       (* physical ends of the last copy *)
  mutable p_dst_phys : int;
  (* The burst being formed (AXI burst formation, for both timing sinks):
     back-to-back (gap-0) same-op streaming accesses to contiguous addresses
     coalesce into one burst up to [max_burst] beats, and the merged burst
     keeps the first access's checker latency.  [b_live] says whether it
     holds one. *)
  mutable b_live : bool;
  mutable b_gap : int;
  mutable b_op : Trace.op;
  mutable b_latency : int;
  mutable b_target : int;  (* bank of the first beat; a burst never switches banks *)
  mutable b_end : int;     (* one past the last bus byte merged so far *)
  mutable b_bytes : int;
}

(* Buffers are indexed in the kernel's declaration order, by both sources. *)
let pipe ~bus ~addressing adj sink task =
  let bufs = Array.of_list task.kernel.Kernel.Ir.bufs in
  let binding i = Memops.Layout.find task.layout bufs.(i).Kernel.Ir.buf_name in
  let obj i =
    let name = bufs.(i).Kernel.Ir.buf_name in
    match List.assoc_opt name task.obj_ids with
    | Some obj -> obj
    | None -> invalid_arg ("Accel.Engine: no object id for buffer " ^ name)
  in
  let n = Array.length bufs in
  { p_adj = adj; p_source = task.instance; p_bus = bus; p_sink = sink;
    p_base = Array.init n (fun i -> (binding i).base);
    p_bus_base =
      Array.init n (fun i ->
          match addressing with
          | Plain | Fine_ports -> (binding i).base
          | Coarse_ids ->
              Capchecker.Checker.compose_coarse ~obj:(obj i) (binding i).base);
    p_port =
      Array.init n (fun i ->
          match addressing with
          | Fine_ports -> Some (obj i)
          | Plain | Coarse_ids -> None);
    p_checks = 0; p_elided = 0; p_fastpathed = 0; p_reads = 0; p_writes = 0;
    p_ops = 0; p_latency = 0; p_src_phys = 0; p_dst_phys = 0;
    b_live = false; b_gap = 0; b_op = Trace.Write; b_latency = 0; b_target = 0;
    b_end = 0; b_bytes = 0 }

(* The adjudicator: one guard decision.  Counters move first, so a denial
   unwinds with this access already counted.  Returns the granted physical
   address and leaves the grant's latency in [p_latency].  [Adj_elide] is a
   statically proven task with the modeled checker off (no check, zero
   latency); [Adj_fastpath] a proven task behind a pure constant-latency
   guard, whose grant is a foregone conclusion — still counted as a check,
   since the hardware would have performed it. *)
let adjudicate p ~buf ~off ~size ~kind =
  match p.p_adj with
  | Adj_elide ->
      p.p_elided <- p.p_elided + 1;
      p.p_latency <- 0;
      p.p_base.(buf) + off
  | Adj_fastpath latency ->
      p.p_checks <- p.p_checks + 1;
      p.p_fastpathed <- p.p_fastpathed + 1;
      p.p_latency <- latency;
      p.p_base.(buf) + off
  | Adj_live guard -> (
      p.p_checks <- p.p_checks + 1;
      let req =
        { Guard.Iface.source = p.p_source; port = p.p_port.(buf);
          addr = p.p_bus_base.(buf) + off; size; kind }
      in
      match guard.Guard.Iface.check req with
      | Guard.Iface.Granted { phys; latency } ->
          p.p_latency <- latency;
          phys
      | Guard.Iface.Denied denial -> raise (Denied_access denial))

(* One transaction to the timing sink, after which [then_wait] datapath
   cycles pass before the next transaction issues.  On the event core the
   flow does both in one suspension of the task's process. *)
let emit p ~target ~gap ~op ~beats ~latency ~then_wait =
  match p.p_sink with
  | Trace_sink (trace, obs) ->
      Trace.add trace ~gap ~op ~beats ~latency;
      Obs.Trace.advance obs then_wait
  | Event_sink (flow, _, _) ->
      Flow.issue flow ~target ~gap ~op ~beats ~latency ~then_wait
  | Record_sink _ -> ()

(* [gap] datapath cycles pass before the next transaction issues. *)
let wait p gap =
  match p.p_sink with
  | Trace_sink (_, obs) -> Obs.Trace.advance obs gap
  | Event_sink (_, sched, _) -> Ccsim.Sched.wait sched gap
  | Record_sink _ -> ()

(* Close the pending burst, then let [then_wait] cycles pass. *)
let flush p ~then_wait =
  if p.b_live then begin
    p.b_live <- false;
    emit p ~target:p.b_target ~gap:p.b_gap ~op:p.b_op
      ~beats:(Bus.Params.beats_for p.p_bus p.b_bytes)
      ~latency:p.b_latency ~then_wait
  end
  else wait p then_wait

(* The bank a transaction starting at physical address [phys] goes to. *)
let target p phys =
  match p.p_sink with
  | Event_sink (_, _, ic) -> Bus.Topology.target_for ic ~addr:phys
  | Trace_sink _ | Record_sink _ -> 0

(* One access through the pipeline: adjudicated at its issue point in the
   sink's notion of time, then merged into the pending burst or starting a
   new one.  Returns the physical address the source moves data at. *)
let access p ~gap ~kind ~buf ~off ~size ~dependent =
  let bus = p.p_bus in
  let phys =
    match p.p_sink with
    | Record_sink r ->
        Script.Recorder.access r ~gap ~kind ~buf ~off ~size ~dependent
          ~ops:p.p_ops;
        adjudicate p ~buf ~off ~size ~kind
    | Trace_sink _ | Event_sink _ ->
        let addr = p.p_bus_base.(buf) + off in
        let op = Trace.op_of kind ~dependent in
        if
          p.b_live && gap = 0 && op <> Trace.Dep_read && op = p.b_op
          && addr = p.b_end
          && Bus.Params.beats_for bus (p.b_bytes + size) <= bus.Bus.Params.max_burst
        then begin
          (* Adjudicated like every access (check counts and checker state
             must not depend on burst formation). *)
          let phys = adjudicate p ~buf ~off ~size ~kind in
          p.b_bytes <- p.b_bytes + size;
          p.b_end <- addr + size;
          phys
        end
        else begin
          flush p ~then_wait:gap;
          let phys = adjudicate p ~buf ~off ~size ~kind in
          p.b_live <- true;
          p.b_gap <- gap;
          p.b_op <- op;
          p.b_latency <- p.p_latency;
          p.b_target <- target p phys;
          p.b_end <- addr + size;
          p.b_bytes <- size;
          phys
        end
  in
  (match p.p_sink with
  | Trace_sink (_, obs) -> Obs.Trace.advance obs (Bus.Params.beats_for bus size)
  | Event_sink _ | Record_sink _ -> ());
  (match kind with
  | Guard.Iface.Read -> p.p_reads <- p.p_reads + 1
  | Guard.Iface.Write -> p.p_writes <- p.p_writes + 1);
  phys

(* DMA block move of [bytes] from buffer [src] to buffer [dst]: both ends
   adjudicated once, then max_burst-sized read/write burst pairs back to
   back, each addressed to the bank its first beat lives in.  The physical
   ends are left in [p_src_phys]/[p_dst_phys]. *)
let copy p ~gap ~bytes ~src ~dst =
  let bus = p.p_bus in
  (match p.p_sink with
  | Record_sink r -> Script.Recorder.copy r ~gap ~bytes ~src ~dst ~ops:p.p_ops
  | Trace_sink _ | Event_sink _ -> flush p ~then_wait:gap);
  let src_phys = adjudicate p ~buf:src ~off:0 ~size:bytes ~kind:Guard.Iface.Read in
  let rd_latency = p.p_latency in
  let dst_phys = adjudicate p ~buf:dst ~off:0 ~size:bytes ~kind:Guard.Iface.Write in
  let wr_latency = p.p_latency in
  let total = Bus.Params.beats_for bus bytes in
  (match p.p_sink with
  | Trace_sink (_, obs) -> Obs.Trace.advance obs (2 * total)
  | Event_sink _ | Record_sink _ -> ());
  let beats_left = ref total and gap = ref gap and off = ref 0 in
  while !beats_left > 0 do
    let beats = min !beats_left bus.Bus.Params.max_burst in
    beats_left := !beats_left - beats;
    emit p ~target:(target p (src_phys + !off)) ~gap:!gap ~op:Trace.Stream_read
      ~beats ~latency:rd_latency ~then_wait:0;
    emit p ~target:(target p (dst_phys + !off)) ~gap:0 ~op:Trace.Write ~beats
      ~latency:wr_latency ~then_wait:0;
    gap := 0;
    off := !off + (beats * bus.Bus.Params.beat_bytes)
  done;
  p.p_reads <- p.p_reads + 1;
  p.p_writes <- p.p_writes + 1;
  p.p_src_phys <- src_phys;
  p.p_dst_phys <- dst_phys

(* Source 1: interpret the kernel.  Every buffer access becomes a pipeline
   transaction; granted data moves against physical memory. *)
let interpret p ~mem ~directives ~naive_tag_writes task =
  let bufs = Array.of_list task.kernel.Kernel.Ir.bufs in
  let index = Hashtbl.create (Array.length bufs) in
  Array.iteri (fun i d -> Hashtbl.replace index d.Kernel.Ir.buf_name i) bufs;
  let elem =
    Array.map
      (fun d -> (Memops.Layout.find task.layout d.Kernel.Ir.buf_name).decl.Kernel.Ir.elem)
      bufs
  in
  (* Datapath time between transactions: ops since the last access divided by
     the synthesized ops-per-cycle.  Fractional cycles carry over so that a
     wide datapath really does issue back-to-back (gap-0) accesses that merge
     into AXI bursts, instead of every access rounding up to a 1-cycle gap. *)
  let pending_ops = ref 0 and gap_debt = ref 0.0 in
  let take_gap () =
    gap_debt :=
      !gap_debt +. (float_of_int !pending_ops /. directives.Hls.Directives.compute_ipc);
    pending_ops := 0;
    let gap = int_of_float !gap_debt in
    gap_debt := !gap_debt -. float_of_int gap;
    gap
  in
  let machine =
    {
      Kernel.Interp.load =
        (fun name ~idx ~dependent ->
          let buf = Hashtbl.find index name in
          let width = Kernel.Ir.elem_bytes elem.(buf) in
          let gap = take_gap () in
          let phys =
            access p ~gap ~kind:Guard.Iface.Read ~buf ~off:(idx * width)
              ~size:width ~dependent
          in
          Memops.Layout.read_elem mem elem.(buf) ~addr:phys);
      store =
        (fun name ~idx value ->
          let buf = Hashtbl.find index name in
          let width = Kernel.Ir.elem_bytes elem.(buf) in
          let gap = take_gap () in
          let phys =
            access p ~gap ~kind:Guard.Iface.Write ~buf ~off:(idx * width)
              ~size:width ~dependent:false
          in
          if naive_tag_writes then
            Memops.Layout.write_elem_preserving_tags mem elem.(buf) ~addr:phys value
          else Memops.Layout.write_elem mem elem.(buf) ~addr:phys value);
      copy =
        (fun ~dst ~src ~elems ->
          let src = Hashtbl.find index src and dst = Hashtbl.find index dst in
          let bytes = elems * Kernel.Ir.elem_bytes elem.(src) in
          if bytes > 0 then begin
            copy p ~gap:(take_gap ()) ~bytes ~src ~dst;
            let data = Tagmem.Mem.read_bytes mem ~addr:p.p_src_phys ~size:bytes in
            if naive_tag_writes then
              Tagmem.Mem.unsafe_write_preserving_tags mem ~addr:p.p_dst_phys data
            else Tagmem.Mem.write_bytes mem ~addr:p.p_dst_phys data
          end);
      tick =
        (fun _cost n ->
          pending_ops := !pending_ops + n;
          p.p_ops <- p.p_ops + n);
      param =
        (fun name ->
          match List.assoc_opt name task.params with
          | Some value -> value
          | None -> invalid_arg ("Accel.Engine: unknown param " ^ name));
    }
  in
  Kernel.Interp.run task.kernel machine

(* Source 2: replay a recorded script.  No data moves, but each granted
   address meets the same physical-memory decode the interpreter's data
   movement would, so an escaping access is the same bus error. *)
let replay p s ~mem =
  Obs.Counters.incr Obs.Counters.traces_memoized;
  Script.iter s
    ~access:(fun ~gap ~kind ~buf ~off ~size ~dependent ~ops ->
      p.p_ops <- ops;
      let phys = access p ~gap ~kind ~buf ~off ~size ~dependent in
      Tagmem.Mem.check mem ~addr:phys ~size)
    ~copy:(fun ~gap ~bytes ~src ~dst ~ops ->
      p.p_ops <- ops;
      copy p ~gap ~bytes ~src ~dst;
      Tagmem.Mem.check mem ~addr:p.p_src_phys ~size:bytes;
      Tagmem.Mem.check mem ~addr:p.p_dst_phys ~size:bytes);
  p.p_ops <- Script.total_ops s

(* Run [source] through [p]; a denial or an access escaping physical memory
   (a bus error) truncates the stream and is reported. *)
let feed p source ~mem ~directives ~naive_tag_writes task =
  match
    match source with
    | Interpret -> interpret p ~mem ~directives ~naive_tag_writes task
    | Replay s -> replay p s ~mem
  with
  | () -> None
  | exception Denied_access denial -> Some denial
  | exception Tagmem.Mem.Out_of_range { addr; size } ->
      Some
        { Guard.Iface.code = "bus";
          detail = Printf.sprintf "bus error at 0x%x+%d" addr size }

(* A task retires: emit its elision marker and tally its fast-pathed
   checks. *)
let retire p ~obs task =
  if p.p_elided > 0 && Obs.Trace.enabled obs then
    Obs.Trace.emit obs
      (Obs.Event.Check_elided { task = task.instance; count = p.p_elided });
  if p.p_fastpathed > 0 then
    Obs.Counters.add Obs.Counters.accesses_fast_pathed p.p_fastpathed

let run ?(obs = Obs.Trace.null) ~mem ~bus ~directives ~addressing
    ~naive_tag_writes adj source task =
  let trace = Trace.create () in
  let p = pipe ~bus ~addressing adj (Trace_sink (trace, obs)) task in
  let denied = feed p source ~mem ~directives ~naive_tag_writes task in
  (* A denial truncates the stream, but the burst already formed before the
     denied access still transfers. *)
  flush p ~then_wait:0;
  retire p ~obs task;
  { trace; denied; checks = p.p_checks; elided = p.p_elided;
    reads = p.p_reads; writes = p.p_writes; ops = p.p_ops }

(* Recording pass: the interpreter feeding only the recorder.  Every access
   resolves to its plain address ([Adj_elide]: no guard is consulted, so no
   checker state moves), no DMA trace is built and no simulated time passes.
   Without a guard nothing else would stop an access that leaves its
   buffer, so the recorder does: the pass gives up before moving the data,
   and the caller interprets live, where the real guard adjudicates it. *)
let record ~mem ~directives ~addressing ~naive_tag_writes task =
  let extents =
    Array.of_list
      (List.map
         (fun d ->
           Kernel.Ir.buf_decl_bytes
             (Memops.Layout.find task.layout d.Kernel.Ir.buf_name).decl)
         task.kernel.Kernel.Ir.bufs)
  in
  let r = Script.Recorder.create ~extents in
  (* The recorder times nothing, so any bus will do. *)
  let p = pipe ~bus:Bus.Params.default ~addressing Adj_elide (Record_sink r) task in
  match feed p Interpret ~mem ~directives ~naive_tag_writes task with
  | denied ->
      Script.Recorder.finalize r ~total_ops:p.p_ops ~complete:(denied = None)
  | exception Script.Recorder.Escaped -> None

let run_event ?(obs = Obs.Trace.null) ?error_retry_limit ~sched ~ic ~start ~mem
    ~bus ~directives ~addressing ~naive_tag_writes adj source task ~on_done =
  Ccsim.Sched.spawn sched ~at:start (fun () ->
      let issue =
        Issue.create ?error_retry_limit ~start
          ~max_outstanding:directives.Hls.Directives.max_outstanding ()
      in
      let flow = Flow.create ~sched ~ic ~src:task.instance issue in
      let p = pipe ~bus ~addressing adj (Event_sink (flow, sched, ic)) task in
      let denied =
        match feed p source ~mem ~directives ~naive_tag_writes task with
        | denied ->
            (try flush p ~then_wait:0 with Flow.Failed -> ());
            denied
        | exception Flow.Failed -> None
      in
      retire p ~obs task;
      on_done
        { ev_denied = denied; ev_checks = p.p_checks; ev_elided = p.p_elided;
          ev_reads = p.p_reads; ev_writes = p.p_writes; ev_ops = p.p_ops;
          ev_finish = Issue.finish issue; ev_failed = Issue.failed issue })
