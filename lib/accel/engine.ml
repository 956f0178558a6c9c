(* One access pipeline, two sources, one driver.

   A task's DMA stream comes either from interpreting its kernel or from
   replaying the bench's recorded script.  Both sources resolve each
   transaction to (buffer index, byte offset, size, kind) and hand it to the
   same per-task pipeline: one adjudicator, one burst former, then one
   sink — a DMA trace for the legacy replay fabric or the live event core.
   Nothing in the pipeline knows which source fed it, so a replayed task
   cannot drift from an interpreted one.  The pipeline is a mutable record
   per task and every stage is a direct call on it: nothing is allocated per
   access beyond what the guard and the sinks themselves need.  Both
   sources are driven by one resumable cursor (below).  Recording a script
   walks the interpreter alone, outside the pipeline ({!record}). *)

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

(* An access escaping physical memory is the bus error a data movement
   would raise. *)
let bus_error ~addr ~size =
  { Guard.Iface.code = "bus"; detail = Printf.sprintf "bus error at 0x%x+%d" addr size }

(* The event core's wiring for a script cursor.  [k] is the cursor's one
   continuation: a burst goes to the flow and a wait to the scheduler with
   it, and the cursor returns. *)
type wiring = {
  flow : Flow.t;
  sched : Ccsim.Sched.t;
  ic : Bus.Topology.t;
  mutable k : unit -> unit;
}

type sink =
  | Trace_sink of Trace.t * Obs.Trace.t
      (* the sink's clock advances with the compute-local issue clock *)
  | Cursor_sink of wiring  (* the event core *)

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
  (* The copy in progress: its read/write burst pairs still to go, the
     current pair's beats and offset, and whether its write half is next. *)
  mutable cp_left : int;
  mutable cp_beats : int;
  mutable cp_off : int;
  mutable cp_gap : int;
  mutable cp_write : bool;
  mutable cp_rd_latency : int;
  mutable cp_wr_latency : int;
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
    b_end = 0; b_bytes = 0;
    cp_left = 0; cp_beats = 0; cp_off = 0; cp_gap = 0; cp_write = false;
    cp_rd_latency = 0; cp_wr_latency = 0 }

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

(* The stages below that hand work to the timing sink return [true] when
   the cursor must stop until its continuation runs — only the event core
   makes it.  A trace sink never yields. *)

(* One transaction to the timing sink, after which [then_wait] datapath
   cycles pass before the next transaction issues.  On the event core the
   flow does both, continuing the driver once. *)
let emit p ~target ~gap ~op ~beats ~latency ~then_wait =
  match p.p_sink with
  | Trace_sink (trace, obs) ->
      Trace.add trace ~gap ~op ~beats ~latency;
      Obs.Trace.advance obs then_wait;
      false
  | Cursor_sink c ->
      Flow.submit c.flow ~k:c.k ~target ~gap ~op ~beats ~latency ~then_wait;
      true

(* [gap] datapath cycles pass before the next transaction issues. *)
let wait p gap =
  match p.p_sink with
  | Trace_sink (_, obs) ->
      Obs.Trace.advance obs gap;
      false
  | Cursor_sink c ->
      gap > 0
      && begin
           Ccsim.Sched.at c.sched ~cycle:(Ccsim.Sched.now c.sched + gap) c.k;
           true
         end

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
  | Cursor_sink { ic; _ } -> Bus.Topology.target_for ic ~addr:phys
  | Trace_sink _ -> 0

(* The burst former.  An access extends the pending burst when it follows
   it back to back: gap 0, the same streaming op, the next bus address, and
   room left under [max_burst]. *)
let merges p ~gap ~op ~buf ~off ~size =
  let bus = p.p_bus in
  p.b_live && gap = 0 && op <> Trace.Dep_read && op = p.b_op
  && p.p_bus_base.(buf) + off = p.b_end
  && Bus.Params.beats_for bus (p.b_bytes + size) <= bus.Bus.Params.max_burst

(* Merge an access into the pending burst.  It is adjudicated like every
   access (check counts and checker state must not depend on burst
   formation); returns its physical address. *)
let extend p ~buf ~off ~size ~kind =
  let phys = adjudicate p ~buf ~off ~size ~kind in
  p.b_bytes <- p.b_bytes + size;
  p.b_end <- p.p_bus_base.(buf) + off + size;
  phys

(* Adjudicate an access and open a new burst with it, once the previous
   one is flushed; returns its physical address. *)
let start_burst p ~gap ~op ~buf ~off ~size ~kind =
  let phys = adjudicate p ~buf ~off ~size ~kind in
  p.b_live <- true;
  p.b_gap <- gap;
  p.b_op <- op;
  p.b_latency <- p.p_latency;
  p.b_target <- target p phys;
  p.b_end <- p.p_bus_base.(buf) + off + size;
  p.b_bytes <- size;
  phys

(* An access is done: the trace sink's clock moves over its beats. *)
let accessed p ~kind ~size =
  (match p.p_sink with
  | Trace_sink (_, obs) -> Obs.Trace.advance obs (Bus.Params.beats_for p.p_bus size)
  | Cursor_sink _ -> ());
  match kind with
  | Guard.Iface.Read -> p.p_reads <- p.p_reads + 1
  | Guard.Iface.Write -> p.p_writes <- p.p_writes + 1

(* DMA block move of [bytes] from buffer [src] to buffer [dst], once the
   pending burst is flushed: both ends adjudicated once, leaving the
   physical ends in [p_src_phys]/[p_dst_phys], then max_burst-sized
   read/write burst pairs back to back ({!copy_half}), each addressed to
   the bank its first beat lives in. *)
let copy_start p ~gap ~bytes ~src ~dst =
  p.p_src_phys <- adjudicate p ~buf:src ~off:0 ~size:bytes ~kind:Guard.Iface.Read;
  p.cp_rd_latency <- p.p_latency;
  p.p_dst_phys <- adjudicate p ~buf:dst ~off:0 ~size:bytes ~kind:Guard.Iface.Write;
  p.cp_wr_latency <- p.p_latency;
  p.cp_left <- Bus.Params.beats_for p.p_bus bytes;
  (match p.p_sink with
  | Trace_sink (_, obs) -> Obs.Trace.advance obs (2 * p.cp_left)
  | Cursor_sink _ -> ());
  p.cp_off <- 0;
  p.cp_gap <- gap;
  p.cp_write <- false

let copy_moving p = p.cp_left > 0 || p.cp_write

(* Hand the copy's next half burst to the sink: a pair's streaming read,
   then its posted write. *)
let copy_half p =
  let bus = p.p_bus in
  if p.cp_write then begin
    let beats = p.cp_beats and off = p.cp_off in
    p.cp_write <- false;
    p.cp_gap <- 0;
    p.cp_off <- off + (beats * bus.Bus.Params.beat_bytes);
    emit p ~target:(target p (p.p_dst_phys + off)) ~gap:0 ~op:Trace.Write
      ~beats ~latency:p.cp_wr_latency ~then_wait:0
  end
  else begin
    let beats = Int.min p.cp_left bus.Bus.Params.max_burst in
    p.cp_left <- p.cp_left - beats;
    p.cp_beats <- beats;
    p.cp_write <- true;
    emit p ~target:(target p (p.p_src_phys + p.cp_off)) ~gap:p.cp_gap
      ~op:Trace.Stream_read ~beats ~latency:p.cp_rd_latency ~then_wait:0
  end

let copy_done p =
  p.p_reads <- p.p_reads + 1;
  p.p_writes <- p.p_writes + 1

(* ---- the cursor ----

   One driver for both sources: a resumable cursor over the task's
   entries, decoded one at a time into [c_e].  Its whole state is the entry
   index, the phase within that entry, the feed's own position and the
   pipe's burst and copy fields, so it can stop at any point where the sink
   takes a burst or a wait and pick up from there when continued: on the
   event core it is driven from scheduler events, and nothing suspends.

   A script feed decodes its next entry.  A kernel feed resumes the
   interpreter, whose machine answers "pending" at every DMA access and
   leaves the transaction in [c_e]; the ops counted since the last access
   become its gap.  Once the pipeline has taken an entry, an interpreted
   task moves its data and the interpreter's retried call gets the answer,
   while a script meets the same physical-memory decode the data movement
   would, so an escaping access is the same bus error. *)

type interp = {
  i_elem : Kernel.Ir.elem array;  (* element type per buffer *)
  i_ipc : float;  (* synthesized ops per cycle *)
  i_naive : bool;  (* naive_tag_writes *)
  i_ops : int array;  (* ops executed so far, per cost class *)
  i_debt : float ref;  (* fractional datapath cycles carried over *)
  mutable i_value : Kernel.Value.t;  (* a store's value, a done load's answer *)
  mutable i_done : bool;  (* the pending call is through: answer its retry *)
}

type feed = Script_feed of Script.t | Kernel_feed of interp * Kernel.Interp.t

(* The machine's pending transaction, written into [e]; {!fetch} adds its
   datapath gap. *)
let pend it (e : Script.entry) ~copy ~kind ~buf ~off ~size ~dependent =
  e.copy <- copy;
  e.ops <- Kernel.Interp.total it.i_ops;
  e.kind <- kind;
  e.dependent <- dependent;
  e.buf <- buf;
  e.off <- off;
  e.size <- size

(* A retried call finds its access through. *)
let answered it =
  it.i_done
  && begin
       it.i_done <- false;
       true
     end

(* Buffers are named by their declaration index, resolved once. *)
let machine it e task =
  let names = List.map (fun d -> d.Kernel.Ir.buf_name) task.kernel.Kernel.Ir.bufs in
  let access kind buf idx dependent =
    let size = Kernel.Ir.elem_bytes it.i_elem.(buf) in
    pend it e ~copy:false ~kind ~buf ~off:(idx * size) ~size ~dependent
  in
  {
    Kernel.Interp.buffer =
      (fun name ->
        match List.find_index (String.equal name) names with
        | Some buf -> buf
        | None -> invalid_arg ("Accel.Engine: unknown buffer " ^ name));
    load =
      (fun buf ~idx ~dependent ->
        if answered it then it.i_value
        else begin
          access Guard.Iface.Read buf idx dependent;
          Kernel.Interp.pending
        end);
    store =
      (fun buf ~idx value ->
        answered it
        || begin
             it.i_value <- value;
             access Guard.Iface.Write buf idx false;
             false
           end);
    copy =
      (fun ~dst ~src ~elems ->
        let bytes = elems * Kernel.Ir.elem_bytes it.i_elem.(src) in
        answered it || bytes = 0
        || begin
             pend it e ~copy:true ~kind:Guard.Iface.Read ~buf:src ~off:dst
               ~size:bytes ~dependent:false;
             false
           end);
    param =
      (fun name ->
        match List.assoc_opt name task.params with
        | Some value -> value
        | None -> invalid_arg ("Accel.Engine: unknown param " ^ name));
    ops = it.i_ops;
  }

type phase =
  | Entry           (* entry [c_i] is next, or the stream's end *)
  | Access_flushed  (* entry [c_i] is an access opening a burst; the pending
                       one is flushed *)
  | Copy_flushed    (* entry [c_i] is a copy; the pending burst is flushed *)
  | Copy_moving     (* entry [c_i]'s copy is moving its burst pairs *)
  | Ended           (* the stream is over: completed, denied or escaped *)
  | Draining        (* the event driver's last burst is in flight *)

type cursor = {
  c_p : pipe;
  c_feed : feed;
  c_mem : Tagmem.Mem.t;
  c_e : Script.entry;  (* entry [c_i], decoded *)
  mutable c_op : Trace.op;  (* its bus op, for an access *)
  mutable c_i : int;
  mutable c_phase : phase;
  mutable c_denied : Guard.Iface.denial option;
}

let interp ~directives ~naive_tag_writes task =
  let elem d = (Memops.Layout.find task.layout d.Kernel.Ir.buf_name).decl.Kernel.Ir.elem in
  { i_elem = Array.of_list (List.map elem task.kernel.Kernel.Ir.bufs);
    i_ipc = directives.Hls.Directives.compute_ipc; i_naive = naive_tag_writes;
    i_ops = Kernel.Interp.counters (); i_debt = ref 0.0;
    i_value = Kernel.Interp.pending; i_done = false }

let cursor p source ~mem ~directives ~naive_tag_writes task =
  let e = Script.entry () in
  let feed =
    match source with
    | Replay s ->
        Obs.Counters.incr Obs.Counters.traces_memoized;
        Script_feed s
    | Interpret ->
        let it = interp ~directives ~naive_tag_writes task in
        Kernel_feed (it, Kernel.Interp.start task.kernel (machine it e task))
  in
  { c_p = p; c_feed = feed; c_mem = mem; c_e = e; c_op = Trace.Write; c_i = 0;
    c_phase = Entry; c_denied = None }

(* Decode the next entry into [c_e]; [false] at the stream's end.  An
   interpreted transaction's gap ({!Script.gap}) covers its ops since the
   previous fetch, whose count [p_ops] still holds. *)
let[@inline] fetch c =
  let p = c.c_p and e = c.c_e in
  match c.c_feed with
  | Script_feed s when c.c_i < Script.length s ->
      Script.load s c.c_i e;
      p.p_ops <- e.ops;
      true
  | Script_feed s ->
      p.p_ops <- Script.total_ops s;
      false
  | Kernel_feed (it, k) ->
      let more = not (Kernel.Interp.resume k) in
      if more then e.gap <- Script.gap ~debt:it.i_debt ~ipc:it.i_ipc (e.ops - p.p_ops);
      p.p_ops <- Kernel.Interp.total it.i_ops;
      more

(* An interpreted task moves entry [e]'s data, an access at [phys] or a
   copy from [src] to [dst], and the interpreter's retried call gets the
   answer. *)
let[@inline] move it mem (e : Script.entry) ~phys ~src ~dst =
  (if e.copy then begin
     let data = Tagmem.Mem.read_bytes mem ~addr:src ~size:e.size in
     if it.i_naive then Tagmem.Mem.unsafe_write_preserving_tags mem ~addr:dst data
     else Tagmem.Mem.write_bytes mem ~addr:dst data
   end
   else
     let elem = it.i_elem.(e.buf) in
     match e.kind with
     | Guard.Iface.Read -> it.i_value <- Memops.Layout.read_elem mem elem ~addr:phys
     | Guard.Iface.Write when it.i_naive ->
         Memops.Layout.write_elem_preserving_tags mem elem ~addr:phys it.i_value
     | Guard.Iface.Write -> Memops.Layout.write_elem mem elem ~addr:phys it.i_value);
  it.i_done <- true

(* The current entry is through the pipeline, an access granted at [phys]
   or a copy between [p_src_phys] and [p_dst_phys]: an interpreted task
   moves its data, a script meets the decode moving it would. *)
let[@inline] through c phys =
  let p = c.c_p and e = c.c_e and mem = c.c_mem in
  match c.c_feed with
  | Script_feed _ when e.copy ->
      Tagmem.Mem.check mem ~addr:p.p_src_phys ~size:e.size;
      Tagmem.Mem.check mem ~addr:p.p_dst_phys ~size:e.size
  | Script_feed _ -> Tagmem.Mem.check mem ~addr:phys ~size:e.size
  | Kernel_feed (it, _) -> move it mem e ~phys ~src:p.p_src_phys ~dst:p.p_dst_phys

(* Run the cursor until the sink takes its continuation or the stream
   ends.  Every recursive call is a tail call. *)
let rec step c =
  let p = c.c_p and e = c.c_e in
  match c.c_phase with
  | Entry ->
      if not (fetch c) then c.c_phase <- Ended
      else begin
        if e.copy then begin
          c.c_phase <- Copy_flushed;
          if not (flush p ~then_wait:e.gap) then step c
        end
        else begin
          let op = Trace.op_of e.kind ~dependent:e.dependent in
          if merges p ~gap:e.gap ~op ~buf:e.buf ~off:e.off ~size:e.size then begin
            let phys = extend p ~buf:e.buf ~off:e.off ~size:e.size ~kind:e.kind in
            accessed p ~kind:e.kind ~size:e.size;
            through c phys;
            next c
          end
          else begin
            c.c_op <- op;
            c.c_phase <- Access_flushed;
            if not (flush p ~then_wait:e.gap) then step c
          end
        end
      end
  | Access_flushed ->
      let phys =
        start_burst p ~gap:e.gap ~op:c.c_op ~buf:e.buf ~off:e.off ~size:e.size
          ~kind:e.kind
      in
      accessed p ~kind:e.kind ~size:e.size;
      through c phys;
      next c
  | Copy_flushed ->
      copy_start p ~gap:e.gap ~bytes:e.size ~src:e.buf ~dst:e.off;
      c.c_phase <- Copy_moving;
      step c
  | Copy_moving ->
      if copy_moving p then begin
        if not (copy_half p) then step c
      end
      else begin
        copy_done p;
        through c 0;
        next c
      end
  | Ended | Draining -> ()

and next c =
  c.c_i <- c.c_i + 1;
  c.c_phase <- Entry;
  step c

(* [step] with a denial or an access escaping physical memory (a bus
   error) ending the stream; it is reported in [c_denied]. *)
let advance c =
  match step c with
  | () -> ()
  | exception Denied_access denial ->
      c.c_denied <- Some denial;
      c.c_phase <- Ended
  | exception Tagmem.Mem.Out_of_range { addr; size } ->
      c.c_denied <- Some (bus_error ~addr ~size);
      c.c_phase <- Ended

(* Run [source] through [p] on a sink that never yields; a denial or an
   access escaping physical memory truncates the stream and is
   reported. *)
let feed p source ~mem ~directives ~naive_tag_writes task =
  let c = cursor p source ~mem ~directives ~naive_tag_writes task in
  advance c;
  c.c_denied

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
  ignore (flush p ~then_wait:0 : bool);
  retire p ~obs task;
  { trace; denied; checks = p.p_checks; elided = p.p_elided;
    reads = p.p_reads; writes = p.p_writes; ops = p.p_ops }

(* Recording pass: the interpreter walked outside the pipeline.  Each
   transaction goes to the recorder, then moves at its plain address: no
   guard is consulted (so no checker state moves), no burst is formed and
   no simulated time passes; the recorder derives every gap when it
   finalizes.  Without a guard nothing else would stop an access that
   leaves its buffer, so the recorder does: the pass gives up before moving
   the data, and the caller interprets live, where the real guard
   adjudicates it. *)
let record ~mem ~directives ~naive_tag_writes task =
  let bindings =
    Array.of_list
      (List.map
         (fun d -> Memops.Layout.find task.layout d.Kernel.Ir.buf_name)
         task.kernel.Kernel.Ir.bufs)
  in
  let base i = bindings.(i).Memops.Layout.base in
  let r =
    Script.Recorder.create
      ~extents:
        (Array.map (fun b -> Kernel.Ir.buf_decl_bytes b.Memops.Layout.decl) bindings)
  in
  let e = Script.entry () in
  let it = interp ~directives ~naive_tag_writes task in
  let k = Kernel.Interp.start task.kernel (machine it e task) in
  let rec walk () =
    if not (Kernel.Interp.resume k) then begin
      if e.copy then begin
        Script.Recorder.copy r ~bytes:e.size ~src:e.buf ~dst:e.off ~ops:e.ops;
        move it mem e ~phys:0 ~src:(base e.buf) ~dst:(base e.off)
      end
      else begin
        Script.Recorder.access r ~kind:e.kind ~buf:e.buf ~off:e.off ~size:e.size
          ~dependent:e.dependent ~ops:e.ops;
        move it mem e ~phys:(base e.buf + e.off) ~src:0 ~dst:0
      end;
      walk ()
    end
  in
  match walk () with
  | () ->
      Some
        (Script.Recorder.finalize r ~ipc:directives.Hls.Directives.compute_ipc
           ~total_ops:(Kernel.Interp.total it.i_ops))
  | exception (Script.Recorder.Escaped | Tagmem.Mem.Out_of_range _) -> None

let ev_outcome p issue denied =
  { ev_denied = denied; ev_checks = p.p_checks; ev_elided = p.p_elided;
    ev_reads = p.p_reads; ev_writes = p.p_writes; ev_ops = p.p_ops;
    ev_finish = Issue.finish issue; ev_failed = Issue.failed issue }

let run_event ?(obs = Obs.Trace.null) ?error_retry_limit ~sched ~ic ~start ~mem
    ~bus ~directives ~addressing ~naive_tag_writes adj source task ~on_done =
  let issue =
    Issue.create ?error_retry_limit ~start
      ~max_outstanding:directives.Hls.Directives.max_outstanding ()
  in
  let flow = Flow.create ~sched ~ic ~src:task.instance issue in
  let w = { flow; sched; ic; k = ignore } in
  let p = pipe ~bus ~addressing adj (Cursor_sink w) task in
  let c = cursor p source ~mem ~directives ~naive_tag_writes task in
  let complete () =
    retire p ~obs task;
    on_done (ev_outcome p issue c.c_denied)
  in
  (* The cursor's one continuation, run by the flow or the scheduler at
     exactly the event that takes the task on: it stops at a spent retry
     budget, and drains the last burst once the stream ends. *)
  let k () =
    match c.c_phase with
    | Draining -> complete ()
    | Entry | Access_flushed | Copy_flushed | Copy_moving | Ended ->
        if Issue.failed issue then complete ()
        else begin
          advance c;
          match c.c_phase with
          | Ended ->
              c.c_phase <- Draining;
              if not (flush p ~then_wait:0) then complete ()
          | Entry | Access_flushed | Copy_flushed | Copy_moving | Draining -> ()
        end
  in
  w.k <- k;
  Ccsim.Sched.at sched ~cycle:start k
