(* The accelerator model: AXI burst formation in traces, the execution
   engine's functional + checking behaviour, and the contention replay. *)

open Kernel.Ir

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let bus = Bus.Params.default
let ap = bus.Bus.Params.addr_phase

(* ---------------- engine ---------------- *)

let make_env () =
  let mem = Tagmem.Mem.create ~size:(1 lsl 20) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 20) - 4096) in
  (mem, heap)

let layout_for heap (kernel : Kernel.Ir.t) =
  Memops.Layout.make
    (List.map
       (fun (decl : buf_decl) ->
         let bytes = buf_decl_bytes decl in
         let align, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
         { Memops.Layout.decl; base = Tagmem.Alloc.malloc heap ~align padded })
       kernel.bufs)

let run_engine ?(guard = Guard.Iface.pass_through)
    ?(addressing = Accel.Engine.Plain) ?(naive = false) mem kernel layout =
  Accel.Engine.run ~mem ~bus ~directives:Hls.Directives.default ~addressing
    ~naive_tag_writes:naive (Accel.Engine.Adj_live guard) Accel.Engine.Interpret
    {
      Accel.Engine.instance = 0;
      kernel;
      layout;
      params = [];
      obj_ids = List.mapi (fun obj (d : buf_decl) -> (d.buf_name, obj)) kernel.bufs;
    }

(* ---------------- burst formation ---------------- *)

(* The engine's one burst former, fed a hand-written access script (script
   replay moves no data and consults [mem] only for bounds), so every gap,
   offset and size is exact.  Returns the DMA trace it formed. *)
let bursts accesses =
  let k =
    { name = "bursts"; bufs = [ buf "a" I64 512 ]; scratch = []; body = [] }
  in
  let mem, heap = make_env () in
  let layout = layout_for heap k in
  let r = Accel.Script.Recorder.create ~extents:[| 4096 |] in
  (* At one op per cycle, each access's gap is the ops since the last. *)
  let ops = ref 0 in
  List.iter
    (fun (gap, kind, dependent, off, size) ->
      ops := !ops + gap;
      Accel.Script.Recorder.access r ~kind ~buf:0 ~off ~size ~dependent ~ops:!ops)
    accesses;
  let script = Accel.Script.Recorder.finalize r ~ipc:1.0 ~total_ops:!ops in
  (Accel.Engine.run ~mem ~bus ~directives:Hls.Directives.default
     ~addressing:Accel.Engine.Plain ~naive_tag_writes:false
     (Accel.Engine.Adj_live Guard.Iface.pass_through)
     (Accel.Engine.Replay script)
     { Accel.Engine.instance = 0; kernel = k; layout; params = [];
       obj_ids = [ ("a", 0) ] })
    .Accel.Engine.trace

let acc ?(gap = 0) ?(kind = Guard.Iface.Read) ?(dependent = false) ~addr ~size () =
  (gap, kind, dependent, addr, size)

let test_burst_merge_contiguous () =
  let t = bursts (List.init 16 (fun j -> acc ~addr:(j * 8) ~size:8 ())) in
  checki "one 16-beat burst" 1 (Accel.Trace.length t);
  checki "beats" 16 (Accel.Trace.total_beats t)

let test_burst_respects_max () =
  let t = bursts (List.init 32 (fun j -> acc ~addr:(j * 8) ~size:8 ())) in
  checki "split at max_burst" 2 (Accel.Trace.length t)

let test_burst_small_elements_share_beats () =
  let t = bursts (List.init 16 (fun j -> acc ~addr:(j * 4) ~size:4 ())) in
  (* 64 bytes on an 8-byte bus = 8 beats. *)
  checki "one burst" 1 (Accel.Trace.length t);
  checki "beats from bytes" 8 (Accel.Trace.total_beats t)

let test_no_merge_on_gap () =
  let t = bursts [ acc ~addr:0 ~size:8 (); acc ~gap:3 ~addr:8 ~size:8 () ] in
  checki "gap breaks burst" 2 (Accel.Trace.length t)

let test_no_merge_on_kind_change () =
  let t =
    bursts [ acc ~addr:0 ~size:8 (); acc ~kind:Guard.Iface.Write ~addr:8 ~size:8 () ]
  in
  checki "kind breaks burst" 2 (Accel.Trace.length t)

let test_no_merge_noncontiguous () =
  let t = bursts [ acc ~addr:0 ~size:8 (); acc ~addr:64 ~size:8 () ] in
  checki "stride breaks burst" 2 (Accel.Trace.length t)

let test_no_merge_dependent () =
  let t = bursts [ acc ~addr:0 ~size:8 (); acc ~dependent:true ~addr:8 ~size:8 () ] in
  checki "dependent load stands alone" 2 (Accel.Trace.length t)

let scale_kernel =
  {
    name = "scale";
    bufs = [ buf ~writable:false "src" I64 32; buf "dst" I64 32 ];
    scratch = [];
    body =
      [ for_ "j" (i 0) (i 32) [ store "dst" (v "j") (ld "src" (v "j") *: i 2) ] ];
  }

let test_engine_functional () =
  let mem, heap = make_env () in
  let layout = layout_for heap scale_kernel in
  let src = Memops.Layout.find layout "src" in
  Memops.Layout.init_buffer mem src (fun idx -> Kernel.Value.VI idx);
  let o = run_engine mem scale_kernel layout in
  checkb "completed" true (o.Accel.Engine.denied = None);
  let dst = Memops.Layout.find layout "dst" in
  checki "value scaled" 22
    (Kernel.Value.as_int
       (Memops.Layout.read_elem mem I64 ~addr:(Memops.Layout.elem_addr dst 11)))

let test_engine_checks_counted () =
  let mem, heap = make_env () in
  let layout = layout_for heap scale_kernel in
  let o = run_engine mem scale_kernel layout in
  checki "one check per access" 64 o.Accel.Engine.checks

let test_engine_denial_aborts () =
  let oob =
    {
      name = "oob";
      bufs = [ buf "a" I64 8 ];
      scratch = [];
      body =
        [
          store "a" (i 0) (i 1);
          store "a" (i 5000) (i 2);  (* way past the buffer *)
          store "a" (i 1) (i 3);     (* never reached *)
        ];
    }
  in
  let mem, heap = make_env () in
  let layout = layout_for heap oob in
  let checker = Capchecker.Checker.create Capchecker.Checker.Fine in
  let binding = Memops.Layout.find layout "a" in
  let cap =
    match Cheri.Cap.set_bounds Cheri.Cap.root ~base:binding.Memops.Layout.base ~length:64 with
    | Ok c -> c
    | Error _ -> assert false
  in
  (match Capchecker.Checker.install checker ~task:0 ~obj:0 cap with
  | Capchecker.Table.Installed _ -> ()
  | Capchecker.Table.Table_full | Capchecker.Table.Rejected_untagged -> assert false);
  let o =
    run_engine
      ~guard:(Capchecker.Checker.as_guard checker)
      ~addressing:Accel.Engine.Fine_ports mem oob layout
  in
  checkb "denied" true (o.Accel.Engine.denied <> None);
  checki "first store landed" 1
    (Kernel.Value.as_int
       (Memops.Layout.read_elem mem I64 ~addr:binding.Memops.Layout.base));
  checki "third store never issued" 0
    (Kernel.Value.as_int
       (Memops.Layout.read_elem mem I64
          ~addr:(Memops.Layout.elem_addr binding 1)));
  checkb "exception flag up" true (Capchecker.Checker.exception_flag checker)

let test_engine_bus_error_out_of_dram () =
  let wild =
    { name = "wild"; bufs = [ buf "a" I64 8 ]; scratch = [];
      body = [ store "a" (i 0) (ld "a" (i 100_000_000)) ] }
  in
  let mem, heap = make_env () in
  let layout = layout_for heap wild in
  let o = run_engine mem wild layout in
  (match o.Accel.Engine.denied with
  | Some d -> Alcotest.(check string) "bus error" "bus" d.Guard.Iface.code
  | None -> Alcotest.fail "escaped physical memory")

let test_engine_tag_discipline () =
  (* Guarded (and even unguarded but non-naive) DMA writes clear tags;
     the naive path preserves them. *)
  let k =
    { name = "w"; bufs = [ buf "a" I64 8 ]; scratch = [];
      body = [ store "a" (i 0) (i 42); store "a" (i 1) (i 43) ] }
  in
  let run ~naive =
    let mem, heap = make_env () in
    let layout = layout_for heap k in
    let binding = Memops.Layout.find layout "a" in
    let cap =
      match Cheri.Cap.set_bounds Cheri.Cap.root ~base:binding.Memops.Layout.base ~length:16 with
      | Ok c -> c
      | Error _ -> assert false
    in
    Tagmem.Mem.store_cap mem ~addr:binding.Memops.Layout.base cap;
    let _ = run_engine ~naive mem k layout in
    Tagmem.Mem.tag_at mem ~addr:binding.Memops.Layout.base
  in
  checkb "clean path clears" false (run ~naive:false);
  checkb "naive path preserves" true (run ~naive:true)

(* ---------------- replay ---------------- *)

type ev = { gap : int; op : Accel.Trace.op; beats : int; latency : int }

let trace_of_events events =
  let t = Accel.Trace.create () in
  List.iter
    (fun e -> Accel.Trace.add t ~gap:e.gap ~op:e.op ~beats:e.beats ~latency:e.latency)
    events;
  t

let ev ?(gap = 0) ?(kind = Guard.Iface.Read) ?(dependent = false) ?(latency = 0)
    beats =
  { gap; op = Accel.Trace.op_of kind ~dependent; beats; latency }

let replay streams =
  Accel.Replay.run (Bus.Fabric.create bus) ~start:0
    (List.mapi
       (fun idx (trace, outstanding) ->
         { Accel.Replay.instance = idx; trace; max_outstanding = outstanding })
       streams)

let test_replay_empty () =
  let r = replay [ (Accel.Trace.create (), 4) ] in
  checki "empty completes at start" 0 r.Accel.Replay.makespan

let test_replay_single_read () =
  let r = replay [ (trace_of_events [ ev 1 ], 4) ] in
  checki "address phase + beat + latency" (ap + 1 + bus.Bus.Params.read_latency)
    r.Accel.Replay.makespan

let test_replay_dependent_chain () =
  let per = ap + 1 + bus.Bus.Params.read_latency in
  let r = replay [ (trace_of_events [ ev ~dependent:true 1; ev ~dependent:true 1 ], 4) ] in
  checki "serial chain" (2 * per) r.Accel.Replay.makespan

let test_replay_streaming_pipelines () =
  let events = List.init 8 (fun _ -> ev 1) in
  let r = replay [ (trace_of_events events, 8) ] in
  (* Each transaction occupies addr_phase + 1 beat; the last read completes
     a memory latency after its data. *)
  checki "pipelined" ((8 * (ap + 1)) + bus.Bus.Params.read_latency)
    r.Accel.Replay.makespan

let test_replay_outstanding_limit_throttles () =
  let events = List.init 8 (fun _ -> ev 1) in
  let deep = (replay [ (trace_of_events events, 8) ]).Accel.Replay.makespan in
  let shallow = (replay [ (trace_of_events events, 1) ]).Accel.Replay.makespan in
  checkb "limit hurts" true (shallow > deep)

let test_replay_guard_latency_exposed_on_dependent () =
  let base = (replay [ (trace_of_events [ ev ~dependent:true 1 ], 4) ]).Accel.Replay.makespan in
  let with_lat =
    (replay [ (trace_of_events [ ev ~dependent:true ~latency:2 1 ], 4) ]).Accel.Replay.makespan
  in
  checki "latency added" (base + 2) with_lat

let test_replay_guard_latency_hidden_on_streaming () =
  let events = List.init 16 (fun _ -> ev 1) in
  let base = (replay [ (trace_of_events events, 16) ]).Accel.Replay.makespan in
  let events_l = List.init 16 (fun _ -> ev ~latency:2 1) in
  let with_lat = (replay [ (trace_of_events events_l, 16) ]).Accel.Replay.makespan in
  checki "only the tail shows" (base + 2) with_lat

let test_replay_contention () =
  let stream () = trace_of_events (List.init 16 (fun _ -> ev 1)) in
  let one = (replay [ (stream (), 16) ]).Accel.Replay.makespan in
  let two = replay [ (stream (), 16); (stream (), 16) ] in
  checkb "two instances take longer" true (two.Accel.Replay.makespan > one);
  checki "beats add up" 32 two.Accel.Replay.bus_beats;
  (* The shared bus serializes beats: makespan at least total beats. *)
  checkb "bus is the floor" true (two.Accel.Replay.makespan >= 32)

let test_replay_posted_writes () =
  let events = List.init 8 (fun _ -> ev ~kind:Guard.Iface.Write 1) in
  let r = replay [ (trace_of_events events, 1) ] in
  (* Writes are posted: even with outstanding=1 they stream back to back. *)
  checki "write stream" (8 * (ap + 1)) r.Accel.Replay.makespan

let prop_replay_makespan_bounds =
  QCheck.Test.make ~count:100 ~name:"makespan >= max(total beats, chain length)"
    QCheck.(small_list (pair bool (int_range 1 4)))
    (fun spec ->
      let events = List.map (fun (dep, beats) -> ev ~dependent:dep beats) spec in
      let total_beats = List.fold_left (fun a e -> a + e.beats) 0 events in
      let r = replay [ (trace_of_events events, 2) ] in
      r.Accel.Replay.makespan >= total_beats
      && r.Accel.Replay.bus_beats = total_beats)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_replay_makespan_bounds ]

(* ---- per-index accessors vs what was added ---- *)

let fields t i =
  { gap = Accel.Trace.gap t i; op = Accel.Trace.op t i;
    beats = Accel.Trace.beats t i; latency = Accel.Trace.latency t i }

let test_trace_access_parity () =
  (* Enough transactions to grow the first chunk to full size and fill
     two more. *)
  let evs =
    List.init 10_000 (fun i ->
        ev ~gap:(i * 7) ~latency:(i mod 3)
          ~kind:(if i mod 4 = 1 then Guard.Iface.Write else Guard.Iface.Read)
          ~dependent:(i mod 3 = 0) (1 + (i mod 16)))
  in
  let t = trace_of_events evs in
  checki "length" (List.length evs) (Accel.Trace.length t);
  checkb "accessors match what was added" true
    (List.for_all Fun.id (List.mapi (fun i e -> fields t i = e) evs));
  checki "total beats"
    (List.fold_left (fun a e -> a + e.beats) 0 evs)
    (Accel.Trace.total_beats t);
  checkb "accessors bounds checked" true
    (try
       ignore (Accel.Trace.gap t (Accel.Trace.length t));
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ("burst merge contiguous", `Quick, test_burst_merge_contiguous);
    ("burst max length", `Quick, test_burst_respects_max);
    ("burst packs small elements", `Quick, test_burst_small_elements_share_beats);
    ("no merge on gap", `Quick, test_no_merge_on_gap);
    ("no merge on kind", `Quick, test_no_merge_on_kind_change);
    ("no merge noncontiguous", `Quick, test_no_merge_noncontiguous);
    ("no merge dependent", `Quick, test_no_merge_dependent);
    ("engine functional", `Quick, test_engine_functional);
    ("engine counts checks", `Quick, test_engine_checks_counted);
    ("engine denial aborts", `Quick, test_engine_denial_aborts);
    ("engine bus error", `Quick, test_engine_bus_error_out_of_dram);
    ("engine tag discipline", `Quick, test_engine_tag_discipline);
    ("replay empty", `Quick, test_replay_empty);
    ("replay single read", `Quick, test_replay_single_read);
    ("replay dependent chain", `Quick, test_replay_dependent_chain);
    ("replay streaming pipelines", `Quick, test_replay_streaming_pipelines);
    ("replay outstanding throttles", `Quick, test_replay_outstanding_limit_throttles);
    ("replay latency on dependent", `Quick, test_replay_guard_latency_exposed_on_dependent);
    ("replay latency hidden streaming", `Quick, test_replay_guard_latency_hidden_on_streaming);
    ("replay contention", `Quick, test_replay_contention);
    ("replay posted writes", `Quick, test_replay_posted_writes);
    ("trace get/iter parity", `Quick, test_trace_access_parity);
  ]
  @ qsuite
