(* The proof-driven fast paths: every shortcut must be invisible.  The
   event core's Flow is pinned to the replay scheduler on one stream, and
   the soc-level fast paths result-identical with fast-pathing on vs
   off. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let bus = Bus.Params.default

(* ---------------- flow: one stream, same schedule ---------------- *)

(* Random traces exercise burst/gap/dependence mixes the kernels never
   emit. *)

let arb_event =
  QCheck.Gen.(
    let* gap = oneof [ return 0; int_bound 6; int_bound 60 ] in
    let* beats = int_range 1 (bus.Bus.Params.max_burst + 2) in
    let* k = int_bound 3 in
    let op =
      match k with
      | 0 | 1 -> Accel.Trace.Stream_read  (* bias toward streaming reads *)
      | 2 -> Accel.Trace.Dep_read
      | _ -> Accel.Trace.Write
    in
    let* latency = int_bound 3 in
    return (gap, op, beats, latency))

let arb_trace =
  QCheck.Gen.(
    let* n = int_bound 80 in
    let* evs = list_size (return n) arb_event in
    let t = Accel.Trace.create () in
    List.iter
      (fun (gap, op, beats, latency) -> Accel.Trace.add t ~gap ~op ~beats ~latency)
      evs;
    return t)

let result_eq (a : Accel.Replay.result) (b : Accel.Replay.result) =
  a.Accel.Replay.makespan = b.Accel.Replay.makespan
  && a.Accel.Replay.per_instance = b.Accel.Replay.per_instance
  && a.Accel.Replay.bus_beats = b.Accel.Replay.bus_beats
  && a.Accel.Replay.bus_errors = b.Accel.Replay.bus_errors
  && a.Accel.Replay.failed = b.Accel.Replay.failed

let fabric ?faults () =
  match faults with
  | None -> Bus.Fabric.create bus
  | Some plan -> Bus.Fabric.create ~faults:(Fault.Injector.create plan) bus

(* One stream through the event core's Flow on a fresh [Shared] topology and
   through the replay scheduler on a fresh fabric: the same Issue state
   machine behind both, so the same cycles, beats, errors and failures —
   with and without injected faults (one stream draws in the same order on
   either path). *)
let test_flow_matches_scheduler () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"flow == replay scheduler (one stream)"
       (QCheck.make
          QCheck.Gen.(
            triple arb_trace (int_range 1 4) (opt (int_bound 1000))))
       (fun (trace, max_outstanding, seed) ->
         let faults = Option.map (fun seed -> Fault.Plan.default ~seed) seed in
         let streams =
           [ { Accel.Replay.instance = 0; trace; max_outstanding } ]
         in
         let sched = Ccsim.Sched.create () in
         let ic =
           Bus.Topology.create ?faults:(Option.map Fault.Injector.create faults)
             ~sched ~kind:Bus.Topology.Shared bus
         in
         result_eq
           (Accel.Replay.run_event ~sched ~ic ~start:11 streams)
           (Accel.Replay.run (fabric ?faults ()) ~start:11 streams)))

(* ---------------- soc: fast == interpretive ---------------- *)

let with_mode m f =
  let prev = Soc.Fastpath.current_mode () in
  Soc.Fastpath.set_mode m;
  Fun.protect ~finally:(fun () -> Soc.Fastpath.set_mode prev) f

let soc_result_eq name (a : Soc.Run.result) (b : Soc.Run.result) =
  Alcotest.(check bool) (name ^ ": fast == interpretive") true (a = b)

(* Every kernel, both hetero configs, legacy engine: a cold fast run (records
   the script), a warm fast run at a different task count (derives from it,
   dodging the whole-run memo), and the interpretive ground truth must agree
   on the complete result record. *)
let test_soc_fast_matches_legacy () =
  Soc.Fastpath.clear ();
  List.iter
    (fun bench ->
      List.iter
        (fun config ->
          let go mode tasks =
            with_mode mode (fun () -> Soc.Run.run ~tasks config bench)
          in
          let cold = go Soc.Fastpath.Fast 2 in
          let slow = go Soc.Fastpath.Interpretive 2 in
          soc_result_eq (bench.Machsuite.Bench_def.name ^ " cold") cold slow;
          let warm = go Soc.Fastpath.Fast 3 in
          let slow3 = go Soc.Fastpath.Interpretive 3 in
          soc_result_eq (bench.Machsuite.Bench_def.name ^ " warm") warm slow3)
        [ Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel ])
    (Machsuite.Registry.all)

(* CPU-only runs hit the cached model cycles on the warm run. *)
let test_soc_fast_matches_cpu () =
  Soc.Fastpath.clear ();
  List.iter
    (fun bench ->
      let go mode tasks =
        with_mode mode (fun () -> Soc.Run.run ~tasks Soc.Config.cpu bench)
      in
      let cold = go Soc.Fastpath.Fast 1 in
      soc_result_eq "cpu cold" cold (go Soc.Fastpath.Interpretive 1);
      soc_result_eq "cpu warm" (go Soc.Fastpath.Fast 4)
        (go Soc.Fastpath.Interpretive 4))
    (Machsuite.Registry.all)

(* Event engine on every fabric shape — shared and crossbar with central
   checking, hierarchical with per-source shims — plus mixed compositions.
   Each fabric starts cold (no script: the run records one guard-free, then
   drives every task from it) and is then re-run warm; both must land on the
   interpretive results. *)
let event_fabrics =
  [ (Bus.Topology.Shared, Capchecker.Shim.Central);
    (Bus.Topology.Crossbar { banks = Bus.Topology.default_banks },
     Capchecker.Shim.Central);
    (Bus.Topology.Hierarchical { clusters = Bus.Topology.default_clusters },
     Capchecker.Shim.Distributed) ]

let test_soc_fast_matches_event () =
  let benches =
    List.filteri (fun i _ -> i mod 4 = 0) (Machsuite.Registry.all)
  in
  List.iter
    (fun bench ->
      List.iter
        (fun (topology, checkers) ->
          let go mode tasks =
            with_mode mode (fun () ->
                Soc.Run.run ~tasks ~engine:Soc.Run.Event_driven ~topology
                  ~checkers Soc.Config.ccpu_caccel bench)
          in
          Soc.Fastpath.clear ();
          soc_result_eq "event cold" (go Soc.Fastpath.Fast 2)
            (go Soc.Fastpath.Interpretive 2);
          soc_result_eq "event warm" (go Soc.Fastpath.Fast 3)
            (go Soc.Fastpath.Interpretive 3))
        event_fabrics)
    benches;
  (* Mixed composition with a repeated bench: the repeat reuses the script
     its first occurrence recorded in the same run. *)
  match Machsuite.Registry.all with
  | b0 :: b1 :: _ ->
      let mix = [ b0; b1; b0 ] in
      let go ?topology ?checkers engine mode =
        with_mode mode (fun () ->
            Soc.Run.run_mixed ~engine ?topology ?checkers
              Soc.Config.ccpu_caccel mix)
      in
      let cold_then_warm ?topology ?checkers engine =
        Soc.Fastpath.clear ();
        soc_result_eq "mixed cold"
          (go ?topology ?checkers engine Soc.Fastpath.Fast)
          (go ?topology ?checkers engine Soc.Fastpath.Interpretive);
        soc_result_eq "mixed warm"
          (go ?topology ?checkers engine Soc.Fastpath.Fast)
          (go ?topology ?checkers engine Soc.Fastpath.Interpretive)
      in
      cold_then_warm Soc.Run.Legacy_replay;
      List.iter
        (fun (topology, checkers) ->
          cold_then_warm ~topology ~checkers Soc.Run.Event_driven)
        event_fabrics
  | _ -> Alcotest.fail "registry empty"

(* A kernel whose CapChecker denies mid-stream: the ninth store runs one
   element past [out] and three more iterations never issue.  The guard-free
   recording must give up exactly there (it cannot know the verdict), store
   no script, and leave the run to live interpretation — so fast path on and
   off agree on the whole result record, denial included. *)
let oob_bench =
  let open Kernel.Ir in
  Machsuite.Bench_def.make
    ~kernel:
      { name = "fastpath-oob";
        bufs = [ buf ~writable:false "in" I64 16; buf "out" I64 8 ];
        scratch = [];
        body = [ for_ "j" (i 0) (i 12) [ store "out" (v "j") (ld "in" (v "j")) ] ] }
    ~directives:Hls.Directives.default
    ~init:(fun _ idx -> Kernel.Value.VI idx)
    ~output_bufs:[ "out" ] ~description:"stores past its output buffer" ()

let test_soc_denial_mid_stream () =
  List.iter
    (fun (topology, checkers) ->
      List.iter
        (fun engine ->
          let go mode tasks =
            with_mode mode (fun () ->
                Soc.Run.run ~tasks ~engine ~topology ~checkers
                  Soc.Config.ccpu_caccel oob_bench)
          in
          Soc.Fastpath.clear ();
          let cold = go Soc.Fastpath.Fast 2 in
          soc_result_eq "denied cold" cold (go Soc.Fastpath.Interpretive 2);
          checkb "denied run is incorrect" false cold.Soc.Run.correct;
          checkb "denial reported" true (cold.Soc.Run.denials <> []);
          (* Per task: 8 loads and 8 stores in bounds, the ninth load, and
             the denied ninth store. *)
          checki "checks stop at the denied store" (2 * 18) cold.Soc.Run.checks;
          checkb "no script recorded" true
            (Soc.Fastpath.find_script (Soc.Fastpath.bench_key oob_bench) = None);
          soc_result_eq "denied warm" (go Soc.Fastpath.Fast 3)
            (go Soc.Fastpath.Interpretive 3))
        (if topology = Bus.Topology.Shared then
           [ Soc.Run.Legacy_replay; Soc.Run.Event_driven ]
         else [ Soc.Run.Event_driven ]))
    event_fabrics

(* ---------------- event engine: script cursor == process ---------------- *)

(* On the event engine a script-fed task is a cursor continued from
   scheduler events, and an interpreted one a process that suspends at each
   transaction.  Both must land on the same complete result record, on
   every interconnect column the benchmark measures (shared and crossbar
   with central checking, crossbar and hierarchy with per-source shims).
   sort_merge carries DMA copies, so the cursor's copy phases are covered;
   the fast leg must really have replayed a script. *)
let interconnect_columns =
  [ (Bus.Topology.Shared, Capchecker.Shim.Central);
    (Bus.Topology.Crossbar { banks = 4 }, Capchecker.Shim.Central);
    (Bus.Topology.Crossbar { banks = 4 }, Capchecker.Shim.Distributed);
    (Bus.Topology.Hierarchical { clusters = 4 }, Capchecker.Shim.Distributed) ]

let test_event_cursor_matches_process () =
  Soc.Fastpath.clear ();
  List.iter
    (fun name ->
      let bench = Machsuite.Registry.find name in
      List.iter
        (fun (topology, checkers) ->
          List.iter
            (fun tasks ->
              let go mode =
                with_mode mode (fun () ->
                    Soc.Run.run ~tasks ~engine:Soc.Run.Event_driven ~topology
                      ~checkers Soc.Config.ccpu_caccel bench)
              in
              let fast = go Soc.Fastpath.Fast in
              checkb (name ^ ": script recorded") true
                (Soc.Fastpath.find_script (Soc.Fastpath.bench_key bench) <> None);
              soc_result_eq
                (Printf.sprintf "%s %s/%s x%d" name
                   (Bus.Topology.kind_to_string topology)
                   (Capchecker.Shim.checking_to_string checkers) tasks)
                fast (go Soc.Fastpath.Interpretive))
            [ 4; 8 ])
        interconnect_columns)
    [ "kmp"; "aes"; "spmv_crs"; "sort_merge" ]

(* The same two drivers straight through [Accel.Engine.run_event], where a
   fault plan or a stateful guard can reach a script-fed task: the script
   cursor and the interpreting process must agree outcome for outcome
   and beat for beat. *)
let engine_task ~mem ~heap (bench : Machsuite.Bench_def.t) instance =
  let kernel = bench.kernel in
  let layout =
    Memops.Layout.make
      (List.map
         (fun (decl : Kernel.Ir.buf_decl) ->
           let bytes = Kernel.Ir.buf_decl_bytes decl in
           let align, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
           { Memops.Layout.decl;
             base = Tagmem.Alloc.malloc heap ~align:(max align 16) padded })
         kernel.bufs)
  in
  List.iter
    (fun (b : Memops.Layout.binding) ->
      Memops.Layout.init_buffer mem b (fun idx ->
          bench.init b.decl.Kernel.Ir.buf_name idx))
    (Memops.Layout.bindings layout);
  { Accel.Engine.instance; kernel; layout; params = bench.params;
    obj_ids =
      List.mapi (fun obj (d : Kernel.Ir.buf_decl) -> (d.buf_name, obj)) kernel.bufs }

(* [tasks] instances of [bench] on a fresh [kind] fabric, each on its own
   freshly initialized buffers; returns every outcome and the beats moved. *)
let event_run ?faults ~kind ~tasks ~guard (bench : Machsuite.Bench_def.t) source =
  let mem = Tagmem.Mem.create ~size:(1 lsl 22) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 22) - 4096) in
  let sched = Ccsim.Sched.create () in
  let ic =
    Bus.Topology.create ?faults:(Option.map Fault.Injector.create faults) ~sched
      ~kind bus
  in
  let guard = guard () in
  let outcomes = Array.make tasks None in
  for i = 0 to tasks - 1 do
    Accel.Engine.run_event ~sched ~ic ~start:0 ~mem ~bus
      ~directives:bench.directives ~addressing:Accel.Engine.Plain
      ~naive_tag_writes:false (Accel.Engine.Adj_live guard) source
      (engine_task ~mem ~heap bench i)
      ~on_done:(fun o -> outcomes.(i) <- Some o)
  done;
  Ccsim.Sched.run sched;
  (Array.to_list (Array.map Option.get outcomes), Bus.Topology.total_beats ic)

let record_script (bench : Machsuite.Bench_def.t) =
  let mem = Tagmem.Mem.create ~size:(1 lsl 22) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 22) - 4096) in
  match
    Accel.Engine.record ~mem ~directives:bench.directives
      ~addressing:Accel.Engine.Plain ~naive_tag_writes:false
      (engine_task ~mem ~heap bench 0)
  with
  | Some script -> script
  | None -> Alcotest.fail (bench.name ^ ": no script")

let check_cursor_matches_process ?faults ~kind ~tasks ~guard bench =
  let script = record_script bench in
  let cursor, cursor_beats =
    event_run ?faults ~kind ~tasks ~guard bench (Accel.Engine.Replay script)
  and process, process_beats =
    event_run ?faults ~kind ~tasks ~guard bench Accel.Engine.Interpret
  in
  checkb "outcomes: cursor == process" true (cursor = process);
  checki "beats: cursor == process" process_beats cursor_beats;
  cursor

(* Every bus response is an error: each task spends its retry budget on its
   first transaction ([Flow] reports the failure, [ev_failed]); a rarer
   error rate fails some tasks mid-stream, after real traffic. *)
let test_event_cursor_retry_budget () =
  let bench = Machsuite.Registry.find "sort_merge" in
  List.iter
    (fun (kind, bus_error_prob) ->
      let faults = { Fault.Plan.none with seed = 5; bus_error_prob } in
      let outcomes =
        check_cursor_matches_process ~faults ~kind ~tasks:4
          ~guard:(fun () -> Guard.Iface.pass_through) bench
      in
      checkb "some task exhausted its retry budget" true
        (List.exists (fun o -> o.Accel.Engine.ev_failed) outcomes))
    [ (Bus.Topology.Shared, 1.0);
      (Bus.Topology.Crossbar { banks = 4 }, 0.3);
      (Bus.Topology.Hierarchical { clusters = 4 }, 0.3) ]

(* A guard that denies its 500th check, whichever task issues it: the
   stream stops mid-burst there, the burst already formed still drains, and
   the cursor must stop at exactly the access the process does. *)
let test_event_cursor_denial () =
  let counting () =
    let n = ref 0 in
    { Guard.Iface.pass_through with
      check =
        (fun req ->
          incr n;
          if !n = 500 then Guard.Iface.Denied { code = "test"; detail = "500th" }
          else Guard.Iface.pass_through.check req) }
  in
  List.iter
    (fun (name, kind) ->
      let outcomes =
        check_cursor_matches_process ~kind ~tasks:4 ~guard:counting
          (Machsuite.Registry.find name)
      in
      checki (name ^ ": one task denied") 1
        (List.length
           (List.filter (fun o -> o.Accel.Engine.ev_denied <> None) outcomes)))
    [ ("kmp", Bus.Topology.Shared);
      ("sort_merge", Bus.Topology.Crossbar { banks = 4 }) ]

(* Elision interplay: fast paths under Elide_on and Elide_differential must
   not disturb verdicts or counts. *)
let test_soc_fast_matches_elide () =
  Soc.Fastpath.clear ();
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  List.iter
    (fun elide ->
      let go mode =
        with_mode mode (fun () ->
            Soc.Run.run ~tasks:2 ~elide Soc.Config.ccpu_caccel bench)
      in
      soc_result_eq "elide cold" (go Soc.Fastpath.Fast)
        (go Soc.Fastpath.Interpretive);
      soc_result_eq "elide warm" (go Soc.Fastpath.Fast)
        (go Soc.Fastpath.Interpretive))
    [ Soc.Run.Elide_on; Soc.Run.Elide_differential ]

(* Faulted runs must never consult a cache or skip an adjudication: results
   are mode-independent and the memo counters stay flat. *)
let test_soc_faulted_never_fast_pathed () =
  Soc.Fastpath.clear ();
  let bench = List.hd (Machsuite.Registry.all) in
  let faults = Fault.Plan.default ~seed:11 in
  (* Warm every cache first so a faulted run has hits available to (wrongly)
     take. *)
  let _ = Soc.Run.run ~tasks:4 Soc.Config.ccpu_caccel bench in
  let go mode =
    with_mode mode (fun () ->
        Soc.Run.run ~tasks:4 ~faults Soc.Config.ccpu_caccel bench)
  in
  Obs.Counters.reset ();
  let fast = go Soc.Fastpath.Fast in
  checki "no traces memoized under faults" 0
    (Obs.Counters.get Obs.Counters.traces_memoized);
  checki "no runs memoized under faults" 0
    (Obs.Counters.get Obs.Counters.runs_memoized);
  checki "no accesses fast-pathed under faults" 0
    (Obs.Counters.get Obs.Counters.accesses_fast_pathed);
  soc_result_eq "faulted" fast (go Soc.Fastpath.Interpretive);
  (* Repeating the same faulted run must stay deterministic, not memoized. *)
  soc_result_eq "faulted repeat" fast (go Soc.Fastpath.Fast)

(* Differential mode recomputes both legs and faults on divergence; passing
   is the assertion. *)
let test_soc_differential_mode () =
  Soc.Fastpath.clear ();
  let benches =
    List.filteri (fun i _ -> i mod 5 = 0) (Machsuite.Registry.all)
  in
  with_mode Soc.Fastpath.Differential (fun () ->
      List.iter
        (fun bench ->
          List.iter
            (fun engine ->
              let r =
                Soc.Run.run ~tasks:2 ~engine Soc.Config.ccpu_caccel bench
              in
              checkb "differential correct" true r.Soc.Run.correct;
              (* Second call re-compares against a memoized fast leg. *)
              let r2 =
                Soc.Run.run ~tasks:2 ~engine Soc.Config.ccpu_caccel bench
              in
              checkb "differential repeat" true (r = r2))
            [ Soc.Run.Legacy_replay; Soc.Run.Event_driven ])
        benches)

(* The speedup counters actually move: repeated fast runs memoize whole
   results, derived traces and fast-pathed accesses. *)
let test_soc_counters_move () =
  Soc.Fastpath.clear ();
  Obs.Counters.reset ();
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  checkb "gemm proven in bounds" true (Soc.Fastpath.proven bench);
  let _ = Soc.Run.run ~tasks:2 Soc.Config.ccpu_caccel bench in
  checkb "fast-pathed accesses counted" true
    (Obs.Counters.get Obs.Counters.accesses_fast_pathed > 0);
  let _ = Soc.Run.run ~tasks:3 Soc.Config.ccpu_caccel bench in
  checkb "derived trace counted" true
    (Obs.Counters.get Obs.Counters.traces_memoized > 0);
  let _ = Soc.Run.run ~tasks:3 Soc.Config.ccpu_caccel bench in
  checkb "whole run memoized" true
    (Obs.Counters.get Obs.Counters.runs_memoized > 0)

(* Fast-pathing happens only on a script-replayed stream: [Soc.Run] records
   a script for every fast group and interprets live only when recording
   stopped early.  That is sound because a proven bench never stops early:
   each one records a complete script under every addressing mode. *)
let test_proven_benches_record () =
  let modes =
    List.map
      (fun config ->
        let sys = Soc.System.create config in
        (sys, Driver.Backend.addressing (Option.get sys.Soc.System.backend)))
      [ Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel_coarse;
        Soc.Config.ccpu_caccel ]
  in
  checkb "every addressing mode covered" true
    (List.sort compare (List.map snd modes)
     = Accel.Engine.[ Plain; Coarse_ids; Fine_ports ]);
  let proven = List.filter Soc.Fastpath.proven Machsuite.Registry.all in
  checkb "some benches are proven" true (proven <> []);
  List.iter
    (fun (bench : Machsuite.Bench_def.t) ->
      List.iter
        (fun (sys, addressing) ->
          let driver = Option.get sys.Soc.System.driver in
          let a = Result.get_ok (Driver.allocate driver bench.kernel) in
          let h = a.Driver.handle in
          List.iter
            (fun (b : Memops.Layout.binding) ->
              Memops.Layout.init_buffer sys.Soc.System.mem b (fun idx ->
                  bench.init b.decl.Kernel.Ir.buf_name idx))
            (Memops.Layout.bindings h.Driver.layout);
          let script =
            Accel.Engine.record ~mem:sys.Soc.System.mem
              ~directives:bench.directives ~addressing
              ~naive_tag_writes:(Soc.System.naive_tag_writes sys)
              { Accel.Engine.instance = h.Driver.task_id; kernel = bench.kernel;
                layout = h.Driver.layout; params = bench.params;
                obj_ids = h.Driver.obj_ids }
          in
          checkb (bench.name ^ ": complete script") true (script <> None);
          ignore (Driver.deallocate driver h ~denied:None))
        modes)
    proven

let suite =
  [
    Alcotest.test_case "flow == replay scheduler (one stream)" `Quick
      test_flow_matches_scheduler;
    Alcotest.test_case "soc: fast == interpretive (legacy, all kernels)" `Quick
      test_soc_fast_matches_legacy;
    Alcotest.test_case "soc: fast == interpretive (cpu-only)" `Quick
      test_soc_fast_matches_cpu;
    Alcotest.test_case "soc: fast == interpretive (event, mixed)" `Quick
      test_soc_fast_matches_event;
    Alcotest.test_case "soc: denial mid-stream, fast == interpretive" `Quick
      test_soc_denial_mid_stream;
    Alcotest.test_case "event: script cursor == process (interconnect columns)"
      `Quick test_event_cursor_matches_process;
    Alcotest.test_case "event: script cursor == process (retry budget spent)"
      `Quick test_event_cursor_retry_budget;
    Alcotest.test_case "event: script cursor == process (denial mid-stream)"
      `Quick test_event_cursor_denial;
    Alcotest.test_case "soc: fast == interpretive (elision modes)" `Quick
      test_soc_fast_matches_elide;
    Alcotest.test_case "soc: faulted runs never fast-pathed" `Quick
      test_soc_faulted_never_fast_pathed;
    Alcotest.test_case "soc: differential mode passes" `Quick
      test_soc_differential_mode;
    Alcotest.test_case "soc: speedup counters move" `Quick
      test_soc_counters_move;
    Alcotest.test_case "soc: proven benches record complete scripts" `Quick
      test_proven_benches_record;
  ]
