(* Deterministic discrete-event scheduler, and the differential contract
   between the event-driven engine and the legacy trace-then-replay oracle. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---- scheduler core ---- *)

let test_ordering () =
  let s = Ccsim.Sched.create () in
  let log = ref [] in
  let mark tag () = log := tag :: !log in
  Ccsim.Sched.at s ~cycle:5 (mark "c5");
  Ccsim.Sched.at s ~cycle:1 (mark "c1");
  Ccsim.Sched.at s ~cycle:3 (mark "c3");
  Ccsim.Sched.run s;
  Alcotest.(check (list string)) "cycle order" [ "c1"; "c3"; "c5" ] (List.rev !log);
  checki "clock at last event" 5 (Ccsim.Sched.now s)

let test_stable_ties () =
  let s = Ccsim.Sched.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Ccsim.Sched.at s ~cycle:2 (fun () -> log := i :: !log)
  done;
  Ccsim.Sched.run s;
  Alcotest.(check (list int))
    "same-cycle events run in scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_rank_orders_within_cycle () =
  let s = Ccsim.Sched.create () in
  let log = ref [] in
  Ccsim.Sched.at_rank s ~cycle:4 ~rank:Ccsim.Sched.rank_arbitrate (fun () ->
      log := "arbitrate" :: !log);
  Ccsim.Sched.at s ~cycle:4 (fun () -> log := "request" :: !log);
  Ccsim.Sched.run s;
  Alcotest.(check (list string))
    "arbitration after same-cycle requests despite insertion order"
    [ "request"; "arbitrate" ]
    (List.rev !log)

let test_past_cycle_clamped () =
  let s = Ccsim.Sched.create () in
  let ran_at = ref (-1) in
  Ccsim.Sched.at s ~cycle:10 (fun () ->
      Ccsim.Sched.at s ~cycle:3 (fun () -> ran_at := Ccsim.Sched.now s));
  Ccsim.Sched.run s;
  checki "event for a past cycle runs now, not backwards" 10 !ran_at

let test_on_advance_monotone () =
  let cycles = ref [] in
  let s = Ccsim.Sched.create ~on_advance:(fun c -> cycles := c :: !cycles) () in
  Ccsim.Sched.at s ~cycle:2 ignore;
  Ccsim.Sched.at s ~cycle:2 ignore;
  Ccsim.Sched.at s ~cycle:7 ignore;
  Ccsim.Sched.run s;
  Alcotest.(check (list int))
    "one callback per distinct cycle, increasing" [ 2; 7 ] (List.rev !cycles)

let test_process_wait () =
  let s = Ccsim.Sched.create () in
  let log = ref [] in
  Ccsim.Sched.spawn s ~at:1 (fun () ->
      log := ("a", Ccsim.Sched.now s) :: !log;
      Ccsim.Sched.wait s 4;
      log := ("b", Ccsim.Sched.now s) :: !log;
      Ccsim.Sched.wait s 0;
      log := ("c", Ccsim.Sched.now s) :: !log;
      Ccsim.Sched.wait_until s ~cycle:3;
      log := ("d", Ccsim.Sched.now s) :: !log);
  Ccsim.Sched.run s;
  Alcotest.(check (list (pair string int)))
    "waits advance the process, no-ops don't"
    [ ("a", 1); ("b", 5); ("c", 5); ("d", 5) ]
    (List.rev !log)

let test_process_suspend_resume () =
  let s = Ccsim.Sched.create () in
  let resume_slot = ref None in
  let finished_at = ref (-1) in
  Ccsim.Sched.spawn s ~at:0 (fun () ->
      Ccsim.Sched.suspend s (fun resume -> resume_slot := Some resume);
      finished_at := Ccsim.Sched.now s);
  Ccsim.Sched.at s ~cycle:9 (fun () -> (Option.get !resume_slot) ());
  Ccsim.Sched.run s;
  checki "resumed at the resuming event's cycle" 9 !finished_at

let test_interleaving () =
  let s = Ccsim.Sched.create () in
  let log = ref [] in
  let proc name period =
    Ccsim.Sched.spawn s ~at:0 (fun () ->
        for _ = 1 to 3 do
          Ccsim.Sched.wait s period;
          log := (name, Ccsim.Sched.now s) :: !log
        done)
  in
  proc "fast" 2;
  proc "slow" 3;
  Ccsim.Sched.run s;
  Alcotest.(check (list (pair string int)))
    "two processes interleave deterministically"
    (* Both hit cycle 6; "slow" scheduled its resumption first (at cycle 3,
       vs. cycle 4), so the stable tie-break runs it first. *)
    [ ("fast", 2); ("slow", 3); ("fast", 4); ("slow", 6); ("fast", 6);
      ("slow", 9) ]
    (List.rev !log)

(* ---- reset ---- *)

(* A branching workload over both event stores: near rank-0/1/3 events land
   in the calendar wheel, far (>= 4096 cycles ahead) and rank-5 events in the
   heap, and a process waits across wheel laps.  Each event logs the cycle
   it ran at and the order it was scheduled in (its sequence number). *)
let reset_workload s =
  let log = ref [] in
  let rng = ref 7 in
  let draw n =
    rng := ((!rng * 1103515245) + 12345) land 0x3fff_ffff;
    !rng mod n
  in
  let seq = ref 0 in
  let rec schedule depth =
    let id = !seq in
    incr seq;
    let delta = [| 0; 1; 2; 7; 4095; 4096; 9000 |].(draw 7) in
    let rank = [| 0; 0; 1; 5 |].(draw 4) in
    Ccsim.Sched.at_rank s ~cycle:(Ccsim.Sched.now s + delta) ~rank (fun () ->
        log := (Ccsim.Sched.now s, id) :: !log;
        if depth < 4 then begin
          schedule (depth + 1);
          schedule (depth + 1)
        end)
  in
  (* rank-3 probes: a stale lower-rank chain left in one of these buckets
     would be found first, a stale rank-3 tail would swallow the probe *)
  for c = 1 to 15 do
    let id = !seq in
    incr seq;
    Ccsim.Sched.at_rank s ~cycle:c ~rank:3 (fun () ->
        log := (Ccsim.Sched.now s, id) :: !log)
  done;
  for _ = 1 to 4 do
    schedule 0
  done;
  Ccsim.Sched.spawn s ~at:3 (fun () ->
      for i = 1 to 3 do
        Ccsim.Sched.wait s (i * 2000);
        log := (Ccsim.Sched.now s, -i) :: !log
      done);
  Ccsim.Sched.run s;
  List.rev !log

(* Leave events pending in the wheel and in the heap, with the clock moved
   a full wheel lap off 0: every rank of wheel buckets 1..15 stays occupied
   (the buckets the workload's own first events use), plus far and
   exotic-rank events in the heap.  Each stale event marks [stale] if it
   ever runs. *)
let abandon s stale =
  let mark () = stale := true in
  (* scheduled from cycle 4096, so the near ones are within the wheel's
     window *)
  Ccsim.Sched.at s ~cycle:4096 (fun () ->
      for c = 1 to 15 do
        for rank = 0 to 3 do
          Ccsim.Sched.at_rank s ~cycle:(4096 + c) ~rank mark
        done
      done;
      Ccsim.Sched.at s ~cycle:200_000 mark;
      Ccsim.Sched.at_rank s ~cycle:4098 ~rank:7 mark);
  checki "abandoned run stops early" 3 (Ccsim.Sched.run_steps s 3);
  checkb "events left pending" true (Ccsim.Sched.pending s > 0);
  stale := false

let pair_list = Alcotest.(list (pair int int))

let test_reset_matches_fresh () =
  let fresh = reset_workload (Ccsim.Sched.create ()) in
  checkb "workload is not trivial" true (List.length fresh > 100);
  let s = Ccsim.Sched.create () in
  let stale = ref false in
  abandon s stale;
  Ccsim.Sched.reset s;
  checki "clock back at 0" 0 (Ccsim.Sched.now s);
  checki "abandoned events dropped" 0 (Ccsim.Sched.pending s);
  Alcotest.check pair_list "reset after an abandoned run = fresh" fresh
    (reset_workload s);
  checkb "no abandoned event ran" false !stale;
  Ccsim.Sched.reset s;
  Alcotest.check pair_list "reset after a drained run = fresh" fresh
    (reset_workload s)

let test_reset_keeps_on_advance () =
  let advances log c = log := c :: !log in
  let fresh_log = ref [] in
  ignore (reset_workload (Ccsim.Sched.create ~on_advance:(advances fresh_log) ()));
  let log = ref [] in
  let s = Ccsim.Sched.create ~on_advance:(advances log) () in
  abandon s (ref false);
  Ccsim.Sched.reset s;
  log := [];
  ignore (reset_workload s);
  checkb "hook saw the run" true (!fresh_log <> []);
  Alcotest.(check (list int)) "same advances as a fresh scheduler" !fresh_log
    !log

(* ---- differential: event engine vs. trace-then-replay oracle ---- *)

let denial_pair (d : Guard.Iface.denial) = (d.Guard.Iface.code, d.Guard.Iface.detail)

(* With one instance there is no contention, so the two timing cores must
   agree exactly: same wall clock, same phase split, same check and access
   accounting, same denial set. *)
let check_single_equivalence config_name config (bench : Machsuite.Bench_def.t) =
  let legacy = Soc.Run.run ~tasks:1 ~engine:Soc.Run.Legacy_replay config bench in
  let event = Soc.Run.run ~tasks:1 ~engine:Soc.Run.Event_driven config bench in
  let ctx field = Printf.sprintf "%s/%s: %s" bench.name config_name field in
  checki (ctx "wall") legacy.Soc.Run.wall event.Soc.Run.wall;
  checki (ctx "alloc") legacy.Soc.Run.phases.Soc.Run.alloc
    event.Soc.Run.phases.Soc.Run.alloc;
  checki (ctx "init") legacy.Soc.Run.phases.Soc.Run.init
    event.Soc.Run.phases.Soc.Run.init;
  checki (ctx "compute") legacy.Soc.Run.phases.Soc.Run.compute
    event.Soc.Run.phases.Soc.Run.compute;
  checki (ctx "teardown") legacy.Soc.Run.phases.Soc.Run.teardown
    event.Soc.Run.phases.Soc.Run.teardown;
  checki (ctx "checks") legacy.Soc.Run.checks event.Soc.Run.checks;
  checki (ctx "elided checks") legacy.Soc.Run.elided_checks
    event.Soc.Run.elided_checks;
  checki (ctx "bus beats") legacy.Soc.Run.bus_beats event.Soc.Run.bus_beats;
  checki (ctx "entries peak") legacy.Soc.Run.entries_peak
    event.Soc.Run.entries_peak;
  checkb (ctx "correct") legacy.Soc.Run.correct event.Soc.Run.correct;
  Alcotest.(check (list (pair string string)))
    (ctx "denials")
    (List.map denial_pair legacy.Soc.Run.denials)
    (List.map denial_pair event.Soc.Run.denials)

let test_differential_all_benches () =
  List.iter
    (check_single_equivalence "ccpu+caccel" Soc.Config.ccpu_caccel)
    Machsuite.Registry.all

let test_differential_other_configs () =
  (* The contract is engine-independent of the protection scheme: spot-check
     unguarded, coarse and cached configurations (distinct addressing modes
     and checker latencies). *)
  let benches =
    [ Machsuite.Registry.find "aes"; Machsuite.Registry.find "spmv_crs" ]
  in
  List.iter
    (fun bench ->
      check_single_equivalence "ccpu+accel" Soc.Config.ccpu_accel bench;
      check_single_equivalence "coarse" Soc.Config.ccpu_caccel_coarse bench;
      check_single_equivalence "cached" Soc.Config.ccpu_caccel_cached bench)
    benches

let mixed_combo () =
  List.map Machsuite.Registry.find [ "aes"; "spmv_crs"; "stencil2d"; "sort_merge" ]

let test_mixed_event_makespan_bounded () =
  (* Under contention round-robin arbitration can only help relative to the
     replay's global earliest-ready FIFO; functional results and check
     accounting must not change. *)
  let benches = mixed_combo () in
  let legacy =
    Soc.Run.run_mixed ~engine:Soc.Run.Legacy_replay Soc.Config.ccpu_caccel benches
  in
  let event =
    Soc.Run.run_mixed ~engine:Soc.Run.Event_driven Soc.Config.ccpu_caccel benches
  in
  checkb "both correct" true (legacy.Soc.Run.correct && event.Soc.Run.correct);
  checki "same checks" legacy.Soc.Run.checks event.Soc.Run.checks;
  checki "same bus beats" legacy.Soc.Run.bus_beats event.Soc.Run.bus_beats;
  checkb
    (Printf.sprintf "event makespan (%d) <= replay makespan (%d)"
       event.Soc.Run.phases.Soc.Run.compute legacy.Soc.Run.phases.Soc.Run.compute)
    true
    (event.Soc.Run.phases.Soc.Run.compute
    <= legacy.Soc.Run.phases.Soc.Run.compute)

let test_homogeneous_event_makespan_bounded () =
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  let legacy =
    Soc.Run.run ~tasks:4 ~engine:Soc.Run.Legacy_replay Soc.Config.ccpu_caccel bench
  in
  let event =
    Soc.Run.run ~tasks:4 ~engine:Soc.Run.Event_driven Soc.Config.ccpu_caccel bench
  in
  checkb "both correct" true (legacy.Soc.Run.correct && event.Soc.Run.correct);
  checki "same checks" legacy.Soc.Run.checks event.Soc.Run.checks;
  checkb "event makespan <= replay makespan" true
    (event.Soc.Run.phases.Soc.Run.compute
    <= legacy.Soc.Run.phases.Soc.Run.compute)

let test_event_mode_deterministic () =
  let go () =
    let r =
      Soc.Run.run_mixed ~engine:Soc.Run.Event_driven Soc.Config.ccpu_caccel
        (mixed_combo ())
    in
    (r.Soc.Run.wall, r.Soc.Run.phases.Soc.Run.compute, r.Soc.Run.checks,
     r.Soc.Run.bus_beats, r.Soc.Run.correct)
  in
  let a = go () and b = go () in
  checkb "two event-mode runs are identical" true (a = b)

(* ---- interconnect topologies at run level ---- *)

let test_topology_shared_is_identity () =
  (* --topology shared must be byte-for-byte the plain event engine: same
     result record on a contended run, under both checker placements'
     default (central). *)
  let bench = Machsuite.Registry.find "aes" in
  let base =
    Soc.Run.run ~tasks:4 ~engine:Soc.Run.Event_driven Soc.Config.ccpu_caccel
      bench
  in
  let shared =
    Soc.Run.run ~tasks:4 ~engine:Soc.Run.Event_driven
      ~topology:Bus.Topology.Shared Soc.Config.ccpu_caccel bench
  in
  checkb "shared topology is the identity" true (base = shared)

let test_topology_verdict_parity () =
  (* Topology and checker placement shape latency, never adjudication: every
     combination must agree on correctness, check counts, denials, beats and
     peak table occupancy. *)
  let bench = Machsuite.Registry.find "spmv_crs" in
  let base =
    Soc.Run.run ~tasks:4 ~engine:Soc.Run.Event_driven Soc.Config.ccpu_caccel
      bench
  in
  List.iter
    (fun (topology, checkers) ->
      let r =
        Soc.Run.run ~tasks:4 ~engine:Soc.Run.Event_driven ~topology ~checkers
          Soc.Config.ccpu_caccel bench
      in
      let name =
        Printf.sprintf "%s/%s"
          (Bus.Topology.kind_to_string topology)
          (Capchecker.Shim.checking_to_string checkers)
      in
      checkb (name ^ ": correct") true r.Soc.Run.correct;
      checki (name ^ ": checks") base.Soc.Run.checks r.Soc.Run.checks;
      checki (name ^ ": bus beats") base.Soc.Run.bus_beats r.Soc.Run.bus_beats;
      checki (name ^ ": entries peak") base.Soc.Run.entries_peak
        r.Soc.Run.entries_peak;
      Alcotest.(check (list (pair string string)))
        (name ^ ": denials")
        (List.map denial_pair base.Soc.Run.denials)
        (List.map denial_pair r.Soc.Run.denials))
    [ (Bus.Topology.Shared, Capchecker.Shim.Distributed);
      (Bus.Topology.Crossbar { banks = 4 }, Capchecker.Shim.Central);
      (Bus.Topology.Crossbar { banks = 4 }, Capchecker.Shim.Distributed);
      (Bus.Topology.Hierarchical { clusters = 4 }, Capchecker.Shim.Central);
      (Bus.Topology.Hierarchical { clusters = 4 }, Capchecker.Shim.Distributed) ]

let test_topology_runs_deterministic () =
  (* Concurrent topologies stay deterministic: repeat runs are identical. *)
  let bench = Machsuite.Registry.find "aes" in
  List.iter
    (fun topology ->
      let go () =
        Soc.Run.run ~tasks:4 ~engine:Soc.Run.Event_driven ~topology
          ~checkers:Capchecker.Shim.Distributed Soc.Config.ccpu_caccel bench
      in
      checkb
        (Bus.Topology.kind_to_string topology ^ ": repeat run identical")
        true
        (go () = go ()))
    [ Bus.Topology.Crossbar { banks = 4 };
      Bus.Topology.Hierarchical { clusters = 4 } ]

let test_topology_requires_event_engine () =
  let bench = Machsuite.Registry.find "aes" in
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> true
    | (_ : Soc.Run.result) -> false
  in
  checkb "replay + crossbar rejected" true
    (rejects (fun () ->
         Soc.Run.run ~tasks:1 ~engine:Soc.Run.Legacy_replay
           ~topology:(Bus.Topology.Crossbar { banks = 4 })
           Soc.Config.ccpu_caccel bench));
  (* Distributed checkers alone are engine-agnostic. *)
  let r =
    Soc.Run.run ~tasks:1 ~engine:Soc.Run.Legacy_replay
      ~checkers:Capchecker.Shim.Distributed Soc.Config.ccpu_caccel bench
  in
  checkb "replay + shim checkers allowed and correct" true r.Soc.Run.correct

let test_event_mode_faulted_invariant () =
  (* Faulted runs switch only the contention core; the recovery invariant
     (correct, or an explicit fallback per lost task) must hold in both, and
     the event core must be deterministic under a fixed seed. *)
  let bench = Machsuite.Registry.find "aes" in
  let go () =
    Soc.Run.run ~tasks:4 ~faults:(Fault.Plan.default ~seed:3)
      ~engine:Soc.Run.Event_driven Soc.Config.ccpu_caccel bench
  in
  let r1 = go () and r2 = go () in
  checkb "invariant: correct (fallbacks recomputed on CPU)" true
    r1.Soc.Run.correct;
  checkb "seeded event-mode fault run reproduces" true
    (r1.Soc.Run.wall = r2.Soc.Run.wall
    && r1.Soc.Run.faults = r2.Soc.Run.faults
    && List.length r1.Soc.Run.fallbacks = List.length r2.Soc.Run.fallbacks)

(* ---- allocation budget of the event core's transaction path ---- *)

(* 12,000 mixed transactions with non-zero gaps from [sources] processes,
   each issuing through its own [Flow] on a fresh [kind] fabric; returns the
   minor words the scheduler run allocated per transaction.  Everything
   built before [Sched.run] (the fabric, the flows, the process closures)
   is outside the measurement. *)
let words_per_transaction kind ~sources =
  let total = 12_000 in
  let sched = Ccsim.Sched.create () in
  let ic = Bus.Topology.create ~sched ~kind Bus.Params.default in
  let targets = Bus.Topology.targets ic in
  for src = 0 to sources - 1 do
    let issue = Accel.Issue.create ~start:0 ~max_outstanding:4 () in
    let flow = Accel.Flow.create ~sched ~ic ~src issue in
    Ccsim.Sched.spawn sched ~at:0 (fun () ->
        for i = 0 to (total / sources) - 1 do
          let op =
            match i mod 3 with
            | 0 -> Accel.Trace.Write
            | 1 -> Accel.Trace.Stream_read
            | _ -> Accel.Trace.Dep_read
          in
          Accel.Flow.issue flow ~target:((src + i) mod targets)
            ~gap:(1 + (i mod 3)) ~op ~beats:(1 + (i mod 4)) ~latency:2
            ~then_wait:(i mod 2)
        done)
  done;
  let before = Gc.minor_words () in
  Ccsim.Sched.run sched;
  (Gc.minor_words () -. before) /. float_of_int total

let test_flow_allocation_budget () =
  List.iter
    (fun (kind, budget) ->
      List.iter
        (fun sources ->
          let words = words_per_transaction kind ~sources in
          checkb
            (Printf.sprintf "%s, %d source(s): %.1f words per transaction <= %d"
               (Bus.Topology.kind_to_string kind) sources words budget)
            true
            (words <= float_of_int budget))
        [ 1; 4 ])
    [ (Bus.Topology.Shared, 32);
      (Bus.Topology.Crossbar { banks = 4 }, 32);
      (Bus.Topology.Hierarchical { clusters = 4 }, 48) ]

(* The same budget for a script-fed task through [Accel.Engine.run_event]:
   a proven task behind a constant-latency guard ([Adj_fastpath]) replays a
   hand-recorded script of 12,000 transactions (element accesses with
   gaps, and DMA copies every 50th entry) from [sources] instances.  The
   script cursor is continued from scheduler events and from the flow, so
   the only thing it may allocate is the scheduler's six-word events: at
   most 6 words per event plus 2 words of slack per transaction.  It is
   never spawned as a process, so a stray [Sched.suspend] on this path
   would raise [Effect.Unhandled] instead of passing unnoticed.  Returns
   (words, events) per transaction. *)
let cursor_words_per_transaction kind ~sources =
  let total = 12_000 in
  let open Kernel.Ir in
  let kernel =
    { name = "budget"; bufs = [ buf "a" I64 4096; buf "b" I64 4096 ]; scratch = [];
      body = [] }
  in
  let mem = Tagmem.Mem.create ~size:(1 lsl 20) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 20) - 4096) in
  let layout =
    Memops.Layout.make
      (List.map
         (fun decl ->
           { Memops.Layout.decl;
             base = Tagmem.Alloc.malloc heap ~align:64 (buf_decl_bytes decl) })
         kernel.bufs)
  in
  let r = Accel.Script.Recorder.create ~extents:[| 32768; 32768 |] in
  let transactions = ref 0 and i = ref 0 in
  while !transactions < total / sources do
    let gap = 1 + (!i mod 3) in
    if !i mod 50 = 49 then begin
      (* 128 bytes = 16 beats: one read/write burst pair *)
      Accel.Script.Recorder.copy r ~gap ~bytes:128 ~src:0 ~dst:1 ~ops:!i;
      transactions := !transactions + 2
    end
    else begin
      Accel.Script.Recorder.access r ~gap
        ~kind:(if !i mod 3 = 1 then Guard.Iface.Write else Guard.Iface.Read)
        ~buf:(!i mod 2) ~off:(8 * (!i mod 4096)) ~size:8
        ~dependent:(!i mod 3 = 2) ~ops:!i;
      incr transactions
    end;
    incr i
  done;
  let script =
    Option.get (Accel.Script.Recorder.finalize r ~total_ops:!i ~complete:true)
  in
  let sched = Ccsim.Sched.create () in
  let ic = Bus.Topology.create ~sched ~kind Bus.Params.default in
  let retired = ref 0 in
  for src = 0 to sources - 1 do
    Accel.Engine.run_event ~sched ~ic ~start:0 ~mem ~bus:Bus.Params.default
      ~directives:Hls.Directives.default ~addressing:Accel.Engine.Plain
      ~naive_tag_writes:false (Accel.Engine.Adj_fastpath 2)
      (Accel.Engine.Replay script)
      { Accel.Engine.instance = src; kernel; layout; params = [];
        obj_ids = [ ("a", 0); ("b", 1) ] }
      ~on_done:(fun o ->
        if o.Accel.Engine.ev_denied = None && not o.Accel.Engine.ev_failed then
          incr retired)
  done;
  let before = Gc.minor_words () in
  let events = Ccsim.Sched.run_steps sched max_int in
  let words = Gc.minor_words () -. before in
  checki "every task retired" sources !retired;
  let n = float_of_int (sources * !transactions) in
  (words /. n, float_of_int events /. n)

let test_cursor_allocation_budget () =
  List.iter
    (fun kind ->
      List.iter
        (fun sources ->
          let words, events = cursor_words_per_transaction kind ~sources in
          checkb
            (Printf.sprintf
               "%s, %d source(s): %.1f words per transaction <= 6 x %.2f events + 2"
               (Bus.Topology.kind_to_string kind) sources words events)
            true
            (words <= (6.0 *. events) +. 2.0))
        [ 1; 4 ])
    [ Bus.Topology.Shared;
      Bus.Topology.Crossbar { banks = 4 };
      Bus.Topology.Hierarchical { clusters = 4 } ]

let suite =
  [
    ("event ordering", `Quick, test_ordering);
    ("stable ties", `Quick, test_stable_ties);
    ("rank within cycle", `Quick, test_rank_orders_within_cycle);
    ("past cycle clamped", `Quick, test_past_cycle_clamped);
    ("on_advance monotone", `Quick, test_on_advance_monotone);
    ("process wait", `Quick, test_process_wait);
    ("process suspend/resume", `Quick, test_process_suspend_resume);
    ("process interleaving", `Quick, test_interleaving);
    ("reset: same trace as fresh", `Quick, test_reset_matches_fresh);
    ("reset: keeps on_advance", `Quick, test_reset_keeps_on_advance);
    ("differential: all benches single-instance", `Slow,
     test_differential_all_benches);
    ("differential: other configs", `Quick, test_differential_other_configs);
    ("mixed: event makespan bounded by replay", `Quick,
     test_mixed_event_makespan_bounded);
    ("homogeneous: event makespan bounded", `Quick,
     test_homogeneous_event_makespan_bounded);
    ("event mode deterministic", `Quick, test_event_mode_deterministic);
    ("topology: shared is the identity", `Quick, test_topology_shared_is_identity);
    ("topology: verdict parity", `Quick, test_topology_verdict_parity);
    ("topology: deterministic", `Quick, test_topology_runs_deterministic);
    ("topology: replay engine rejected", `Quick,
     test_topology_requires_event_engine);
    ("faulted event mode: invariant + determinism", `Quick,
     test_event_mode_faulted_invariant);
    ("flow: allocation budget per transaction", `Quick,
     test_flow_allocation_budget);
    ("cursor: allocation budget per transaction", `Quick,
     test_cursor_allocation_budget);
  ]
