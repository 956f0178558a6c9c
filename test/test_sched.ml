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

(* A model that waits keeps its position in its own state and schedules its
   continuation: [n] cycles on for a wait, at once for a zero wait, and at
   a past cycle (clamped to now) for an instant already reached. *)
let test_cursor_wait () =
  let s = Ccsim.Sched.create () in
  let log = ref [] in
  let phase = ref 0 in
  let rec k () =
    let now = Ccsim.Sched.now s in
    incr phase;
    match !phase with
    | 1 ->
        log := ("a", now) :: !log;
        Ccsim.Sched.at s ~cycle:(now + 4) k
    | 2 ->
        log := ("b", now) :: !log;
        k ()
    | 3 ->
        log := ("c", now) :: !log;
        Ccsim.Sched.at s ~cycle:3 k
    | _ -> log := ("d", now) :: !log
  in
  Ccsim.Sched.at s ~cycle:1 k;
  Ccsim.Sched.run s;
  Alcotest.(check (list (pair string int)))
    "waits advance the cursor, no-ops don't"
    [ ("a", 1); ("b", 5); ("c", 5); ("d", 5) ]
    (List.rev !log)

(* A cursor hands its continuation to another model (as a flow's driver
   does) and is continued from that model's later event. *)
let test_cursor_handoff () =
  let s = Ccsim.Sched.create () in
  let handed = ref ignore in
  let finished_at = ref (-1) in
  Ccsim.Sched.at s ~cycle:0 (fun () ->
      handed := fun () -> finished_at := Ccsim.Sched.now s);
  Ccsim.Sched.at s ~cycle:9 (fun () -> !handed ());
  Ccsim.Sched.run s;
  checki "continued at the continuing event's cycle" 9 !finished_at

let test_interleaving () =
  let s = Ccsim.Sched.create () in
  let log = ref [] in
  let cursor name period =
    let trips = ref 0 in
    let rec k () =
      if !trips > 0 then log := (name, Ccsim.Sched.now s) :: !log;
      if !trips < 3 then begin
        incr trips;
        Ccsim.Sched.at s ~cycle:(Ccsim.Sched.now s + period) k
      end
    in
    Ccsim.Sched.at s ~cycle:0 k
  in
  cursor "fast" 2;
  cursor "slow" 3;
  Ccsim.Sched.run s;
  Alcotest.(check (list (pair string int)))
    "two cursors interleave deterministically"
    (* Both hit cycle 6; "slow" scheduled its continuation first (at cycle 3,
       vs. cycle 4), so the stable tie-break runs it first. *)
    [ ("fast", 2); ("slow", 3); ("fast", 4); ("slow", 6); ("fast", 6);
      ("slow", 9) ]
    (List.rev !log)

(* A negative rank, or one above the 255 the packed event key holds, is
   rejected before the scheduler changes: nothing is left pending, on the
   wheel's path (a near cycle) or the heap's (a cycle a wheel lap ahead). *)
let test_rank_out_of_range () =
  let s = Ccsim.Sched.create () in
  List.iter
    (fun (cycle, rank) ->
      let raised =
        match Ccsim.Sched.at_rank s ~cycle ~rank ignore with
        | () -> None
        | exception Invalid_argument msg -> Some msg
      in
      Alcotest.(check (option string))
        (Printf.sprintf "rank %d at cycle %d" rank cycle)
        (Some (Printf.sprintf "Sched.at_rank: rank %d outside 0..255" rank))
        raised;
      checki "nothing scheduled" 0 (Ccsim.Sched.pending s))
    [ (5, -1); (5000, -1); (5, min_int); (5, 256); (5000, 256); (5, max_int) ];
  let log = ref [] in
  Ccsim.Sched.at_rank s ~cycle:5 ~rank:255 (fun () -> log := 255 :: !log);
  Ccsim.Sched.at_rank s ~cycle:5 ~rank:4 (fun () -> log := 4 :: !log);
  Ccsim.Sched.at s ~cycle:5 (fun () -> log := 0 :: !log);
  Ccsim.Sched.run s;
  Alcotest.(check (list int)) "ranks 0..255 order a cycle" [ 0; 4; 255 ]
    (List.rev !log)

(* ---- model: the scheduler against a sorted list ---- *)

(* A random program: phases that each schedule a forest of events from
   outside any event, run under a list of [run_steps] budgets and may end
   with a [reset].  An event schedules its children when it runs, at a
   delta from its own cycle: negative (a past cycle, clamped), zero (the
   current cycle), near, across the wheel's 4096-cycle window or far.
   Ranks 0-6 cover the wheel's ranks and the heap's. *)
type node = { delta : int; rank : int; kids : node list }
type phase = { roots : node list; budgets : int list; reset : bool }

type entry =
  | Ran of int * int  (* scheduling index, cycle *)
  | Steps of int * int * int  (* events run, pending, now *)
  | Reset

let deltas = [| -5; 0; 0; 1; 1; 2; 3; 7; 64; 4095; 4096; 4097; 9000; 100_000 |]

let gen_program =
  let open QCheck.Gen in
  let node =
    fix
      (fun self depth ->
        let* delta = oneofa deltas and* rank = int_bound 6 in
        let+ kids =
          if depth = 0 then return [] else list_size (int_bound 3) (self (depth - 1))
        in
        { delta; rank; kids })
  in
  let budget = frequency [ (4, int_bound 40); (1, return max_int) ] in
  let phase =
    let* roots = list_size (int_range 1 4) (int_bound 4 >>= node)
    and* budgets = list_size (int_range 1 3) budget
    and* reset = bool in
    return { roots; budgets; reset }
  in
  list_size (int_range 1 4) phase

let rec show_node n =
  Printf.sprintf "{%d@%d%s}" n.delta n.rank
    (String.concat "" (List.map show_node n.kids))

let show_program prog =
  String.concat " ; "
    (List.map
       (fun p ->
         Printf.sprintf "%s run %s%s"
           (String.concat "" (List.map show_node p.roots))
           (String.concat "," (List.map string_of_int p.budgets))
           (if p.reset then " reset" else ""))
       prog)

(* Both interpreters number events in the order they are scheduled, so a
   differing execution order shows as differing [Ran] entries. *)
let interpret ~schedule ~run_steps ~pending ~now ~reset prog =
  let log = ref [] in
  let count = ref 0 in
  let rec sched node =
    let id = !count in
    incr count;
    schedule ~delta:node.delta ~rank:node.rank (fun () ->
        log := Ran (id, now ()) :: !log;
        List.iter sched node.kids)
  in
  List.iter
    (fun p ->
      List.iter sched p.roots;
      List.iter
        (fun b ->
          let n = run_steps b in
          log := Steps (n, pending (), now ()) :: !log)
        p.budgets;
      if p.reset then begin
        reset ();
        log := Reset :: !log
      end)
    prog;
  List.rev !log

let run_sched prog =
  let s = Ccsim.Sched.create () in
  interpret prog
    ~schedule:(fun ~delta ~rank fn ->
      Ccsim.Sched.at_rank s ~cycle:(Ccsim.Sched.now s + delta) ~rank fn)
    ~run_steps:(Ccsim.Sched.run_steps s)
    ~pending:(fun () -> Ccsim.Sched.pending s)
    ~now:(fun () -> Ccsim.Sched.now s)
    ~reset:(fun () -> Ccsim.Sched.reset s)

(* The model: pending events in a list, the least (cycle, rank, seq) run
   next. *)
let run_model prog =
  let clock = ref 0 and seq = ref 0 and pending = ref [] in
  let key (c, r, q, _) = (c, r, q) in
  let rec run_steps n =
    if n = 0 then 0
    else
      match List.sort (fun a b -> compare (key a) (key b)) !pending with
      | [] -> 0
      | ((c, _, _, fn) as ev) :: _ ->
          pending := List.filter (fun e -> e != ev) !pending;
          clock := c;
          fn ();
          1 + run_steps (n - 1)
  in
  interpret prog
    ~schedule:(fun ~delta ~rank fn ->
      pending := (max !clock (!clock + delta), rank, !seq, fn) :: !pending;
      incr seq)
    ~run_steps
    ~pending:(fun () -> List.length !pending)
    ~now:(fun () -> !clock)
    ~reset:(fun () ->
      clock := 0;
      seq := 0;
      pending := [])

let prop_matches_model =
  QCheck.Test.make ~count:300 ~name:"scheduler == sorted-list model"
    (QCheck.make ~print:show_program gen_program)
    (fun prog -> run_sched prog = run_model prog)

(* ---- reset ---- *)

(* A branching workload over both event stores: near rank-0/1/3 events land
   in the calendar wheel, far (>= 4096 cycles ahead) and rank-5 events in the
   heap, and a cursor waits across wheel laps.  Each event logs the cycle
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
  let waits = ref 0 in
  let rec wait () =
    if !waits > 0 then log := (Ccsim.Sched.now s, - !waits) :: !log;
    if !waits < 3 then begin
      incr waits;
      Ccsim.Sched.at s ~cycle:(Ccsim.Sched.now s + (!waits * 2000)) wait
    end
  in
  Ccsim.Sched.at s ~cycle:3 wait;
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

(* 12,000 mixed transactions with non-zero gaps from [sources] cursors,
   each submitting through its own [Flow] on a fresh [kind] fabric; returns
   the minor words the scheduler run allocated per transaction.  Everything
   built before [Sched.run] (the fabric, the flows, the cursor closures) is
   outside the measurement. *)
let words_per_transaction kind ~sources =
  let total = 12_000 in
  let sched = Ccsim.Sched.create () in
  let ic = Bus.Topology.create ~sched ~kind Bus.Params.default in
  let targets = Bus.Topology.targets ic in
  for src = 0 to sources - 1 do
    let issue = Accel.Issue.create ~start:0 ~max_outstanding:4 () in
    let flow = Accel.Flow.create ~sched ~ic ~src issue in
    let next = ref 0 in
    let rec k () =
      let i = !next in
      if i < total / sources then begin
        next := i + 1;
        let op =
          match i mod 3 with
          | 0 -> Accel.Trace.Write
          | 1 -> Accel.Trace.Stream_read
          | _ -> Accel.Trace.Dep_read
        in
        Accel.Flow.submit flow ~k ~target:((src + i) mod targets)
          ~gap:(1 + (i mod 3)) ~op ~beats:(1 + (i mod 4)) ~latency:2
          ~then_wait:(i mod 2)
      end
    in
    Ccsim.Sched.at sched ~cycle:0 k
  done;
  let before = Gc.minor_words () in
  Ccsim.Sched.run sched;
  (Gc.minor_words () -. before) /. float_of_int total

let kinds =
  [ Bus.Topology.Shared;
    Bus.Topology.Crossbar { banks = 4 };
    Bus.Topology.Hierarchical { clusters = 4 } ]

(* Scheduler events are pool slots and the flows keep their state in place,
   so a transaction allocates nothing: what the measurement sees is the
   pool and heap growing to their peak, under 0.06 words per transaction.
   One word of slack. *)
let check_words_budget measure =
  List.iter
    (fun kind ->
      List.iter
        (fun sources ->
          let words = measure kind ~sources in
          checkb
            (Printf.sprintf "%s, %d source(s): %.3f words per transaction <= 1"
               (Bus.Topology.kind_to_string kind) sources words)
            true (words <= 1.0))
        [ 1; 4 ])
    kinds

let test_flow_allocation_budget () = check_words_budget words_per_transaction

(* The same budget for a script-fed task through [Accel.Engine.run_event]:
   a proven task behind a constant-latency guard ([Adj_fastpath]) replays a
   hand-recorded script of 12,000 transactions (element accesses with
   gaps, and DMA copies every 50th entry) from [sources] instances.  The
   script cursor is continued from scheduler events and from the flow, and
   neither allocates per transaction.  Returns the words per transaction. *)
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
  (* At one op per cycle, each transaction's gap is the ops since the
     previous one. *)
  let transactions = ref 0 and i = ref 0 and ops = ref 0 in
  while !transactions < total / sources do
    ops := !ops + 1 + (!i mod 3);
    if !i mod 50 = 49 then begin
      (* 128 bytes = 16 beats: one read/write burst pair *)
      Accel.Script.Recorder.copy r ~bytes:128 ~src:0 ~dst:1 ~ops:!ops;
      transactions := !transactions + 2
    end
    else begin
      Accel.Script.Recorder.access r
        ~kind:(if !i mod 3 = 1 then Guard.Iface.Write else Guard.Iface.Read)
        ~buf:(!i mod 2) ~off:(8 * (!i mod 4096)) ~size:8
        ~dependent:(!i mod 3 = 2) ~ops:!ops;
      incr transactions
    end;
    incr i
  done;
  let script = Accel.Script.Recorder.finalize r ~ipc:1.0 ~total_ops:!ops in
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
  Ccsim.Sched.run sched;
  let words = Gc.minor_words () -. before in
  checki "every task retired" sources !retired;
  words /. float_of_int (sources * !transactions)

let test_cursor_allocation_budget () =
  check_words_budget cursor_words_per_transaction

(* The scheduler itself: once its pool and heap have grown to a workload's
   peak, running that workload again allocates nothing.  Eight cursors
   reschedule themselves near (the wheel) or far and at rank 5 (the heap);
   their closures are built before the measurement. *)
let test_warm_run_allocates_nothing () =
  let s = Ccsim.Sched.create () in
  let events = 200_000 in
  let load () =
    let left = ref events in
    for i = 0 to 7 do
      let rec k () =
        if !left > 0 then begin
          decr left;
          let now = Ccsim.Sched.now s in
          if !left mod 7 = 0 then
            Ccsim.Sched.at_rank s ~cycle:(now + 5000 + i) ~rank:5 k
          else Ccsim.Sched.at s ~cycle:(now + 1 + (i land 3)) k
        end
      in
      Ccsim.Sched.at s ~cycle:0 k
    done
  in
  load ();
  Ccsim.Sched.run s;
  Ccsim.Sched.reset s;
  load ();
  let before = Gc.minor_words () in
  let ran = Ccsim.Sched.run_steps s max_int in
  let words = Gc.minor_words () -. before in
  checki "every event ran" (events + 8) ran;
  Alcotest.(check (float 0.0)) "minor words in a warm run" 0.0 words

let suite =
  [
    ("event ordering", `Quick, test_ordering);
    ("stable ties", `Quick, test_stable_ties);
    ("rank within cycle", `Quick, test_rank_orders_within_cycle);
    ("past cycle clamped", `Quick, test_past_cycle_clamped);
    ("rank out of range rejected", `Quick, test_rank_out_of_range);
    ("on_advance monotone", `Quick, test_on_advance_monotone);
    ("cursor wait", `Quick, test_cursor_wait);
    ("cursor handoff", `Quick, test_cursor_handoff);
    ("cursor interleaving", `Quick, test_interleaving);
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
    ("warm run allocates nothing", `Quick, test_warm_run_allocates_nothing);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_matches_model ]
