(* Interconnect model: beat math, FIFO arbitration, address map. *)

open Bus

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_beats_for () =
  let p = Params.default in
  checki "1 byte = 1 beat" 1 (Params.beats_for p 1);
  checki "8 bytes = 1 beat" 1 (Params.beats_for p 8);
  checki "9 bytes = 2 beats" 2 (Params.beats_for p 9);
  checki "0 bytes still 1 beat" 1 (Params.beats_for p 0);
  checki "128 bytes = 16 beats" 16 (Params.beats_for p 128)

let ap = Params.default.Params.addr_phase

let test_fabric_single_request () =
  let f = Fabric.create Params.default in
  let g = Fabric.request f ~at:10 ~beats:4 ~is_read:true ~extra_latency:0 in
  checki "granted when requested" 10 g.Fabric.granted_at;
  checki "data done after address phase + beats" (10 + ap + 4) g.Fabric.data_done;
  checki "completed adds read latency"
    (10 + ap + 4 + Params.default.Params.read_latency) g.Fabric.completed

let test_fabric_serializes () =
  let f = Fabric.create Params.default in
  let g1 = Fabric.request f ~at:0 ~beats:8 ~is_read:true ~extra_latency:0 in
  let g2 = Fabric.request f ~at:0 ~beats:8 ~is_read:true ~extra_latency:0 in
  checki "first immediate" 0 g1.Fabric.granted_at;
  checki "second waits for the bus" (ap + 8) g2.Fabric.granted_at;
  checki "beats accounted" 16 (Fabric.total_beats f)

let test_fabric_idle_gap () =
  let f = Fabric.create Params.default in
  let _ = Fabric.request f ~at:0 ~beats:2 ~is_read:false ~extra_latency:0 in
  let g = Fabric.request f ~at:100 ~beats:2 ~is_read:false ~extra_latency:0 in
  checki "no queueing after idle gap" 100 g.Fabric.granted_at

let test_fabric_extra_latency () =
  let f = Fabric.create Params.default in
  let g0 = Fabric.request f ~at:0 ~beats:1 ~is_read:true ~extra_latency:0 in
  Fabric.reset f;
  let g1 = Fabric.request f ~at:0 ~beats:1 ~is_read:true ~extra_latency:3 in
  checki "latency added to completion only" (g0.Fabric.completed + 3)
    g1.Fabric.completed;
  checki "data phase unchanged" g0.Fabric.data_done g1.Fabric.data_done

let test_fabric_write_latency () =
  let f = Fabric.create Params.default in
  let g = Fabric.request f ~at:0 ~beats:1 ~is_read:false ~extra_latency:0 in
  checki "write completion" (ap + 1 + Params.default.Params.write_latency)
    g.Fabric.completed

let test_addr_map () =
  checkb "dram holds heap" true
    (Addr_map.in_dram ~addr:Addr_map.heap_base ~size:4096);
  checkb "ctrl regs outside dram" false
    (Addr_map.in_dram ~addr:Addr_map.accel_ctrl_base ~size:8);
  let r0 = Addr_map.ctrl_reg ~instance:0 ~reg:0 in
  let r1 = Addr_map.ctrl_reg ~instance:1 ~reg:0 in
  checki "instance stride" Addr_map.accel_ctrl_stride (r1 - r0);
  checki "reg stride" 8 (Addr_map.ctrl_reg ~instance:0 ~reg:1 - r0)

let prop_fifo_monotonic =
  QCheck.Test.make ~count:200 ~name:"grants never move backwards"
    QCheck.(small_list (pair (int_bound 50) (int_range 1 16)))
    (fun reqs ->
      let f = Fabric.create Params.default in
      let now = ref 0 in
      List.for_all
        (fun (delay, beats) ->
          now := !now + delay;
          let g = Fabric.request f ~at:!now ~beats ~is_read:true ~extra_latency:0 in
          g.Fabric.granted_at >= !now
          && g.Fabric.data_done = g.Fabric.granted_at + ap + beats)
        reqs)

let prop_beats_conserved =
  QCheck.Test.make ~count:200 ~name:"total beats equals sum of requests"
    QCheck.(small_list (int_range 1 16))
    (fun beats_list ->
      let f = Fabric.create Params.default in
      List.iter
        (fun b -> ignore (Fabric.request f ~at:0 ~beats:b ~is_read:true ~extra_latency:0))
        beats_list;
      Fabric.total_beats f = List.fold_left ( + ) 0 beats_list)

(* ---- round-robin arbiter (event-driven core) ---- *)

(* Queue [n] bursts of [beats] from [src], each ready at [at]; every grant is
   appended to [log] as (src, granted_at). *)
let saturate arb log ~src ~at ~n ~beats =
  for _ = 1 to n do
    Arbiter.request arb ~src ~at ~beats ~is_read:true ~extra_latency:0
      ~on_grant:(fun g -> log := (src, g.Fabric.granted_at) :: !log)
  done

let test_arbiter_matches_fabric_single_source () =
  (* One source: the arbiter must grant exactly the legacy fabric's schedule
     (the event engine's differential equivalence rests on this). *)
  let f = Fabric.create Params.default in
  let expect =
    List.map
      (fun (at, beats) ->
        let g = Fabric.request f ~at ~beats ~is_read:true ~extra_latency:0 in
        (g.Fabric.granted_at, g.Fabric.data_done, g.Fabric.completed))
      [ (0, 8); (0, 2); (30, 4); (31, 1) ]
  in
  let sched = Ccsim.Sched.create () in
  let arb = Arbiter.create ~sched Params.default in
  let got = ref [] in
  List.iter
    (fun (at, beats) ->
      Arbiter.request arb ~src:7 ~at ~beats ~is_read:true ~extra_latency:0
        ~on_grant:(fun g ->
          got := (g.Fabric.granted_at, g.Fabric.data_done, g.Fabric.completed) :: !got))
    [ (0, 8); (0, 2); (30, 4); (31, 1) ];
  Ccsim.Sched.run sched;
  Alcotest.(check (list (triple int int int)))
    "same grant schedule as the fabric" expect (List.rev !got);
  checki "same beat accounting" (Fabric.total_beats f) (Arbiter.total_beats arb)

let test_arbiter_fairness_two_sources () =
  (* Two sources saturating from cycle 0: grants must alternate, so at every
     prefix of the grant sequence the sources' total beats are within one
     burst of each other. *)
  let beats = 8 and n = 10 in
  let sched = Ccsim.Sched.create () in
  let arb = Arbiter.create ~sched Params.default in
  let log = ref [] in
  saturate arb log ~src:0 ~at:0 ~n ~beats;
  saturate arb log ~src:1 ~at:0 ~n ~beats;
  Ccsim.Sched.run sched;
  let grants = List.rev !log in
  checki "all grants delivered" (2 * n) (List.length grants);
  let b0 = ref 0 and b1 = ref 0 in
  List.iter
    (fun (src, _) ->
      if src = 0 then b0 := !b0 + beats else b1 := !b1 + beats;
      checkb "prefix beat totals within one burst" true
        (abs (!b0 - !b1) <= beats))
    grants;
  checki "source 0 got half the beats" (n * beats) !b0;
  checki "source 1 got half the beats" (n * beats) !b1

let test_arbiter_late_arrival_served_within_one_round () =
  (* Two sources saturate the bus; a third arrives mid-stream.  Round-robin
     must grant it after at most one request from each competing source (no
     starvation), unlike the legacy fabric's global FIFO. *)
  let beats = 8 in
  let sched = Ccsim.Sched.create () in
  let arb = Arbiter.create ~sched Params.default in
  let log = ref [] in
  saturate arb log ~src:0 ~at:0 ~n:12 ~beats;
  saturate arb log ~src:1 ~at:0 ~n:12 ~beats;
  let arrival = 50 in
  Arbiter.request arb ~src:2 ~at:arrival ~beats ~is_read:true ~extra_latency:0
    ~on_grant:(fun g -> log := (2, g.Fabric.granted_at) :: !log);
  Ccsim.Sched.run sched;
  let grants = List.rev !log in
  let rec grants_between = function
    | [] -> Alcotest.fail "late source never granted"
    | (2, _) :: _ -> 0
    | (_, at) :: rest when at >= arrival -> 1 + grants_between rest
    | _ :: rest -> grants_between rest
  in
  let ahead = grants_between grants in
  checkb
    (Printf.sprintf "at most one grant per competitor before the late source \
                     (got %d)" ahead)
    true (ahead <= 2)

let test_arbiter_unregister_and_scan_order () =
  let sched = Ccsim.Sched.create () in
  let arb = Arbiter.create ~sched Params.default in
  let log = ref [] in
  saturate arb log ~src:0 ~at:0 ~n:1 ~beats:2;
  saturate arb log ~src:1 ~at:0 ~n:1 ~beats:2;
  saturate arb log ~src:2 ~at:0 ~n:1 ~beats:2;
  (* Refuses while requests are still queued. *)
  Alcotest.(check bool) "refused while queued" false (Arbiter.unregister arb ~src:2);
  Ccsim.Sched.run sched;
  Alcotest.(check (list int)) "rotation is first-request order" [ 0; 1; 2 ]
    (Arbiter.sources arb);
  (* Source 2 won last, so the scan restarts just after it. *)
  Alcotest.(check (list int)) "scan starts after the last winner" [ 0; 1; 2 ]
    (Arbiter.scan_order arb);
  checkb "idle source removed" true (Arbiter.unregister arb ~src:2);
  checkb "double unregister refused" false (Arbiter.unregister arb ~src:2);
  Alcotest.(check (list int)) "rotation without the removed source" [ 0; 1 ]
    (Arbiter.sources arb);
  (* The last winner is gone: the scan must fall back to plain
     first-request order instead of looping or skipping a source. *)
  Alcotest.(check (list int)) "scan falls back to plain order" [ 0; 1 ]
    (Arbiter.scan_order arb);
  (* The fallback order is the one the next grant actually uses. *)
  let log2 = ref [] in
  saturate arb log2 ~src:1 ~at:100 ~n:1 ~beats:2;
  saturate arb log2 ~src:0 ~at:100 ~n:1 ~beats:2;
  Ccsim.Sched.run sched;
  (match List.rev !log2 with
  | (first, _) :: _ -> checki "first grant follows the fallback order" 0 first
  | [] -> Alcotest.fail "no grants after unregister");
  (* A removed source re-registers transparently on its next request. *)
  saturate arb log2 ~src:2 ~at:200 ~n:1 ~beats:2;
  Ccsim.Sched.run sched;
  Alcotest.(check (list int)) "re-registered at the rotation tail" [ 0; 1; 2 ]
    (Arbiter.sources arb)

let test_arbiter_large_rotation_linear () =
  (* Regression for the slot-ring rotation: registering, granting through
     and tearing down a large source population must stay (near) linear.
     The pre-ring arbiter re-built the rotation list on every registration
     ([rotation @ [src]], O(K^2) total), allocated a K-cell scan list per
     arbitration, and [unregister]/[queue_of] filtered full lists — at this
     population that took minutes of CPU; linear is well under the bound
     even on a loaded CI machine. *)
  let n = 1 lsl 16 in
  let t0 = Sys.time () in
  let sched = Ccsim.Sched.create () in
  let arb = Arbiter.create ~sched Params.default in
  let grants = ref 0 in
  for src = 0 to n - 1 do
    Arbiter.request arb ~src ~at:0 ~beats:1 ~is_read:false ~extra_latency:0
      ~on_grant:(fun _ -> incr grants)
  done;
  checki "registration is first-request order (spot check)" n
    (List.length (Arbiter.sources arb));
  Ccsim.Sched.run sched;
  checki "every source granted" n !grants;
  checki "queues drained" 0 (Arbiter.queued arb);
  for src = 0 to n - 1 do
    checkb "idle source unregisters" true (Arbiter.unregister arb ~src)
  done;
  Alcotest.(check (list int)) "rotation empty after teardown" []
    (Arbiter.sources arb);
  (* Re-register a second wave into recycled slots and drain it too. *)
  for src = n to (2 * n) - 1 do
    Arbiter.request arb ~src ~at:0 ~beats:1 ~is_read:false ~extra_latency:0
      ~on_grant:(fun _ -> incr grants)
  done;
  Ccsim.Sched.run sched;
  checki "second wave granted" (2 * n) !grants;
  let dt = Sys.time () -. t0 in
  checkb
    (Printf.sprintf "%d-source churn stays linear (%.2fs CPU)" n dt)
    true
    (dt < 20.0)

(* Source ids index an array that grows to the largest id seen: grant order,
   rotation and scan order across unregister/re-register churn must be
   exactly first-request round robin, with ids far past the array's current
   size (forcing growth mid-run) treated like any other. *)
let test_arbiter_source_ids_grow_index () =
  let sched = Ccsim.Sched.create () in
  let arb = Arbiter.create ~sched Params.default in
  let log = ref [] in
  let req src ~at =
    Arbiter.request arb ~src ~at ~beats:2 ~is_read:true ~extra_latency:0
      ~on_grant:(fun g -> log := (src, g.Fabric.granted_at) :: !log)
  in
  let view () = (Arbiter.sources arb, Arbiter.scan_order arb) in
  let views = Alcotest.(pair (list int) (list int)) in
  List.iter (fun src -> req src ~at:0; req src ~at:0) [ 0; 4_097; 2; 100_000 ];
  Ccsim.Sched.run sched;
  Alcotest.(check (list bool)) "unregister outcomes" [ true; true; false ]
    (List.map (fun src -> Arbiter.unregister arb ~src) [ 4_097; 100_000; 100_000 ]);
  Alcotest.check views "after removal" ([ 0; 2 ], [ 0; 2 ]) (view ());
  List.iter (fun src -> req src ~at:100) [ 7; 4_097; 0 ];
  Ccsim.Sched.run sched;
  Alcotest.check views "after re-register" ([ 0; 2; 7; 4_097 ], [ 0; 2; 7; 4_097 ])
    (view ());
  List.iter (fun src -> req src ~at:200) [ 2; 100_000; 0 ];
  Ccsim.Sched.run sched;
  Alcotest.check views "final" ([ 0; 2; 7; 4_097; 100_000 ], [ 7; 4_097; 100_000; 0; 2 ])
    (view ());
  Alcotest.(check (list (pair int int))) "grant order"
    [ (0, 0); (4_097, 3); (2, 6); (100_000, 9); (0, 12); (4_097, 15); (2, 18);
      (100_000, 21); (0, 100); (7, 103); (4_097, 106); (100_000, 200); (0, 203);
      (2, 206) ]
    (List.rev !log);
  Alcotest.check_raises "negative source id"
    (Invalid_argument "Arbiter.request: negative source id") (fun () ->
      req (-1) ~at:300)

(* ---- interconnect topologies ---- *)

let topo_request ic log ~src ~addr ~at ~beats =
  Topology.request ic ~src ~target:(Topology.target_for ic ~addr) ~at ~beats
    ~is_read:true ~extra_latency:0
    ~on_grant:(fun g -> log := (src, g.Fabric.granted_at) :: !log)

let test_topology_shared_matches_fabric () =
  (* The Shared topology is the differential oracle: a single-source run
     must grant exactly the legacy fabric's schedule. *)
  let f = Fabric.create Params.default in
  let reqs = [ (0, 8); (0, 2); (30, 4); (31, 1) ] in
  let expect =
    List.map
      (fun (at, beats) ->
        let g = Fabric.request f ~at ~beats ~is_read:true ~extra_latency:0 in
        (g.Fabric.granted_at, g.Fabric.data_done, g.Fabric.completed))
      reqs
  in
  let sched = Ccsim.Sched.create () in
  let ic = Topology.create ~sched ~kind:Topology.Shared Params.default in
  let got = ref [] in
  List.iter
    (fun (at, beats) ->
      Topology.request ic ~src:3 ~target:0 ~at ~beats ~is_read:true
        ~extra_latency:0 ~on_grant:(fun g ->
          got := (g.Fabric.granted_at, g.Fabric.data_done, g.Fabric.completed) :: !got))
    reqs;
  Ccsim.Sched.run sched;
  Alcotest.(check (list (triple int int int)))
    "same grant schedule as the fabric" expect (List.rev !got);
  checki "same beat accounting" (Fabric.total_beats f) (Topology.total_beats ic)

let test_topology_crossbar_concurrent_disjoint_banks () =
  let sched = Ccsim.Sched.create () in
  let ic =
    Topology.create ~sched ~kind:(Topology.Crossbar { banks = 4 }) Params.default
  in
  checki "4 targets" 4 (Topology.targets ic);
  checki "stripe 0" 0 (Topology.target_for ic ~addr:0);
  checki "stripe 1" 1 (Topology.target_for ic ~addr:Topology.bank_interleave);
  let log = ref [] in
  (* Different banks: both granted at cycle 0 (concurrent grants). *)
  topo_request ic log ~src:0 ~addr:0 ~at:0 ~beats:8;
  topo_request ic log ~src:1 ~addr:Topology.bank_interleave ~at:0 ~beats:8;
  (* Same bank as source 0: must serialize behind it. *)
  topo_request ic log ~src:2 ~addr:64 ~at:0 ~beats:8;
  Ccsim.Sched.run sched;
  let at src = List.assoc src (List.rev !log) in
  checki "bank 0 grants at 0" 0 (at 0);
  checki "bank 1 grants concurrently" 0 (at 1);
  checkb "same-bank traffic serializes" true (at 2 > 0);
  checki "beats summed over banks" 24 (Topology.total_beats ic)

let test_topology_hierarchical_uplink () =
  (* An uncontended request pays the uplink to the root and the hop back:
     same data schedule as the shared bus, shifted by one uplink, with the
     return hop added to completion. *)
  let f = Fabric.create Params.default in
  let g = Fabric.request f ~at:0 ~beats:4 ~is_read:true ~extra_latency:0 in
  let sched = Ccsim.Sched.create () in
  let ic =
    Topology.create ~sched ~kind:(Topology.Hierarchical { clusters = 4 })
      Params.default
  in
  let got = ref None in
  Topology.request ic ~src:0 ~target:0 ~at:0 ~beats:4 ~is_read:true
    ~extra_latency:0 ~on_grant:(fun g -> got := Some g);
  Ccsim.Sched.run sched;
  match !got with
  | None -> Alcotest.fail "no grant"
  | Some h ->
      checki "granted one uplink later" (g.Fabric.granted_at + Topology.uplink_latency)
        h.Fabric.granted_at;
      checki "completion adds the return hop"
        (g.Fabric.completed + (2 * Topology.uplink_latency))
        h.Fabric.completed

(* Same request set, sources registered in permuted order: the rotation (and
   hence individual grant cycles) may differ, but the bandwidth share must
   not — per-source grant counts and the total beat count are invariant, and
   repeating the identical setup must reproduce the identical grant log. *)
let topology_fairness_run kind order =
  let sched = Ccsim.Sched.create () in
  let ic = Topology.create ~sched ~kind Params.default in
  let log = ref [] in
  List.iter
    (fun src ->
      for i = 0 to 7 do
        topo_request ic log ~src
          ~addr:(((src * 8) + i) * Topology.bank_interleave)
          ~at:0 ~beats:4
      done)
    order;
  Ccsim.Sched.run sched;
  (List.rev !log, Topology.total_beats ic)

let test_topology_fairness_and_determinism () =
  List.iter
    (fun kind ->
      let name = Topology.kind_to_string kind in
      let base, beats = topology_fairness_run kind [ 0; 1; 2; 3 ] in
      let again, beats' = topology_fairness_run kind [ 0; 1; 2; 3 ] in
      checkb (name ^ ": repeat run grant-identical") true (base = again);
      checki (name ^ ": repeat run beat-identical") beats beats';
      let permuted, beats'' = topology_fairness_run kind [ 3; 1; 0; 2 ] in
      checki (name ^ ": beats invariant under registration order") beats beats'';
      let count src l =
        List.length (List.filter (fun (s, _) -> s = src) l)
      in
      List.iter
        (fun src ->
          checki
            (Printf.sprintf "%s: source %d grant count invariant" name src)
            (count src base) (count src permuted))
        [ 0; 1; 2; 3 ];
      (* Makespan (last grant cycle) is also registration-order invariant:
         the rotation permutes who goes first, not how much anyone gets. *)
      let last l = List.fold_left (fun acc (_, at) -> max acc at) 0 l in
      checki (name ^ ": last grant invariant") (last base) (last permuted))
    [ Topology.Shared; Topology.Crossbar { banks = 4 };
      Topology.Hierarchical { clusters = 4 } ]

let test_topology_kind_strings () =
  let roundtrip k =
    match Topology.kind_of_string (Topology.kind_to_string k) with
    | Ok k' -> k = k'
    | Error _ -> false
  in
  checkb "shared roundtrip" true (roundtrip Topology.Shared);
  checkb "crossbar roundtrip" true (roundtrip (Topology.Crossbar { banks = 8 }));
  checkb "hier roundtrip" true
    (roundtrip (Topology.Hierarchical { clusters = 2 }));
  checkb "xbar alias" true
    (Topology.kind_of_string "xbar:2" = Ok (Topology.Crossbar { banks = 2 }));
  checkb "bare crossbar uses the default" true
    (Topology.kind_of_string "crossbar"
    = Ok (Topology.Crossbar { banks = Topology.default_banks }));
  checkb "garbage rejected" true
    (match Topology.kind_of_string "mesh" with Error _ -> true | Ok _ -> false);
  checkb "zero banks rejected" true
    (match Topology.kind_of_string "crossbar:0" with
    | Error _ -> true
    | Ok _ -> false);
  let rejected_naming_limit s =
    match Topology.kind_of_string s with
    | Ok _ -> false
    | Error msg ->
        let limit = string_of_int Topology.max_count in
        let n = String.length limit in
        List.exists
          (fun i -> String.sub msg i n = limit)
          (List.init (String.length msg - n + 1) Fun.id)
  in
  checkb "the limit itself accepted" true
    (Topology.kind_of_string "hier:4096"
    = Ok (Topology.Hierarchical { clusters = 4096 }));
  List.iter
    (fun s -> checkb (s ^ " rejected, naming the limit") true (rejected_naming_limit s))
    [ "crossbar:4097"; "crossbar:100000000"; "crossbar:1000000000000";
      "hier:4097"; "hier:4611686018427387903"; "xbar:-1" ];
  List.iter
    (fun kind ->
      match
        Topology.create ~sched:(Ccsim.Sched.create ()) ~kind Params.default
      with
      | _ -> Alcotest.failf "%s created" (Topology.kind_to_string kind)
      | exception Invalid_argument _ -> ())
    [ Topology.Crossbar { banks = 0 }; Topology.Crossbar { banks = 4097 };
      Topology.Hierarchical { clusters = -2 };
      Topology.Hierarchical { clusters = max_int } ]

(* A contended event-engine run must drop redundant arbitration events
   rather than enqueue one per request (see [Arbiter.schedule_arbitration]). *)
let test_coalescing_counter_moves () =
  Soc.Fastpath.clear ();
  Obs.Counters.reset ();
  ignore
    (Soc.Run.run ~tasks:8 ~engine:Soc.Run.Event_driven Soc.Config.ccpu_caccel
       (Machsuite.Registry.find "kmp"));
  checkb "contended run coalesces arbitration events" true
    (Obs.Counters.get Obs.Counters.events_coalesced > 0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_fifo_monotonic; prop_beats_conserved ]

let suite =
  [
    ("beats_for", `Quick, test_beats_for);
    ("single request", `Quick, test_fabric_single_request);
    ("bus serializes", `Quick, test_fabric_serializes);
    ("idle gap", `Quick, test_fabric_idle_gap);
    ("extra latency", `Quick, test_fabric_extra_latency);
    ("write latency", `Quick, test_fabric_write_latency);
    ("address map", `Quick, test_addr_map);
    ("arbiter: single source = fabric", `Quick,
     test_arbiter_matches_fabric_single_source);
    ("arbiter: two-source fairness", `Quick, test_arbiter_fairness_two_sources);
    ("arbiter: late arrival served", `Quick,
     test_arbiter_late_arrival_served_within_one_round);
    ("arbiter: unregister and scan-order fallback", `Quick,
     test_arbiter_unregister_and_scan_order);
    ("arbiter: 65536-source churn stays linear", `Quick,
     test_arbiter_large_rotation_linear);
    ("arbiter: source ids grow the index", `Quick,
     test_arbiter_source_ids_grow_index);
    ("topology: shared matches fabric", `Quick,
     test_topology_shared_matches_fabric);
    ("topology: crossbar concurrent disjoint banks", `Quick,
     test_topology_crossbar_concurrent_disjoint_banks);
    ("topology: hierarchical uplink", `Quick, test_topology_hierarchical_uplink);
    ("topology: fairness and determinism", `Quick,
     test_topology_fairness_and_determinism);
    ("topology: kind strings", `Quick, test_topology_kind_strings);
    ("coalescing counter moves", `Quick, test_coalescing_counter_moves);
  ]
  @ qsuite
