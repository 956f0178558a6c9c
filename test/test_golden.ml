(* A golden digest over a matrix of complete [Soc.Run.result]s.  Every field
   is rendered as text (floats as [%.6f], the [bench/perf] convention) and
   the whole rendering is MD5-hashed against a pinned value, so a change
   that reorganizes how runs are executed must reproduce every cycle,
   verdict, denial, area and fault counter bit for bit.  The matrix crosses
   benches, protection configs, both engines, one and four tasks, elision
   off and on, mixed systems (with and without a repeated bench), seeded
   fault plans and CPU-only runs, under both the fast and the interpretive
   fast-path mode. *)

let golden = "dd431e3c5e14094deb85f4918e294548"

let render b (r : Soc.Run.result) =
  let p = r.phases and f = r.faults in
  Printf.bprintf b
    "%s %s tasks=%d phases=%d,%d,%d,%d wall=%d correct=%b checks=%d \
     elided=%d entries_peak=%d bus_beats=%d area_luts=%d power_mw=%.6f \
     recovered=%d faults=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n"
    r.config_label r.benchmark r.tasks p.alloc p.init p.compute p.teardown
    r.wall r.correct r.checks r.elided_checks r.entries_peak r.bus_beats
    r.area_luts r.power_mw r.recovered f.bus_stalls f.bus_stall_cycles
    f.bus_errors f.guard_denials f.table_fulls f.cache_drops f.alloc_fails
    f.retries f.backoff_cycles f.fallbacks;
  List.iter
    (fun (d : Guard.Iface.denial) ->
      Printf.bprintf b "  denial %s %s\n" d.code d.detail)
    r.denials;
  List.iter
    (fun (fb : Soc.Run.fallback) ->
      Printf.bprintf b "  fallback %d %s\n" fb.task fb.reason)
    r.fallbacks

let bench = Machsuite.Registry.find

let hetero_configs =
  [ Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel; Soc.Config.ccpu_caccel_cached;
    Soc.Config.Hetero
      { cpu_isa = Cpu.Model.Cheri_rv64; protection = Soc.Config.Prot_iommu } ]

let engines = [ Soc.Run.Legacy_replay; Soc.Run.Event_driven ]
let elides = [ Soc.Run.Elide_off; Soc.Run.Elide_on ]

(* kmp is the slowest of the three benches to interpret; two tasks exercise
   its replication and contention at half the cost of four. *)
let task_counts (b : Machsuite.Bench_def.t) =
  if b.name = "kmp" then [ 1; 2 ] else [ 1; 4 ]

let render_matrix b =
  let benches = List.map bench [ "aes"; "spmv_crs"; "kmp" ] in
  List.iter
    (fun bn ->
      List.iter
        (fun config ->
          List.iter
            (fun engine ->
              List.iter
                (fun tasks ->
                  List.iter
                    (fun elide ->
                      render b (Soc.Run.run ~tasks ~engine ~elide config bn))
                    elides)
                (task_counts bn))
            engines)
        hetero_configs;
      List.iter
        (fun config ->
          List.iter
            (fun tasks -> render b (Soc.Run.run ~tasks config bn))
            (task_counts bn))
        [ Soc.Config.cpu; Soc.Config.ccpu ])
    benches;
  let mixes =
    [ List.map bench [ "aes"; "aes"; "spmv_crs" ];
      List.map bench [ "aes"; "spmv_crs"; "kmp" ] ]
  in
  List.iter
    (fun mix ->
      List.iter
        (fun config ->
          List.iter
            (fun engine ->
              List.iter
                (fun elide -> render b (Soc.Run.run_mixed ~engine ~elide config mix))
                elides)
            engines)
        hetero_configs)
    mixes;
  List.iter
    (fun seed ->
      let faults = Fault.Plan.default ~seed in
      List.iter
        (fun engine ->
          render b
            (Soc.Run.run ~tasks:4 ~faults ~engine Soc.Config.ccpu_caccel
               (bench "aes"));
          render b
            (Soc.Run.run_mixed ~faults ~engine Soc.Config.ccpu_caccel
               (List.hd mixes)))
        engines)
    [ 1; 2 ]

(* The contended fabrics at absolute cycles: every non-shared topology cell
   under both checker placements, two and four tasks, plus one seeded fault
   run per cell (the matrix above is shared-bus only). *)
let topology_golden = "580d30b6764b6180b48ccc7dd76e98ad"

let render_topology_matrix b =
  List.iter
    (fun bn ->
      List.iter
        (fun topology ->
          List.iter
            (fun checkers ->
              let run ?faults tasks =
                render b
                  (Soc.Run.run ~tasks ?faults ~engine:Soc.Run.Event_driven
                     ~topology ~checkers Soc.Config.ccpu_caccel bn)
              in
              run 2;
              run 4;
              run ~faults:(Fault.Plan.default ~seed:1) 4)
            [ Capchecker.Shim.Central; Capchecker.Shim.Distributed ])
        [ Bus.Topology.Crossbar { banks = 4 }; Bus.Topology.Crossbar { banks = 8 };
          Bus.Topology.Hierarchical { clusters = 4 } ])
    (List.map bench [ "aes"; "spmv_crs" ])

(* Render [matrix] under the fast and the interpretive fast-path mode and
   check the digest of the whole rendering against [expect]. *)
let check_digest name expect matrix =
  let b = Buffer.create 65536 in
  Fun.protect
    ~finally:(fun () -> Soc.Fastpath.set_mode Soc.Fastpath.Fast)
    (fun () ->
      List.iter
        (fun mode ->
          Soc.Fastpath.clear ();
          Soc.Fastpath.set_mode mode;
          matrix b)
        [ Soc.Fastpath.Fast; Soc.Fastpath.Interpretive ]);
  Alcotest.(check string) name expect
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_digest () =
  check_digest "digest of every rendered result" golden render_matrix

let test_topology_digest () =
  check_digest "digest of every contended-fabric result" topology_golden
    render_topology_matrix

let suite =
  [ Alcotest.test_case "soc result digest" `Quick test_digest;
    Alcotest.test_case "topology result digest" `Quick test_topology_digest ]
