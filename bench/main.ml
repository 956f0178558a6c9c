(* The evaluation harness: regenerates every table and figure of the paper's
   §6 (Tables 1-3, Figures 7-12) on the simulated system, then runs one
   Bechamel micro-benchmark per experiment over its core data path.

   Output is plain text so runs can be diffed against EXPERIMENTS.md. *)

let section = Ccsim.Report.section

(* Worker domains for the embarrassingly parallel sections (set by --jobs;
   Ccsim.Pool semantics: 1 = serial, 0 = all cores).  Parallelism only
   changes wall-clock: every section draws its RNG picks serially before
   dispatch and prints from index-ordered results after the pool barrier,
   so stdout is identical at every value. *)
let jobs_ref = ref 1
let jobs () = !jobs_ref

(* Timing snapshot filled by the `parallel` section, reported by --json. *)
let parallel_snapshot : (int * float * float * float) option ref = ref None

(* ------------------------------------------------------------------ *)
(* Shared measurement store: each benchmark is executed once per system
   configuration and the tables below read from here.                  *)
(* ------------------------------------------------------------------ *)

type measurements = {
  bench : Machsuite.Bench_def.t;
  cpu1 : Soc.Run.result;          (* single task on the RV64 CPU *)
  accel1 : Soc.Run.result;        (* single unguarded accelerator task *)
  by_config : (string * Soc.Run.result) list;  (* the five configs, 8 tasks *)
}

let measure (bench : Machsuite.Bench_def.t) =
  let by_config =
    List.map
      (fun config ->
        let r = Soc.Run.run ~tasks:8 config bench in
        if not r.Soc.Run.correct then
          failwith
            (Printf.sprintf "%s mis-executed under %s" bench.name
               r.Soc.Run.config_label);
        (r.Soc.Run.config_label, r))
      Soc.Config.evaluated
  in
  {
    bench;
    cpu1 = Soc.Run.run ~tasks:1 Soc.Config.cpu bench;
    accel1 = Soc.Run.run ~tasks:1 Soc.Config.ccpu_accel bench;
    by_config;
  }

(* Computed on first use (sections that don't read it never pay for it) and
   at most once per process.  The cell is only touched from the main domain;
   the parallelism is inside Pool.map, over per-benchmark jobs that share
   nothing. *)
let store_cell : measurements list option ref = ref None

let store () =
  match !store_cell with
  | Some s -> s
  | None ->
      let j = Ccsim.Pool.resolve (jobs ()) in
      if j > 1 then
        Printf.eprintf "[bench] measuring %d benchmarks on %d domains...\n%!"
          (List.length Machsuite.Registry.all) j;
      let s =
        Ccsim.Pool.map ~jobs:j
          (fun b ->
            if j <= 1 then
              Printf.eprintf "[bench] measuring %s...\n%!"
                b.Machsuite.Bench_def.name;
            measure b)
          Machsuite.Registry.all
      in
      store_cell := Some s;
      s

let get label m = List.assoc label m.by_config
let base8 m = get "ccpu+accel" m
let cc8 m = get "ccpu+caccel" m

let ratio a b = float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  print_string (section "Table 1: traditional I/O protection methods vs CHERI");
  let rows =
    [
      [ "Spatial enforcement"; "no"; "yes"; "yes"; "yes" ];
      [ "- granularity (bytes)"; "-"; "1"; "4096"; "1" ];
      [ "Common object representation"; "no"; "no"; "no"; "yes" ];
      [ "Unforgeability"; "no"; "no"; "no"; "yes" ];
      [ "Scalability"; "yes"; "no"; "yes"; "semi" ];
      [ "Address translation"; "no"; "no"; "yes"; "optional" ];
      [ "Suitable for microcontrollers"; "yes"; "yes"; "no"; "yes" ];
      [ "Suitable for application processors"; "yes"; "no"; "yes"; "yes" ];
      [ "Model area (LUTs, this prototype)"; "0";
        string_of_int (Guard.Iopmp.as_guard (Guard.Iopmp.create ())).Guard.Iface.info.area_luts;
        string_of_int (Guard.Iommu.as_guard (Guard.Iommu.create ())).Guard.Iface.info.area_luts;
        string_of_int (Capchecker.Area.luts ~entries:256) ];
    ]
  in
  print_endline
    (Ccsim.Report.table
       ~header:[ "Property"; "No method"; "IOPMP"; "IOMMU"; "CHERI (CapChecker)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Table 2                                                              *)
(* ------------------------------------------------------------------ *)

let table2 () =
  print_string
    (section "Table 2: benchmark buffer inventory (8 instances, 256 entries)");
  let rows =
    List.map
      (fun (b : Machsuite.Bench_def.t) ->
        let sizes = List.map Kernel.Ir.buf_decl_bytes b.kernel.Kernel.Ir.bufs in
        let count = 8 * List.length sizes in
        [
          b.name;
          string_of_int count;
          string_of_int (List.fold_left min max_int sizes);
          string_of_int (List.fold_left max 0 sizes);
        ])
      Machsuite.Registry.all
  in
  print_endline
    (Ccsim.Report.table ~header:[ "Benchmark"; "Buffers"; "Min B"; "Max B" ] rows)

(* ------------------------------------------------------------------ *)
(* Table 3                                                              *)
(* ------------------------------------------------------------------ *)

let table3 () =
  print_string (section "Table 3: CWE memory-weakness matrix (attack suite)");
  print_endline (Security.Matrix.render ~jobs:(jobs ()) ());
  let own, cross = Security.Attacks.coarse_object_id_forge () in
  Printf.printf
    "\nCoarse object-id forging: same-task object -> %s; cross-task -> %s\n"
    (Security.Attacks.outcome_to_string own)
    (Security.Attacks.outcome_to_string cross);
  print_endline "Capability forging through DMA writes over a tagged capability:";
  List.iter
    (fun (label, p) ->
      Printf.printf "  %-10s -> %s\n" label
        (Security.Attacks.outcome_to_string (Security.Attacks.forge_capability p)))
    Security.Matrix.schemes

(* ------------------------------------------------------------------ *)
(* Figure 7: accelerator speedup (single task, kernel offload time)     *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  print_string (section "Figure 7: accelerator speedup over the CPU (log scale)");
  let rows =
    List.map
      (fun m ->
        let speedup =
          ratio m.cpu1.Soc.Run.phases.Soc.Run.compute
            m.accel1.Soc.Run.phases.Soc.Run.compute
        in
        [
          m.bench.Machsuite.Bench_def.name;
          Ccsim.Report.fixed 2 speedup;
          Ccsim.Report.log_bar ~width:36 ~max:10_000.0 speedup;
        ])
      (store ())
  in
  print_endline
    (Ccsim.Report.table ~header:[ "Benchmark"; "Speedup"; "log10 0..10^4" ] rows)

(* ------------------------------------------------------------------ *)
(* Figure 8: CapChecker overhead on performance, power and area         *)
(* ------------------------------------------------------------------ *)

let offload_wall (r : Soc.Run.result) = r.Soc.Run.wall - r.Soc.Run.phases.Soc.Run.init

let fig8 () =
  print_string
    (section
       "Figure 8: overhead of adding the CapChecker (ccpu+caccel vs ccpu+accel, 8 tasks)");
  let perf = ref [] and offl = ref [] and area = ref [] and power = ref [] in
  let rows =
    List.map
      (fun m ->
        let base = base8 m and cc = cc8 m in
        let perf_o = ratio cc.Soc.Run.wall base.Soc.Run.wall -. 1.0 in
        let offl_o = ratio (offload_wall cc) (offload_wall base) -. 1.0 in
        let area_o = ratio cc.Soc.Run.area_luts base.Soc.Run.area_luts -. 1.0 in
        let power_o = (cc.Soc.Run.power_mw /. base.Soc.Run.power_mw) -. 1.0 in
        perf := (1.0 +. perf_o) :: !perf;
        offl := (1.0 +. offl_o) :: !offl;
        area := (1.0 +. area_o) :: !area;
        power := (1.0 +. power_o) :: !power;
        [
          m.bench.Machsuite.Bench_def.name;
          Ccsim.Report.pct perf_o;
          Ccsim.Report.pct offl_o;
          Ccsim.Report.pct area_o;
          Ccsim.Report.pct power_o;
        ])
      (store ())
  in
  let geo xs = Ccsim.Report.pct (Ccsim.Stats.geomean !xs -. 1.0) in
  let rows = rows @ [ [ "geomean"; geo perf; geo offl; geo area; geo power ] ] in
  print_endline
    (Ccsim.Report.table
       ~header:[ "Benchmark"; "Perf (wall)"; "Perf (offload)"; "Area"; "Power" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Figure 9: 20 systems with mixed accelerators                          *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  print_string (section "Figure 9: 20 mixed 8-accelerator systems");
  let rng = Ccsim.Rng.create 0x5EED in
  let all = Array.of_list Machsuite.Registry.all in
  (* Draw every system's composition serially before dispatch — the RNG is
     the only shared mutable state, so its stream must not depend on
     scheduling.  Each pool job then boots its own pair of systems. *)
  let systems =
    List.init 20 (fun _ ->
        Array.to_list (Array.init 8 (fun _ -> Ccsim.Rng.choose rng all)))
  in
  let measured =
    Ccsim.Pool.map ~jobs:(jobs ())
      (fun benches ->
        let base = Soc.Run.run_mixed Soc.Config.ccpu_accel benches in
        let cc = Soc.Run.run_mixed Soc.Config.ccpu_caccel benches in
        assert base.Soc.Run.correct;
        assert cc.Soc.Run.correct;
        (base.Soc.Run.wall, cc.Soc.Run.wall))
      systems
  in
  let overheads =
    List.mapi
      (fun idx ((base_wall, cc_wall), benches) ->
        let o = ratio cc_wall base_wall -. 1.0 in
        Printf.printf "  system %2d: wall %9d -> %9d  overhead %s  [%s]\n" (idx + 1)
          base_wall cc_wall (Ccsim.Report.pct o)
          (String.concat ","
             (List.map (fun (b : Machsuite.Bench_def.t) -> b.name) benches));
        1.0 +. o)
      (List.combine measured systems)
  in
  let homogeneous =
    List.map
      (fun m -> ratio (cc8 m).Soc.Run.wall (base8 m).Soc.Run.wall)
      (store ())
  in
  Printf.printf "mixed-system overhead geomean: %s (homogeneous geomean %s)\n"
    (Ccsim.Report.pct (Ccsim.Stats.geomean overheads -. 1.0))
    (Ccsim.Report.pct (Ccsim.Stats.geomean homogeneous -. 1.0))

(* ------------------------------------------------------------------ *)
(* Contention: event-driven core vs trace-then-replay on mixed systems   *)
(* ------------------------------------------------------------------ *)

let contention () =
  print_string
    (section
       "Contention: event-driven makespan vs legacy replay (mixed 8-accel \
        systems)");
  let rng = Ccsim.Rng.create 0x5EED in
  let all = Array.of_list Machsuite.Registry.all in
  let systems =
    List.init 8 (fun _ ->
        Array.to_list (Array.init 8 (fun _ -> Ccsim.Rng.choose rng all)))
  in
  let measured =
    Ccsim.Pool.map ~jobs:(jobs ())
      (fun benches ->
        let replay =
          Soc.Run.run_mixed ~engine:Soc.Run.Legacy_replay Soc.Config.ccpu_caccel
            benches
        in
        let event =
          Soc.Run.run_mixed ~engine:Soc.Run.Event_driven Soc.Config.ccpu_caccel
            benches
        in
        assert replay.Soc.Run.correct;
        assert event.Soc.Run.correct;
        ( replay.Soc.Run.phases.Soc.Run.compute,
          event.Soc.Run.phases.Soc.Run.compute ))
      systems
  in
  let deltas =
    List.mapi
      (fun idx ((rc, ec), benches) ->
        let delta = ratio ec rc -. 1.0 in
        Printf.printf
          "  system %2d: replay makespan %9d  event %9d  delta %s  [%s]\n"
          (idx + 1) rc ec (Ccsim.Report.pct delta)
          (String.concat ","
             (List.map (fun (b : Machsuite.Bench_def.t) -> b.name) benches));
        1.0 +. delta)
      (List.combine measured systems)
  in
  Printf.printf
    "event/replay makespan geomean: %s (round-robin arbitration vs global \
     earliest-ready FIFO)\n"
    (Ccsim.Report.pct (Ccsim.Stats.geomean deltas -. 1.0))

(* ------------------------------------------------------------------ *)
(* Figure 10: wall-clock breakdown over the five configurations          *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  print_string (section "Figure 10: wall-clock breakdown (cycles, 8 tasks)");
  List.iter
    (fun m ->
      Printf.printf "\n-- %s --\n" m.bench.Machsuite.Bench_def.name;
      let rows =
        List.map
          (fun (label, (r : Soc.Run.result)) ->
            [
              label;
              string_of_int r.Soc.Run.wall;
              string_of_int r.Soc.Run.phases.Soc.Run.alloc;
              string_of_int r.Soc.Run.phases.Soc.Run.init;
              string_of_int r.Soc.Run.phases.Soc.Run.compute;
              string_of_int r.Soc.Run.phases.Soc.Run.teardown;
              Ccsim.Report.fixed 3
                (ratio r.Soc.Run.wall (get "cpu" m).Soc.Run.wall);
            ])
          m.by_config
      in
      print_endline
        (Ccsim.Report.table
           ~header:
             [ "Config"; "Wall"; "Alloc"; "Init"; "Compute"; "Teardown"; "vs cpu" ]
           rows))
    (store ())

(* ------------------------------------------------------------------ *)
(* Figure 11: gemm_ncubed over degrees of parallelism                    *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  print_string (section "Figure 11: gemm_ncubed vs degree of parallelism");
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  let sweep =
    Soc.Run.sweep_many ~jobs:(jobs ()) ~tasks_list:[ 1; 2; 4; 8; 16 ]
      [ (Soc.Config.cpu, None);
        (Soc.Config.ccpu_accel, Some 16);
        (Soc.Config.ccpu_caccel, Some 16) ]
      bench
  in
  let rows =
    List.map
      (fun (tasks, results) ->
        let cpu, base, cc =
          match results with
          | [ cpu; base; cc ] -> (cpu, base, cc)
          | _ -> assert false
        in
        let speedup = ratio cpu.Soc.Run.wall base.Soc.Run.wall in
        let overhead = ratio cc.Soc.Run.wall base.Soc.Run.wall -. 1.0 in
        [
          string_of_int tasks;
          string_of_int base.Soc.Run.wall;
          string_of_int cc.Soc.Run.wall;
          Ccsim.Report.fixed 1 speedup;
          Ccsim.Report.pct overhead;
        ])
      sweep
  in
  print_endline
    (Ccsim.Report.table
       ~header:
         [ "Parallel tasks"; "Wall (base)"; "Wall (cc)"; "Speedup vs cpu"; "Overhead" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Figure 12: IOMMU vs CapChecker entry counts                           *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  print_string
    (section "Figure 12: protection entries needed (8 instances; IOMMU page = 4 KiB)");
  let rows =
    List.map
      (fun (b : Machsuite.Bench_def.t) ->
        let bufs = b.kernel.Kernel.Ir.bufs in
        let cc = 8 * List.length bufs in
        let iommu =
          8
          * List.fold_left
              (fun acc d ->
                acc
                + Guard.Iommu.entries_for_range ~base:0
                    ~size:(Kernel.Ir.buf_decl_bytes d))
              0 bufs
        in
        [ b.name; string_of_int iommu; string_of_int cc;
          Ccsim.Report.fixed 1 (ratio iommu cc) ])
      Machsuite.Registry.all
  in
  print_endline
    (Ccsim.Report.table
       ~header:[ "Benchmark"; "IOMMU entries"; "CapChecker entries"; "IOMMU/CC" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

let ablation_placement () =
  print_string
    (section "Ablation A: one shared CapChecker vs one per accelerator (§5.2.1)");
  (* The paper argues that on an interconnect granting one access per cycle,
     distributing CapCheckers buys no bandwidth — only area: the per-request
     check is pipelined, so it is never the bottleneck, while each extra
     CapChecker duplicates the decoder, exception unit and MMIO port.  Our
     replay model makes the performance identity exact; what remains is the
     area cost of splitting the same total entry capacity N ways. *)
  let rows =
    List.map
      (fun entries ->
        let shared = Capchecker.Area.luts ~entries in
        let split = 8 * Capchecker.Area.luts ~entries:(entries / 8) in
        [ string_of_int entries; string_of_int shared; string_of_int split;
          Ccsim.Report.pct (ratio split shared -. 1.0) ])
      [ 64; 128; 256 ]
  in
  print_endline
    (Ccsim.Report.table
       ~header:
         [ "Total entries"; "Shared LUTs"; "8 per-accel LUTs"; "Area delta" ]
       rows);
  print_endline
    "(makespans are identical on a single-grant interconnect; distribution\n\
    \ only adds area — the prototype's single shared CapChecker, as deployed.\n\
    \ The `interconnect` section re-asks this on concurrent topologies,\n\
    \ where the answer flips past the crossover task count)"

let ablation_table_size () =
  print_string (section "Ablation B: capability-table sizing (§5.2.3)");
  let bench = Machsuite.Registry.find "md_grid" in  (* 7 buffers/task *)
  let rows =
    List.map
      (fun entries ->
        let fits =
          match Soc.Run.run ~tasks:8 ~cc_entries:entries Soc.Config.ccpu_caccel bench with
          | r -> if r.Soc.Run.correct then "yes" else "mis-executed"
          | exception Failure msg ->
              if String.length msg > 30 then "stalls (table full)" else msg
        in
        [ string_of_int entries;
          string_of_int (Capchecker.Area.luts ~entries);
          fits ])
      [ 32; 64; 128; 256 ]
  in
  print_endline
    (Ccsim.Report.table
       ~header:[ "Entries"; "LUTs"; "8x md_grid (56 caps) fits?" ] rows)

let ablation_cached () =
  print_string
    (section "Ablation C: cached CapChecker vs flat 256-entry table (§5.2.3)");
  let rows =
    List.map
      (fun name ->
        let bench = Machsuite.Registry.find name in
        let flat = Soc.Run.run ~tasks:8 Soc.Config.ccpu_caccel bench in
        let cached = Soc.Run.run ~tasks:8 Soc.Config.ccpu_caccel_cached bench in
        assert (flat.Soc.Run.correct && cached.Soc.Run.correct);
        [ name;
          string_of_int flat.Soc.Run.wall;
          string_of_int cached.Soc.Run.wall;
          Ccsim.Report.pct (ratio cached.Soc.Run.wall flat.Soc.Run.wall -. 1.0);
          string_of_int (Capchecker.Area.luts ~entries:256);
          string_of_int (600 + (130 * 16)) ])
      [ "md_knn"; "gemm_ncubed"; "spmv_crs"; "aes" ]
  in
  print_endline
    (Ccsim.Report.table
       ~header:
         [ "Benchmark"; "Flat wall"; "Cached wall"; "Perf delta"; "Flat LUTs";
           "Cached LUTs" ]
       rows);
  print_endline
    "(entry installs are cheaper through memory than over MMIO, and working\n\
    \ sets of <=7 capabilities per task fit the 16-line cache, so the cached\n\
    \ variant is competitive here at ~11x less area; interleaved traffic from\n\
    \ many concurrent tasks would thrash the cache and expose its 21-cycle\n\
    \ miss path, which is why the prototype keeps the flat table)"

let ablation_burst () =
  print_string (section "Ablation D: AXI maximum burst length");
  let bench = Machsuite.Registry.find "gemm_blocked" in
  let rows =
    List.map
      (fun max_burst ->
        let bus = { Bus.Params.default with Bus.Params.max_burst } in
        let r = Soc.Run.run ~tasks:8 ~bus Soc.Config.ccpu_caccel bench in
        [ string_of_int max_burst;
          string_of_int r.Soc.Run.phases.Soc.Run.compute;
          string_of_int r.Soc.Run.bus_beats ])
      [ 1; 4; 8; 16 ]
  in
  print_endline
    (Ccsim.Report.table
       ~header:[ "Max burst"; "gemm_blocked compute"; "Bus beats" ] rows)

let ablation_outstanding () =
  print_string
    (section "Ablation E: accelerator interface quality (outstanding reads)");
  let bench = Machsuite.Registry.find "stencil2d" in
  let rows =
    List.map
      (fun outstanding ->
        let directives =
          { bench.Machsuite.Bench_def.directives with
            Hls.Directives.max_outstanding = outstanding }
        in
        let bench = { bench with Machsuite.Bench_def.directives = directives } in
        let cpu = Soc.Run.run ~tasks:1 Soc.Config.cpu bench in
        let accel = Soc.Run.run ~tasks:1 Soc.Config.ccpu_accel bench in
        [ string_of_int outstanding;
          string_of_int accel.Soc.Run.phases.Soc.Run.compute;
          Ccsim.Report.fixed 2
            (ratio cpu.Soc.Run.phases.Soc.Run.compute
               accel.Soc.Run.phases.Soc.Run.compute) ])
      [ 1; 2; 4; 8 ]
  in
  print_endline
    (Ccsim.Report.table
       ~header:[ "Outstanding"; "stencil2d compute"; "Speedup vs cpu" ] rows);
  print_endline
    "(the paper's sub-1x benchmarks are exactly the ones synthesized with\n\
    \ shallow memory interfaces; a deeper interface flips the verdict)"

(* ------------------------------------------------------------------ *)
(* Observability: per-config event-derived metrics (lib/obs)            *)
(* ------------------------------------------------------------------ *)

let obs_section () =
  print_string
    (section "Observability: event-trace metrics per configuration (aes, 8 tasks)");
  let bench = Machsuite.Registry.find "aes" in
  (* Each job creates its own private sink (the pool's isolation rule);
     the rendered tables are printed after the barrier in config order. *)
  let reports =
    Ccsim.Pool.map ~jobs:(jobs ())
      (fun config ->
        let obs = Obs.Trace.create ~capacity:(1 lsl 18) () in
        let r = Soc.Run.run ~tasks:8 ~obs config bench in
        assert r.Soc.Run.correct;
        ( r.Soc.Run.config_label,
          r.Soc.Run.wall,
          Obs.Trace.length obs,
          Obs.Trace.dropped obs,
          Obs.Metrics.to_table (Obs.Metrics.of_trace obs) ))
      [ Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel;
        Soc.Config.ccpu_caccel_coarse; Soc.Config.ccpu_caccel_cached ]
  in
  List.iter
    (fun (label, wall, events, dropped, table) ->
      Printf.printf "\n-- %s (wall %d cycles, %d events, %d dropped) --\n" label
        wall events dropped;
      print_string table)
    reports

(* ------------------------------------------------------------------ *)
(* Fault injection: recovered-vs-degraded under seeded fault plans      *)
(* ------------------------------------------------------------------ *)

let faults_section () =
  print_string
    (section
       "Fault injection: recovery under seeded fault plans (4 tasks, ccpu+caccel)");
  let benches = [ "aes"; "fft_transpose"; "sort_radix" ] in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let points =
    List.concat_map
      (fun name -> List.map (fun seed -> (name, seed)) seeds)
      benches
  in
  (* One (benchmark, seed) point per pool job; both the measured run and
     its determinism replay happen inside the job, on systems the job
     creates itself. *)
  let rows =
    Ccsim.Pool.map ~jobs:(jobs ())
      (fun (name, seed) ->
        let bench = Machsuite.Registry.find name in
        let faults = Fault.Plan.default ~seed in
        let r = Soc.Run.run ~tasks:4 ~faults Soc.Config.ccpu_caccel bench in
        (* The subsystem's core invariant: a faulted run either completes
           correctly (degraded tasks recomputed on the CPU) or it is a
           bug — never a silently wrong result. *)
        if not r.Soc.Run.correct then
          failwith
            (Printf.sprintf "%s seed %d: incorrect result under faults" name
               seed);
        let r2 = Soc.Run.run ~tasks:4 ~faults Soc.Config.ccpu_caccel bench in
        if r2 <> r then
          failwith
            (Printf.sprintf "%s seed %d: fault run not deterministic" name seed);
        let c = r.Soc.Run.faults in
        let injected =
          c.Fault.Injector.bus_stalls + c.Fault.Injector.bus_errors
          + c.Fault.Injector.guard_denials + c.Fault.Injector.table_fulls
          + c.Fault.Injector.cache_drops + c.Fault.Injector.alloc_fails
        in
        [ name; string_of_int seed; string_of_int injected;
          string_of_int c.Fault.Injector.retries;
          string_of_int r.Soc.Run.recovered;
          string_of_int (List.length r.Soc.Run.fallbacks);
          string_of_int r.Soc.Run.wall ])
      points
  in
  print_endline
    (Ccsim.Report.table
       ~header:
         [ "Benchmark"; "Seed"; "Injected"; "Retries"; "Recovered"; "Degraded";
           "Wall" ]
       rows);
  print_endline
    "(every run re-verified correct; each seeded plan replayed twice with\n\
    \ identical results — degraded tasks fall back to CPU re-execution)"

(* ------------------------------------------------------------------ *)
(* Cross-model validation: abstract CPU model vs the ISA-level core      *)
(* ------------------------------------------------------------------ *)

let validation () =
  print_string
    (section
       "Validation: abstract CPU model vs the instruction-level CHERI-RV64 core");
  let rows =
    List.map
      (fun name ->
        let bench = Machsuite.Registry.find name in
        let mem = Tagmem.Mem.create ~size:(4 lsl 20) in
        let heap = Tagmem.Alloc.create ~base:4096 ~size:((4 lsl 20) - 4096) in
        let layout =
          Memops.Layout.make
            (List.map
               (fun (decl : Kernel.Ir.buf_decl) ->
                 let bytes = Kernel.Ir.buf_decl_bytes decl in
                 let align, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
                 { Memops.Layout.decl;
                   base = Tagmem.Alloc.malloc heap ~align padded })
               bench.kernel.Kernel.Ir.bufs)
        in
        let fill () =
          List.iter
            (fun (binding : Memops.Layout.binding) ->
              Memops.Layout.init_buffer mem binding (fun idx ->
                  bench.init binding.decl.Kernel.Ir.buf_name idx))
            (Memops.Layout.bindings layout)
        in
        fill ();
        let abstract =
          Cpu.Model.run (Cpu.Model.config Cpu.Model.Rv64) mem bench.kernel layout
            ~params:bench.params ()
        in
        fill ();
        let rv64 =
          (Riscv.Exec.run_kernel ~target:Riscv.Codegen.Rv64_target ~mem ~heap
             ~layout ~params:bench.params bench.kernel).Riscv.Exec.machine
        in
        fill ();
        let purecap =
          (Riscv.Exec.run_kernel ~target:Riscv.Codegen.Purecap_target ~mem ~heap
             ~layout ~params:bench.params bench.kernel).Riscv.Exec.machine
        in
        assert (rv64.Riscv.Machine.trap = None && purecap.Riscv.Machine.trap = None);
        [
          name;
          string_of_int abstract.Cpu.Model.cycles;
          string_of_int rv64.Riscv.Machine.cycles;
          Ccsim.Report.fixed 2
            (ratio rv64.Riscv.Machine.cycles abstract.Cpu.Model.cycles);
          string_of_int rv64.Riscv.Machine.instructions;
          Ccsim.Report.fixed 3
            (ratio purecap.Riscv.Machine.instructions rv64.Riscv.Machine.instructions);
        ])
      [ "aes"; "bfs_bulk"; "fft_transpose"; "md_knn"; "sort_radix"; "spmv_crs" ]
  in
  print_endline
    (Ccsim.Report.table
       ~header:
         [ "Benchmark"; "Model cycles"; "Core cycles"; "Core/model";
           "Core instrs"; "Purecap/rv64 instrs" ]
       rows);
  print_endline
    "(the unoptimized -O0-style code generator makes the core 2-4x slower\n\
    \ than the compiled-code-calibrated abstract model; functional results\n\
    \ are bit-identical across all three engines — asserted in the tests)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per experiment's core data path        *)
(* ------------------------------------------------------------------ *)

(* The scheduler alone: eight cursors reschedule themselves 1-4 cycles on
   (the calendar wheel's path) for 10 M events, their closures built before
   the clock starts, so every word counted is the scheduler's own. *)
let sched_cursors () =
  let events = 10_000_000 in
  let s = Ccsim.Sched.create () in
  let left = ref events in
  for i = 0 to 7 do
    let rec k () =
      if !left > 0 then begin
        decr left;
        Ccsim.Sched.at s ~cycle:(Ccsim.Sched.now s + 1 + (i land 3)) k
      end
    in
    Ccsim.Sched.at s ~cycle:0 k
  done;
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let ran = Ccsim.Sched.run_steps s max_int in
  let secs = Unix.gettimeofday () -. t0 and words = Gc.minor_words () -. w0 in
  Printf.printf "  %-32s %12.1f ns/event %6.2f words/event\n"
    "sched_8_cursors (event)"
    (secs *. 1e9 /. float_of_int ran)
    (words /. float_of_int ran)

(* The kernel interpreter alone: ns and minor words per executed op (the
   total of the per-class counts) for gemm_ncubed, on the reference machine
   and under the CPU model, best of five runs. *)
let interp_op () =
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  let pure () =
    let bufs =
      List.map
        (fun (d : Kernel.Ir.buf_decl) -> (d.buf_name, Machsuite.Bench_def.initial_array bench d))
        bench.kernel.Kernel.Ir.bufs
    in
    Kernel.Interp.pure_machine ~bufs ~params:bench.params ()
  in
  let ops =
    let m = pure () in
    Kernel.Interp.run bench.kernel m;
    Kernel.Interp.total m.Kernel.Interp.ops
  in
  let mem = Tagmem.Mem.create ~size:(4 lsl 20) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((4 lsl 20) - 4096) in
  let layout =
    Memops.Layout.make
      (List.map
         (fun (decl : Kernel.Ir.buf_decl) ->
           let align, padded =
             Cheri.Bounds_enc.malloc_shape ~length:(Kernel.Ir.buf_decl_bytes decl)
           in
           { Memops.Layout.decl; base = Tagmem.Alloc.malloc heap ~align padded })
         bench.kernel.Kernel.Ir.bufs)
  in
  List.iter
    (fun (binding : Memops.Layout.binding) ->
      Memops.Layout.init_buffer mem binding (fun idx ->
          bench.init binding.decl.Kernel.Ir.buf_name idx))
    (Memops.Layout.bindings layout);
  let per_op name prepare run =
    let best = ref infinity and words = ref infinity in
    for _ = 1 to 5 do
      let x = prepare () in
      let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
      run x;
      best := Float.min !best (Unix.gettimeofday () -. t0);
      words := Float.min !words (Gc.minor_words () -. w0)
    done;
    Printf.printf "  %-32s %12.1f ns/op %6.2f words/op\n" name
      (!best *. 1e9 /. float_of_int ops)
      (!words /. float_of_int ops)
  in
  per_op "interp_op gemm_ncubed (pure)" pure (fun m -> Kernel.Interp.run bench.kernel m);
  per_op "interp_op gemm_ncubed (cpu)" ignore (fun () ->
      ignore
        (Cpu.Model.run (Cpu.Model.config Cpu.Model.Rv64) mem bench.kernel layout
           ~params:bench.params ()))

let micro () =
  print_string (section "Bechamel micro-benchmarks (core data paths)");
  let open Bechamel in
  let checker = Capchecker.Checker.create Capchecker.Checker.Fine in
  let cap =
    match Cheri.Cap.set_bounds Cheri.Cap.root ~base:0x10000 ~length:4096 with
    | Ok c -> c
    | Error _ -> assert false
  in
  (match Capchecker.Checker.install checker ~task:1 ~obj:0 cap with
  | Capchecker.Table.Installed _ -> ()
  | Capchecker.Table.Table_full | Capchecker.Table.Rejected_untagged -> assert false);
  let req =
    { Guard.Iface.source = 1; port = Some 0; addr = 0x10100; size = 8;
      kind = Guard.Iface.Read }
  in
  let iommu = Guard.Iommu.create () in
  Guard.Iommu.map_range iommu ~source:1 ~base:0x10000 ~size:65536 ~read:true
    ~write:true;
  let iommu_guard = Guard.Iommu.as_guard iommu in
  let words = Cheri.Compress.encode cap in
  let mem = Tagmem.Mem.create ~size:65536 in
  let small_bench = Machsuite.Registry.find "aes" in
  (* Event-engine layers, one per hot-path operation of the interconnect
     workload: a lone source's request through to its grant callback, the
     CapChecker table's associative fetch, and one scheduler step of a
     cursor that reschedules itself a cycle on. *)
  let arb_sched = Ccsim.Sched.create () in
  let arbiter = Bus.Arbiter.create ~sched:arb_sched Bus.Params.default in
  let on_grant (_ : Bus.Fabric.grant) = () in
  let table = Capchecker.Table.create ~entries:256 in
  for task = 0 to 63 do
    ignore (Capchecker.Table.install table ~task ~obj:(task mod 4) cap)
  done;
  let step_sched = Ccsim.Sched.create () in
  let rec step () =
    Ccsim.Sched.at step_sched ~cycle:(Ccsim.Sched.now step_sched + 1) step
  in
  Ccsim.Sched.at step_sched ~cycle:0 step;
  let tests =
    [
      (* table1/table3: one protection adjudication *)
      Test.make ~name:"capchecker_check (tables 1,3)"
        (Staged.stage (fun () -> ignore (Capchecker.Checker.check checker req)));
      (* fig12: the IOMMU's page-walk path *)
      Test.make ~name:"iommu_check (fig 12)"
        (Staged.stage (fun () -> ignore (iommu_guard.Guard.Iface.check req)));
      (* table2 and the capability substrate: decode of the 128-bit format *)
      Test.make ~name:"cap_decode (table 2)"
        (Staged.stage (fun () -> ignore (Cheri.Compress.decode ~tag:true words)));
      (* fig7/8/10: tagged-memory access on the DMA path *)
      Test.make ~name:"tagmem_write (figs 7,8,10)"
        (Staged.stage (fun () -> Tagmem.Mem.write_u64 mem ~addr:4096 42L));
      (* fig9/11: a full small end-to-end system run.  Emptying the memos
         first makes each call simulate instead of returning the whole-run
         memo's result; the HLS design cache stays warm. *)
      Test.make ~name:"end_to_end_aes (figs 9,11)"
        (Staged.stage (fun () ->
             Soc.Fastpath.clear ();
             ignore (Soc.Run.run ~tasks:1 Soc.Config.ccpu_caccel small_bench)));
      Test.make ~name:"arbiter_request_grant (event)"
        (Staged.stage (fun () ->
             Bus.Arbiter.request arbiter ~src:3 ~at:(Ccsim.Sched.now arb_sched)
               ~beats:4 ~is_read:true ~extra_latency:0 ~on_grant;
             Ccsim.Sched.run arb_sched));
      Test.make ~name:"table_lookup (event)"
        (Staged.stage (fun () ->
             ignore (Capchecker.Table.lookup table ~task:41 ~obj:1)));
      Test.make ~name:"sched_step (event)"
        (Staged.stage (fun () -> ignore (Ccsim.Sched.run_steps step_sched 1)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
      Hashtbl.iter
        (fun name raw ->
          let est =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raw
          in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "  %-32s %12.1f ns/run\n" name ns
          | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    tests;
  sched_cursors ();
  interp_op ()

(* ------------------------------------------------------------------ *)
(* Static check elision: cycles the CapChecker never has to spend        *)
(* ------------------------------------------------------------------ *)

(* For every benchmark the interval analysis proves in bounds, re-run the
   CapChecker configuration with per-beat adjudication elided and report the
   checks (and wall cycles) that buys back.  Unproven kernels stay fully
   guarded — the adaptive part — and appear with zero savings. *)
let elision () =
  print_string
    (section "Elision: statically proven tasks skip per-beat adjudication");
  let rows =
    Ccsim.Pool.map ~jobs:(jobs ())
      (fun (bench : Machsuite.Bench_def.t) ->
        let proven =
          Analysis.proven
            (Analysis.analyze
               ~params:(Analysis.param_intervals bench.params)
               bench.kernel)
        in
        let guarded =
          Soc.Run.run ~tasks:8 ~elide:Soc.Run.Elide_differential
            Soc.Config.ccpu_caccel bench
        in
        let elided =
          Soc.Run.run ~tasks:8 ~elide:Soc.Run.Elide_on Soc.Config.ccpu_caccel
            bench
        in
        if not (guarded.Soc.Run.correct && elided.Soc.Run.correct) then
          failwith (bench.name ^ " mis-executed under elision");
        let saved = guarded.Soc.Run.wall - elided.Soc.Run.wall in
        [ bench.name;
          (if proven then "proven" else "unknown");
          string_of_int guarded.Soc.Run.checks;
          string_of_int elided.Soc.Run.elided_checks;
          string_of_int guarded.Soc.Run.wall;
          string_of_int elided.Soc.Run.wall;
          string_of_int saved ])
      Machsuite.Registry.all
  in
  print_endline
    (Ccsim.Report.table
       ~header:
         [ "Benchmark"; "Verdict"; "Checks (8x)"; "Elided (8x)";
           "Wall guarded"; "Wall elided"; "Cycles saved" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Parallel runner: wall-clock speedup of the domain pool               *)
(* ------------------------------------------------------------------ *)

(* Times the same 15-point gemm_ncubed sweep (5 task counts x 3 configs,
   the heaviest capsim workload) serially and on the pool, asserts the
   results are structurally identical — the determinism proof — and
   records the numbers for the --json snapshot.  The timings themselves
   are the one output that legitimately varies between runs.  Both legs
   run with the fast paths off: the caches would otherwise collapse the
   sweep to a handful of lookups and the "speedup" would measure domain
   spawn overhead instead of the pool. *)
let parallel_section () =
  print_string
    (section "Parallel runner: domain-pool speedup (gemm_ncubed sweep)");
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  let columns =
    [ (Soc.Config.cpu, None);
      (Soc.Config.ccpu_accel, Some 16);
      (Soc.Config.ccpu_caccel, Some 16) ]
  in
  let tasks_list = [ 1; 2; 4; 8; 16 ] in
  let par_jobs =
    let j = Ccsim.Pool.resolve (jobs ()) in
    if j > 1 then j else Ccsim.Pool.recommended ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let saved_mode = Soc.Fastpath.current_mode () in
  let (serial, serial_s), (par, par_s) =
    Fun.protect
      ~finally:(fun () -> Soc.Fastpath.set_mode saved_mode)
      (fun () ->
        Soc.Fastpath.set_mode Soc.Fastpath.Interpretive;
        let serial =
          time (fun () -> Soc.Run.sweep_many ~jobs:1 ~tasks_list columns bench)
        in
        let par =
          time (fun () ->
              Soc.Run.sweep_many ~jobs:par_jobs ~tasks_list columns bench)
        in
        (serial, par))
  in
  if serial <> par then failwith "parallel sweep diverged from the serial run";
  let speedup = serial_s /. par_s in
  Printf.printf "  workload: 15 independent full-system runs (5 task counts x 3 configs)\n";
  Printf.printf "  serial   (--jobs 1):  %8.3f s\n" serial_s;
  Printf.printf "  parallel (--jobs %d):  %8.3f s\n" par_jobs par_s;
  Printf.printf "  speedup: %.2fx -- results structurally identical (asserted)\n"
    speedup;
  if par_jobs = 1 then
    print_endline
      "  (this host exposes a single core; run with --jobs 4 on a multicore\n\
      \   host for the real speedup)";
  parallel_snapshot := Some (par_jobs, serial_s, par_s, speedup)

(* Interconnect scaling: the placement question of Ablation A re-asked on
   topologies that can actually grant concurrently.  On the shared bus a
   single central CapChecker is free (one grant per cycle caps adjudications
   anyway — Ablation A); on a banked crossbar the serialized bus itself is
   the bottleneck, and past the crossover task count the distributed
   configurations win on makespan at a small area premium.  Every point
   verifies functionally and all four configurations must agree on verdicts
   (asserted below) — topology and checking placement move latency, never
   correctness. *)
let interconnect () =
  print_string
    (section
       "Interconnect: topology x checking placement (kmp, event engine)");
  let bench = Machsuite.Registry.find "kmp" in
  let tasks_list = [ 2; 4; 8; 16; 32; 64 ] in
  let columns =
    [ ("shared/central", Bus.Topology.Shared, Capchecker.Shim.Central);
      ("xbar4/central", Bus.Topology.Crossbar { banks = 4 },
       Capchecker.Shim.Central);
      ("xbar4/shim", Bus.Topology.Crossbar { banks = 4 },
       Capchecker.Shim.Distributed);
      ("hier4/shim", Bus.Topology.Hierarchical { clusters = 4 },
       Capchecker.Shim.Distributed) ]
  in
  let specs =
    List.concat_map
      (fun tasks ->
        List.map
          (fun (_, topology, checkers) ->
            Soc.Run.spec ~tasks ~instances:tasks ~cc_entries:512
              ~engine:Soc.Run.Event_driven ~topology ~checkers
              Soc.Config.ccpu_caccel bench)
          columns)
      tasks_list
  in
  let results = Soc.Run.run_many ~jobs:(jobs ()) specs in
  let rows_of_tasks =
    List.mapi
      (fun i tasks ->
        let row =
          List.filteri
            (fun j _ ->
              j / List.length columns = i)
            results
        in
        (tasks, row))
      tasks_list
  in
  let crossover = ref None in
  let rows =
    List.map
      (fun (tasks, row) ->
        let shared = List.hd row in
        (* Verdict parity across the row: same checks, same denial set, all
           correct — the differential contract of the distributed checkers. *)
        List.iter
          (fun (r : Soc.Run.result) ->
            if
              (not r.Soc.Run.correct)
              || r.Soc.Run.checks <> shared.Soc.Run.checks
              || r.Soc.Run.denials <> shared.Soc.Run.denials
              || r.Soc.Run.bus_beats <> shared.Soc.Run.bus_beats
            then failwith "interconnect: verdicts diverged across topologies")
          row;
        let xbar_shim = List.nth row 2 in
        if
          !crossover = None
          && xbar_shim.Soc.Run.wall < shared.Soc.Run.wall
        then crossover := Some tasks;
        string_of_int tasks
        :: List.concat_map
             (fun (r : Soc.Run.result) ->
               [ string_of_int r.Soc.Run.wall;
                 Ccsim.Report.fixed 2 (ratio shared.Soc.Run.wall r.Soc.Run.wall) ])
             row
        @ [ Ccsim.Report.pct
              (ratio xbar_shim.Soc.Run.area_luts shared.Soc.Run.area_luts -. 1.0)
          ])
      rows_of_tasks
  in
  let header =
    "tasks"
    :: List.concat_map (fun (n, _, _) -> [ n ^ " wall"; "x" ]) columns
    @ [ "shim area" ]
  in
  print_endline (Ccsim.Report.table ~header rows);
  (match !crossover with
  | Some t ->
      Printf.printf
        "  crossover: distributed checking on the crossbar first beats the\n\
        \  shared-bus central checker at %d tasks (below that, Ablation A's\n\
        \  'distribution buys only area' still holds)\n" t
  | None ->
      print_endline
        "  no crossover up to 64 tasks: the shared bus never saturated here")

(* Service mode: per-tenant tail latency and CapChecker table pressure as
   the tenant population sweeps past table capacity, with and without churn.
   The profile cache inside Serve.Loop means the kernel mix is profiled once
   for the whole sweep. *)
let serve_section () =
  print_string (section "serve: tenant sweep (p99 latency and table thrash)");
  Printf.printf
    "  256-entry table, 8 instances, %d requests per point, seed 42\n" 2500;
  let header =
    [ "tenants"; "churn%"; "admitted"; "rejects"; "cpu"; "p50"; "p99";
      "installs"; "evictions"; "conflicts"; "thrash" ]
  in
  let rows =
    List.concat_map
      (fun tenants ->
        List.map
          (fun churn ->
            let base = Serve.Loop.default_params ~seed:42 ~tenants ~requests:2500 () in
            let params =
              { base with
                Serve.Loop.sv_jobs = jobs ();
                sv_workload =
                  { base.Serve.Loop.sv_workload with Serve.Workload.churn_pct = churn } }
            in
            let r = Serve.Loop.run params in
            let tt = r.Serve.Report.rp_totals in
            let s = r.Serve.Report.rp_table in
            [ string_of_int tenants;
              string_of_int churn;
              string_of_int tt.Serve.Report.t_admitted;
              string_of_int
                (tt.Serve.Report.t_rejected_gone
                + tt.Serve.Report.t_rejected_inflight
                + tt.Serve.Report.t_rejected_table);
              string_of_int tt.Serve.Report.t_cpu_fallbacks;
              string_of_int r.Serve.Report.rp_p50;
              string_of_int r.Serve.Report.rp_p99;
              string_of_int s.Capchecker.Table.st_installs;
              string_of_int s.Capchecker.Table.st_evictions;
              string_of_int s.Capchecker.Table.st_conflicts;
              string_of_int (Serve.Report.thrash r) ])
          [ 0; 25 ])
      [ 64; 256; 1024 ]
  in
  print_string (Ccsim.Report.table ~header rows);
  (* Same tenant sweep with the service fabric re-run on a 4-bank crossbar:
     banked grants shorten the adjudication queue behind each request, so the
     tail (p99) moves while the verdicts and table dynamics stay put.  The
     delta column is crossbar p99 relative to the shared-bus p99 above. *)
  print_string
    (section "serve: shared bus vs 4-bank crossbar (p99 delta, churn 0)");
  let topo_header =
    [ "tenants"; "shared p50"; "shared p99"; "xbar4 p50"; "xbar4 p99";
      "p99 delta" ]
  in
  let topo_rows =
    List.map
      (fun tenants ->
        let report topology =
          let base =
            Serve.Loop.default_params ~seed:42 ~tenants ~requests:2500 ()
          in
          Serve.Loop.run
            { base with Serve.Loop.sv_jobs = jobs (); sv_topology = topology }
        in
        let shared = report Bus.Topology.Shared in
        let xbar = report (Bus.Topology.Crossbar { banks = 4 }) in
        [ string_of_int tenants;
          string_of_int shared.Serve.Report.rp_p50;
          string_of_int shared.Serve.Report.rp_p99;
          string_of_int xbar.Serve.Report.rp_p50;
          string_of_int xbar.Serve.Report.rp_p99;
          Ccsim.Report.pct
            (ratio xbar.Serve.Report.rp_p99 shared.Serve.Report.rp_p99 -. 1.0)
        ])
      [ 64; 256; 1024 ]
  in
  print_string (Ccsim.Report.table ~header:topo_header topo_rows)

let sections =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig7", fig7); ("fig8", fig8); ("fig9", fig9); ("contention", contention);
    ("fig10", fig10);
    ("fig11", fig11); ("fig12", fig12);
    ("ablation_placement", ablation_placement);
    ("ablation_table_size", ablation_table_size);
    ("ablation_cached", ablation_cached);
    ("ablation_burst", ablation_burst);
    ("ablation_outstanding", ablation_outstanding);
    ("elision", elision);
    ("obs", obs_section);
    ("faults", faults_section);
    ("validation", validation);
    ("parallel", parallel_section);
    ("interconnect", interconnect);
    ("serve", serve_section);
    ("micro", micro);
  ]

(* With no positional arguments, regenerate everything; otherwise run the
   named sections only — positionally (`bench/main.exe fig8 fig12`) or as a
   comma list (`--sections fig7,fig9,contention`; `--only` is an alias).
   `--list-sections` prints the section names and exits.  `--jobs N`
   parallelizes the independent simulations inside each section (0 = all
   cores) without changing any printed table; `--json` emits a
   machine-readable timing snapshot on stdout (section prints go to stderr
   instead), whose `baseline` field names the committed BENCH file the CI
   regression gate compares against (`--baseline FILE` overrides it). *)
let () =
  let split_sections value =
    List.filter (fun s -> s <> "") (String.split_on_char ',' value)
  in
  let rec parse args names jobs_n json baseline =
    match args with
    | [] -> (List.rev names, jobs_n, json, baseline)
    | "--json" :: rest -> parse rest names jobs_n true baseline
    | "--list-sections" :: _ ->
        List.iter (fun (name, _) -> print_endline name) sections;
        exit 0
    | ("--sections" | "--only") :: value :: rest ->
        parse rest
          (List.fold_left (fun acc s -> s :: acc) names (split_sections value))
          jobs_n json baseline
    | [ ("--sections" | "--only") ] ->
        prerr_endline "bench: --sections expects a comma-separated list";
        exit 2
    | "--baseline" :: value :: rest -> parse rest names jobs_n json value
    | [ "--baseline" ] ->
        prerr_endline "bench: --baseline expects a file name";
        exit 2
    | "--jobs" :: value :: rest -> (
        match int_of_string_opt value with
        | Some n when n >= 0 -> parse rest names n json baseline
        | Some _ | None ->
            prerr_endline "bench: --jobs expects a non-negative integer";
            exit 2)
    | [ "--jobs" ] ->
        prerr_endline "bench: --jobs expects a value";
        exit 2
    | name :: rest -> parse rest (name :: names) jobs_n json baseline
  in
  let names, jobs_n, json, baseline =
    parse (List.tl (Array.to_list Sys.argv)) [] 1 false "BENCH_5.json"
  in
  jobs_ref := jobs_n;
  let requested = match names with [] -> List.map fst sections | ns -> ns in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "unknown section %s (known: %s)\n" name
          (String.concat " " (List.map fst sections));
        exit 1
      end)
    requested;
  (* Under --json only the snapshot may reach stdout: route the sections'
     human-readable prints to stderr for the duration. *)
  let saved_stdout =
    if json then begin
      flush stdout;
      let fd = Unix.dup Unix.stdout in
      Unix.dup2 Unix.stderr Unix.stdout;
      Some fd
    end
    else None
  in
  let timings =
    List.map
      (fun name ->
        let t0 = Unix.gettimeofday () in
        (List.assoc name sections) ();
        flush stdout;
        (name, Unix.gettimeofday () -. t0))
      requested
  in
  match saved_stdout with
  | None -> print_newline ()
  | Some fd ->
      flush stdout;
      Unix.dup2 fd Unix.stdout;
      Unix.close fd;
      let open Obs.Json in
      let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 timings in
      let parallel =
        match !parallel_snapshot with
        | None -> Null
        | Some (pj, serial_s, par_s, speedup) ->
            Obj
              [
                ("jobs", Int pj);
                ("serial_seconds", Float serial_s);
                ("parallel_seconds", Float par_s);
                ("speedup", Float speedup);
              ]
      in
      print_endline
        (to_string
           (Obj
              [
                ("schema", String "bench-snapshot/1");
                ("jobs", Int jobs_n);
                ( "sections",
                  List
                    (List.map
                       (fun (name, seconds) ->
                         Obj
                           [
                             ("name", String name);
                             ("seconds", Float seconds);
                           ])
                       timings) );
                ("total_seconds", Float total);
                ("parallel", parallel);
                ("baseline", String baseline);
              ]))
