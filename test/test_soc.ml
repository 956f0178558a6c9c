(* End-to-end system runs: functional correctness on every configuration,
   phase accounting, overhead direction, area/power composition and the
   mixed-system path. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A small, fast benchmark for exhaustive config coverage. *)
let small = Machsuite.Registry.find "aes"
let pointer_chasing = Machsuite.Registry.find "spmv_crs"

let test_labels () =
  Alcotest.(check (list string)) "paper's five configs"
    [ "cpu"; "ccpu"; "cpu+accel"; "ccpu+accel"; "ccpu+caccel" ]
    (List.map Soc.Config.label Soc.Config.evaluated)

let test_all_configs_correct_small () =
  List.iter
    (fun config ->
      let r = Soc.Run.run ~tasks:2 config small in
      checkb (r.Soc.Run.config_label ^ " correct") true r.Soc.Run.correct;
      checkb "no denials" true (r.Soc.Run.denials = []);
      checkb "wall positive" true (r.Soc.Run.wall > 0);
      checki "wall = sum of phases" r.Soc.Run.wall
        (Soc.Run.wall_of r.Soc.Run.phases))
    (Soc.Config.evaluated
    @ [ Soc.Config.ccpu_caccel_coarse;
        Soc.Config.ccpu_caccel_cached;
        Soc.Config.Hetero { cpu_isa = Cpu.Model.Cheri_rv64; protection = Soc.Config.Prot_iommu };
        Soc.Config.Hetero { cpu_isa = Cpu.Model.Cheri_rv64; protection = Soc.Config.Prot_iopmp };
        Soc.Config.Hetero { cpu_isa = Cpu.Model.Cheri_rv64; protection = Soc.Config.Prot_snpu } ])

let test_pointer_chasing_benchmark_all_guards () =
  (* A kernel with dependent loads and staged vectors exercises more of the
     check paths. *)
  List.iter
    (fun config ->
      let r = Soc.Run.run ~tasks:2 config pointer_chasing in
      checkb (r.Soc.Run.config_label ^ " correct") true r.Soc.Run.correct)
    [ Soc.Config.ccpu_caccel; Soc.Config.ccpu_caccel_coarse;
      Soc.Config.ccpu_caccel_cached ]

let test_capchecker_costs_more_cycles () =
  let base = Soc.Run.run ~tasks:4 Soc.Config.ccpu_accel small in
  let cc = Soc.Run.run ~tasks:4 Soc.Config.ccpu_caccel small in
  checkb "overhead is nonnegative" true (cc.Soc.Run.wall >= base.Soc.Run.wall);
  checkb "alloc pays for installs" true
    (cc.Soc.Run.phases.Soc.Run.alloc > base.Soc.Run.phases.Soc.Run.alloc);
  checkb "entries live during run" true (cc.Soc.Run.entries_peak > 0);
  checki "one entry per buffer per task" 4 cc.Soc.Run.entries_peak

let test_accel_beats_cpu_on_compute_bound () =
  let cpu = Soc.Run.run ~tasks:1 Soc.Config.cpu small in
  let accel = Soc.Run.run ~tasks:1 Soc.Config.ccpu_accel small in
  checkb "offload wins" true
    (accel.Soc.Run.phases.Soc.Run.compute < cpu.Soc.Run.phases.Soc.Run.compute)

let test_md_knn_slower_on_accel () =
  let bench = Machsuite.Registry.find "md_knn" in
  let cpu = Soc.Run.run ~tasks:1 Soc.Config.cpu bench in
  let accel = Soc.Run.run ~tasks:1 Soc.Config.ccpu_accel bench in
  checkb "memory-bound kernel loses on the accelerator" true
    (accel.Soc.Run.phases.Soc.Run.compute > cpu.Soc.Run.phases.Soc.Run.compute)

let test_more_tasks_more_throughput () =
  let one = Soc.Run.run ~tasks:1 Soc.Config.ccpu_accel small in
  let four = Soc.Run.run ~tasks:4 Soc.Config.ccpu_accel small in
  (* Four concurrent tasks finish in less than 4x one task's makespan. *)
  checkb "parallel speedup" true
    (four.Soc.Run.phases.Soc.Run.compute < 4 * one.Soc.Run.phases.Soc.Run.compute);
  checkb "but not free" true
    (four.Soc.Run.phases.Soc.Run.compute >= one.Soc.Run.phases.Soc.Run.compute)

let test_area_composition () =
  let cpu = Soc.Run.run ~tasks:1 Soc.Config.cpu small in
  let base = Soc.Run.run ~tasks:1 Soc.Config.ccpu_accel small in
  let cc = Soc.Run.run ~tasks:1 Soc.Config.ccpu_caccel small in
  checkb "accel system bigger than cpu" true
    (base.Soc.Run.area_luts > cpu.Soc.Run.area_luts);
  checki "capchecker area delta" (Capchecker.Area.luts ~entries:256)
    (cc.Soc.Run.area_luts - base.Soc.Run.area_luts);
  checkb "power follows" true (cc.Soc.Run.power_mw > base.Soc.Run.power_mw)

let test_run_mixed () =
  let benches =
    [ small; Machsuite.Registry.find "fft_transpose"; Machsuite.Registry.find "sort_radix" ]
  in
  let base = Soc.Run.run_mixed Soc.Config.ccpu_accel benches in
  let cc = Soc.Run.run_mixed Soc.Config.ccpu_caccel benches in
  checkb "mixed base correct" true base.Soc.Run.correct;
  checkb "mixed cc correct" true cc.Soc.Run.correct;
  checki "task per bench" 3 base.Soc.Run.tasks;
  checkb "overhead sane" true (cc.Soc.Run.wall >= base.Soc.Run.wall);
  checkb "cpu-only rejected" true
    (try
       ignore (Soc.Run.run_mixed Soc.Config.cpu benches);
       false
     with Invalid_argument _ -> true)

let test_mixed_area_exact_sum () =
  (* Regression: [run_mixed] used to report the truncated per-instance mean
     of the accelerator datapaths, under-counting area (and thus power) for
     mixed systems with unequal accelerators.  The result must now carry the
     exact per-instance sum. *)
  let b1 = Machsuite.Registry.find "aes" in
  let b2 = Machsuite.Registry.find "fft_transpose" in
  let luts (b : Machsuite.Bench_def.t) =
    b.Machsuite.Bench_def.directives.Hls.Directives.area_luts
  in
  checkb "benches chosen with unequal datapaths" true (luts b1 <> luts b2);
  let r = Soc.Run.run_mixed Soc.Config.ccpu_caccel [ b1; b2 ] in
  let sys = Soc.System.create ~instances:2 Soc.Config.ccpu_caccel in
  checki "area is the exact sum"
    (Soc.System.total_area_luts_exact sys
       ~accel_luts_total:(luts b1 + luts b2))
    r.Soc.Run.area_luts;
  (* The old mean-based accounting would disagree whenever the sum does not
     divide evenly. *)
  let mean_based =
    Soc.System.total_area_luts sys
      ~accel_luts_per_instance:((luts b1 + luts b2) / 2)
  in
  if (luts b1 + luts b2) mod 2 <> 0 then
    checkb "truncating mean under-reports" true (mean_based < r.Soc.Run.area_luts)

(* [run] and [run_mixed] share one executor: a singleton mixed system is a
   one-task [run] on one instance, apart from its "mixed" label.  The full
   cross product is 19 benches x 9 heterogeneous configs x 2 engines x 2
   elide modes x 2 fast-path modes.  Bench [i] takes the combinations [c]
   with [7i + c = 0 (mod 36)]: two per bench, 38 of the 72, and every
   config, engine, elide mode and fast-path mode among them. *)
let test_singleton_mixed_is_run () =
  let hetero cpu_isa protection = Soc.Config.Hetero { cpu_isa; protection } in
  let configs =
    hetero Cpu.Model.Rv64 Soc.Config.Prot_none
    :: List.map (hetero Cpu.Model.Cheri_rv64)
         Soc.Config.
           [ Prot_none; Prot_naive; Prot_iopmp; Prot_iommu; Prot_snpu;
             Prot_cc_fine; Prot_cc_coarse; Prot_cc_cached ]
  in
  let combos =
    List.concat_map
      (fun config ->
        List.concat_map
          (fun engine ->
            List.concat_map
              (fun elide ->
                List.map
                  (fun mode -> (config, engine, elide, mode))
                  [ Soc.Fastpath.Fast; Soc.Fastpath.Interpretive ])
              [ Soc.Run.Elide_off; Soc.Run.Elide_on ])
          [ Soc.Run.Legacy_replay; Soc.Run.Event_driven ])
      configs
  in
  let stride = 36 in
  Fun.protect
    ~finally:(fun () -> Soc.Fastpath.set_mode Soc.Fastpath.Fast)
    (fun () ->
      List.iteri
        (fun bi (bench : Machsuite.Bench_def.t) ->
          List.iteri
            (fun ci (config, engine, elide, mode) ->
              if ((7 * bi) + ci) mod stride = 0 then begin
                Soc.Fastpath.set_mode mode;
                let r =
                  Soc.Run.run ~tasks:1 ~instances:1 ~engine ~elide config bench
                in
                let m = Soc.Run.run_mixed ~engine ~elide config [ bench ] in
                checkb
                  (Printf.sprintf "%s under %s" bench.name r.config_label)
                  true
                  ({ m with Soc.Run.benchmark = r.benchmark } = r)
              end)
            combos)
        Machsuite.Registry.all)

let test_golden_follows_params () =
  (* A run is checked against the golden of its own parameters, whichever
     run of the same bench came first. *)
  let iters32 =
    { small with Machsuite.Bench_def.params = [ ("iters", Kernel.Value.VI 32) ] }
  in
  Fun.protect
    ~finally:(fun () -> Soc.Fastpath.set_mode Soc.Fastpath.Fast)
    (fun () ->
      List.iter
        (fun mode ->
          Soc.Fastpath.set_mode mode;
          List.iter
            (fun (what, bench) ->
              let r = Soc.Run.run ~tasks:1 Soc.Config.ccpu_caccel bench in
              checkb
                (Printf.sprintf "%s, fast path %s" what
                   (Soc.Fastpath.mode_to_string mode))
                true r.Soc.Run.correct)
            [ ("default iters", small); ("iters = 32", iters32) ])
        [ Soc.Fastpath.Fast; Soc.Fastpath.Interpretive ])

let test_power_model_monotonic () =
  checkb "more luts more power" true
    (Soc.Power.power_mw ~luts:100_000 ~utilization:0.0
    > Soc.Power.power_mw ~luts:50_000 ~utilization:0.0);
  checkb "more traffic more power" true
    (Soc.Power.power_mw ~luts:50_000 ~utilization:0.9
    > Soc.Power.power_mw ~luts:50_000 ~utilization:0.1);
  checkb "utilization clamped" true
    (Soc.Power.power_mw ~luts:0 ~utilization:5.0
    = Soc.Power.power_mw ~luts:0 ~utilization:1.0)

let test_system_create_shapes () =
  let sys = Soc.System.create Soc.Config.ccpu_caccel in
  checkb "has driver" true (sys.Soc.System.driver <> None);
  checkb "has checker" true (sys.Soc.System.checker <> None);
  let cpu_sys = Soc.System.create Soc.Config.cpu in
  checkb "cpu-only has no driver" true (cpu_sys.Soc.System.driver = None);
  checkb "guard defaults to pass-through" true
    (Soc.System.guard cpu_sys == Guard.Iface.pass_through)

let test_naive_flag_only_on_naive () =
  checkb "ccpu+accel is the naive integration" true
    (Soc.System.naive_tag_writes (Soc.System.create Soc.Config.ccpu_accel));
  checkb "cpu+accel has no tags to preserve" false
    (Soc.System.naive_tag_writes (Soc.System.create Soc.Config.cpu_accel));
  checkb "guarded never naive" false
    (Soc.System.naive_tag_writes (Soc.System.create Soc.Config.ccpu_caccel))

(* ---- batch execution on the domain pool ---- *)

(* A deliberately heterogeneous batch: different configs, task counts,
   engines and an active fault plan, so parity failures can't hide behind a
   uniform workload. *)
let batch_specs () =
  [
    Soc.Run.spec ~tasks:2 Soc.Config.ccpu_caccel small;
    Soc.Run.spec ~tasks:1 Soc.Config.cpu small;
    Soc.Run.spec ~tasks:4 ~instances:2 ~engine:Soc.Run.Event_driven
      Soc.Config.ccpu_accel small;
    Soc.Run.spec ~tasks:2 ~faults:(Fault.Plan.default ~seed:3)
      Soc.Config.ccpu_caccel small;
    Soc.Run.spec ~tasks:2 ~elide:Soc.Run.Elide_on Soc.Config.ccpu_caccel
      pointer_chasing;
  ]

let test_run_many_matches_serial () =
  let specs = batch_specs () in
  let serial = List.map (fun sp -> Soc.Run.run_spec sp) specs in
  List.iter
    (fun jobs ->
      checkb
        (Printf.sprintf "run_many jobs:%d equals serial" jobs)
        true
        (Soc.Run.run_many ~jobs specs = serial))
    [ 1; 2; 4 ]

let test_run_many_obs_sinks_are_private () =
  let specs = [ Soc.Run.spec ~tasks:2 Soc.Config.ccpu_caccel small;
                Soc.Run.spec ~tasks:2 Soc.Config.ccpu_caccel small ] in
  let mk () = List.map (fun _ -> Obs.Trace.create ~capacity:(1 lsl 16) ()) specs in
  let serial_sinks = mk () and par_sinks = mk () in
  let serial =
    Soc.Run.run_many ~jobs:1 ~obs_of:(List.nth serial_sinks) specs
  in
  let par = Soc.Run.run_many ~jobs:2 ~obs_of:(List.nth par_sinks) specs in
  checkb "results identical with recording" true (serial = par);
  List.iter2
    (fun s p ->
      checki "per-job sinks capture the same events" (Obs.Trace.length s)
        (Obs.Trace.length p))
    serial_sinks par_sinks

let test_sweep_many_matches_run () =
  let columns =
    [ (Soc.Config.cpu, None); (Soc.Config.ccpu_caccel, Some 4) ]
  in
  let sweep =
    Soc.Run.sweep_many ~jobs:4 ~tasks_list:[ 1; 4 ] columns small
  in
  checki "one row per task count" 2 (List.length sweep);
  List.iter
    (fun (tasks, results) ->
      match results with
      | [ cpu; cc ] ->
          checkb "cpu column equals direct run" true
            (cpu = Soc.Run.run ~tasks Soc.Config.cpu small);
          checkb "cc column equals direct run" true
            (cc = Soc.Run.run ~tasks ~instances:4 Soc.Config.ccpu_caccel small)
      | _ -> Alcotest.fail "column arity")
    sweep

let test_parallel_fault_runs_deterministic () =
  (* Seeded fault plans re-derive their RNG inside each job, so a parallel
     fault batch is as reproducible as a serial one. *)
  let specs =
    List.init 6 (fun i ->
        Soc.Run.spec ~tasks:2 ~faults:(Fault.Plan.default ~seed:(i + 1))
          Soc.Config.ccpu_caccel small)
  in
  let a = Soc.Run.run_many ~jobs:4 specs in
  let b = Soc.Run.run_many ~jobs:2 specs in
  checkb "same batch twice, different jobs, same results" true (a = b);
  List.iter (fun r -> checkb "faulted run correct" true r.Soc.Run.correct) a

let suite =
  [
    ("config labels", `Quick, test_labels);
    ("all configs correct (aes)", `Slow, test_all_configs_correct_small);
    ("guards on pointer chasing", `Slow, test_pointer_chasing_benchmark_all_guards);
    ("capchecker cost direction", `Quick, test_capchecker_costs_more_cycles);
    ("offload wins (aes)", `Quick, test_accel_beats_cpu_on_compute_bound);
    ("md_knn loses on accel", `Quick, test_md_knn_slower_on_accel);
    ("parallel throughput", `Quick, test_more_tasks_more_throughput);
    ("area composition", `Quick, test_area_composition);
    ("mixed system", `Slow, test_run_mixed);
    ("mixed area exact sum", `Slow, test_mixed_area_exact_sum);
    ("singleton mixed system is a run", `Slow, test_singleton_mixed_is_run);
    ("golden follows params", `Quick, test_golden_follows_params);
    ("power model", `Quick, test_power_model_monotonic);
    ("system shapes", `Quick, test_system_create_shapes);
    ("naive flag", `Quick, test_naive_flag_only_on_naive);
    ("run_many equals serial", `Slow, test_run_many_matches_serial);
    ("run_many private sinks", `Slow, test_run_many_obs_sinks_are_private);
    ("sweep_many equals direct runs", `Slow, test_sweep_many_matches_run);
    ("parallel fault batch deterministic", `Slow,
     test_parallel_fault_runs_deterministic);
  ]
