(* capsim: command-line driver for the simulated CHERI heterogeneous system.

   Subcommands:
     list                      benchmarks and their accelerator shapes
     run -b BENCH [-c CONFIG]  one end-to-end measurement
     trace -b BENCH -o FILE    record an event trace (Perfetto-loadable JSON)
     sweep -b BENCH            parallelism sweep (Figure 11 style)
     attack [-s SCHEME]        run the attack suite against one scheme
     matrix                    the full CWE matrix (Table 3)
     faults -b BENCH --seed N  deterministic fault injection with recovery report
     lint [--all] [--json]     static capability-footprint verdict per kernel *)

open Cmdliner

let configs =
  [
    ("cpu", Soc.Config.cpu);
    ("ccpu", Soc.Config.ccpu);
    ("cpu+accel", Soc.Config.cpu_accel);
    ("ccpu+accel", Soc.Config.ccpu_accel);
    ("ccpu+caccel", Soc.Config.ccpu_caccel);
    ("coarse", Soc.Config.ccpu_caccel_coarse);
    ("cached", Soc.Config.ccpu_caccel_cached);
    ("iommu", Soc.Config.Hetero { cpu_isa = Cpu.Model.Cheri_rv64; protection = Soc.Config.Prot_iommu });
    ("iopmp", Soc.Config.Hetero { cpu_isa = Cpu.Model.Cheri_rv64; protection = Soc.Config.Prot_iopmp });
    ("snpu", Soc.Config.Hetero { cpu_isa = Cpu.Model.Cheri_rv64; protection = Soc.Config.Prot_snpu });
  ]

let config_conv = Arg.enum configs

let bench_conv =
  let parse s =
    match Machsuite.Registry.find s with
    | b -> Ok b
    | exception Not_found ->
        Error (`Msg (Printf.sprintf "unknown benchmark %s (try 'capsim list')" s))
  in
  Arg.conv (parse, fun fmt (b : Machsuite.Bench_def.t) -> Format.pp_print_string fmt b.name)

let bench_arg =
  Arg.(required & opt (some bench_conv) None & info [ "b"; "benchmark" ] ~doc:"Benchmark name.")

let config_arg =
  Arg.(value & opt config_conv Soc.Config.ccpu_caccel & info [ "c"; "config" ]
         ~doc:"System configuration.")

(* Range-checked integer options: a value outside [min, max] is a usage
   error (exit 124) instead of an exception escaping the library. *)
let int_in ~min ~max ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min && n <= max -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
  in
  Arg.conv (parse, Format.pp_print_int)

let int_at_least ~min ~what = int_in ~min ~max:max_int ~what
let positive_int = int_at_least ~min:1 ~what:"a positive integer"
let non_negative_int = int_at_least ~min:0 ~what:"a non-negative integer"
let percent ~min = int_in ~min ~max:100 ~what:(Printf.sprintf "a percentage in %d-100" min)

let tasks_arg =
  Arg.(value & opt positive_int 8
       & info [ "t"; "tasks" ] ~doc:"Concurrent accelerator tasks.")

let engines =
  [ ("replay", Soc.Run.Legacy_replay); ("event", Soc.Run.Event_driven) ]

let engine_arg =
  Arg.(value & opt (some (enum engines)) None
         & info [ "engine" ]
             ~doc:"Timing core: $(b,replay) records each accelerator's DMA \
                   stream and replays the contention (the default on the \
                   shared topology), $(b,event) runs every instance live on \
                   a shared discrete-event timeline with round-robin bus \
                   arbitration (the default — and only — core for \
                   concurrent topologies).")

(* Replay stays the default on the shared topology (every pinned output was
   measured against it); a concurrent topology needs the event core, so
   --topology crossbar/hier works without an explicit --engine event. *)
let resolve_engine ~topology = function
  | Some e -> e
  | None ->
      if topology = Bus.Topology.Shared then Soc.Run.Legacy_replay
      else Soc.Run.Event_driven

let engine_name engine =
  fst (List.find (fun (_, e) -> e = engine) engines)

let topology_conv =
  let parse s =
    match Bus.Topology.kind_of_string s with
    | Ok k -> Ok k
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt k -> Format.pp_print_string fmt (Bus.Topology.kind_to_string k) )

let topology_arg =
  Arg.(value & opt topology_conv Bus.Topology.Shared
         & info [ "topology" ]
             ~doc:"Interconnect topology: $(b,shared) (one bus, one grant per \
                   cycle — the default and the timing oracle), \
                   $(b,crossbar)[$(b,:N)] (N-bank address-interleaved \
                   crossbar, concurrent disjoint grants) or \
                   $(b,hier)[$(b,:N)] (N clusters behind an uplink to a \
                   shared root).")

let checkers_arg =
  Arg.(value & opt
         (enum
            [ ("central", Capchecker.Shim.Central);
              ("shim", Capchecker.Shim.Distributed) ])
         Capchecker.Shim.Central
       & info [ "checkers" ]
           ~doc:"Capability-checking placement: $(b,central) (one CapChecker \
                 behind the interconnect, the default) or $(b,shim) \
                 (per-accelerator shim tables refilled from the central \
                 table; identical verdicts, different latency).")

(* Replay acceleration mode (lib/soc/fastpath.ml).  Every mode produces
   byte-identical output — the CI replay-compilation gate diffs on/off — so
   the flag only trades simulation time for re-verification. *)
let fastpath_conv =
  let parse s =
    match Soc.Fastpath.mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown fast-path mode %s (on, off or diff)" s))
  in
  Arg.conv
    (parse, fun fmt m -> Format.pp_print_string fmt (Soc.Fastpath.mode_to_string m))

let fastpath_arg =
  Arg.(value & opt fastpath_conv Soc.Fastpath.Fast
         & info [ "fast-path" ]
             ~doc:"Replay acceleration: $(b,on) (the default) derives \
                   cached access scripts instead of re-interpreting kernels, and \
                   skips per-access guard calls on statically proven tasks — \
                   byte-identical results, order-of-magnitude faster sweeps; \
                   $(b,off) re-interprets everything (the ground truth); \
                   $(b,diff) computes both legs and fails on any divergence.")

let cache_dir_arg =
  Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist eligible run results (no observability sink, no \
                   fault plan) to $(docv), keyed by the full run \
                   configuration and a digest of this binary, and reuse \
                   them across processes.  Off unless given; a rebuild \
                   orphans old entries.")

(* Parallelism across independent simulations (Ccsim.Pool).  Results are
   index-deterministic: any --jobs value produces byte-identical output to
   --jobs 1 (the CI gate diffs them). *)
let jobs_arg =
  Arg.(value & opt non_negative_int 1
         & info [ "j"; "jobs" ]
             ~doc:"Worker domains for independent simulations: $(b,1) runs \
                   serially (the default), $(b,0) uses every core.  Output \
                   is byte-identical at any value.")

(* Machine-readable result, stable across runs with the same inputs — the CI
   determinism gate diffs two of these byte-for-byte. *)
let json_of_result (r : Soc.Run.result) =
  let open Obs.Json in
  let c = r.Soc.Run.faults in
  Obj
    [
      ("benchmark", String r.Soc.Run.benchmark);
      ("config", String r.Soc.Run.config_label);
      ("tasks", Int r.Soc.Run.tasks);
      ("wall", Int r.Soc.Run.wall);
      ( "phases",
        Obj
          [
            ("alloc", Int r.Soc.Run.phases.Soc.Run.alloc);
            ("init", Int r.Soc.Run.phases.Soc.Run.init);
            ("compute", Int r.Soc.Run.phases.Soc.Run.compute);
            ("teardown", Int r.Soc.Run.phases.Soc.Run.teardown);
          ] );
      ("correct", Bool r.Soc.Run.correct);
      ("checks", Int r.Soc.Run.checks);
      ("elided_checks", Int r.Soc.Run.elided_checks);
      ("entries_peak", Int r.Soc.Run.entries_peak);
      ("bus_beats", Int r.Soc.Run.bus_beats);
      ("area_luts", Int r.Soc.Run.area_luts);
      ( "denials",
        List
          (List.map
             (fun (d : Guard.Iface.denial) ->
               Obj
                 [
                   ("code", String d.Guard.Iface.code);
                   ("detail", String d.Guard.Iface.detail);
                 ])
             r.Soc.Run.denials) );
      ("recovered", Int r.Soc.Run.recovered);
      ( "fallbacks",
        List
          (List.map
             (fun (f : Soc.Run.fallback) ->
               Obj
                 [
                   ("task", Int f.Soc.Run.task);
                   ("reason", String f.Soc.Run.reason);
                 ])
             r.Soc.Run.fallbacks) );
      ( "faults",
        Obj
          [
            ("bus_stalls", Int c.Fault.Injector.bus_stalls);
            ("bus_stall_cycles", Int c.Fault.Injector.bus_stall_cycles);
            ("bus_errors", Int c.Fault.Injector.bus_errors);
            ("guard_denials", Int c.Fault.Injector.guard_denials);
            ("table_fulls", Int c.Fault.Injector.table_fulls);
            ("cache_drops", Int c.Fault.Injector.cache_drops);
            ("alloc_fails", Int c.Fault.Injector.alloc_fails);
            ("retries", Int c.Fault.Injector.retries);
            ("backoff_cycles", Int c.Fault.Injector.backoff_cycles);
          ] );
    ]

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Machsuite.Bench_def.t) ->
        Printf.printf "%-14s %2d buffers  ipc %-6.0f %s\n" b.name
          (List.length b.kernel.Kernel.Ir.bufs)
          b.directives.Hls.Directives.compute_ipc b.description)
      Machsuite.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the MachSuite benchmarks")
    Term.(const run $ const ())

(* ---- run ---- *)

let run_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON.")
  in
  let run bench config tasks engine topology checkers fastpath cache_dir json =
    Soc.Fastpath.set_mode fastpath;
    Soc.Runcache.set_dir cache_dir;
    let engine = resolve_engine ~topology engine in
    let r = Soc.Run.run ~tasks ~engine ~topology ~checkers config bench in
    if json then print_endline (Obs.Json.to_string (json_of_result r))
    else begin
      Printf.printf "%s on %s, %d task(s)\n" r.Soc.Run.benchmark r.Soc.Run.config_label
        r.Soc.Run.tasks;
      Printf.printf "  wall      %9d cycles\n" r.Soc.Run.wall;
      Printf.printf "  alloc     %9d\n" r.Soc.Run.phases.Soc.Run.alloc;
      Printf.printf "  init      %9d\n" r.Soc.Run.phases.Soc.Run.init;
      Printf.printf "  compute   %9d\n" r.Soc.Run.phases.Soc.Run.compute;
      Printf.printf "  teardown  %9d\n" r.Soc.Run.phases.Soc.Run.teardown;
      Printf.printf "  correct   %b\n" r.Soc.Run.correct;
      Printf.printf "  checks    %d (entries peak %d)\n" r.Soc.Run.checks r.Soc.Run.entries_peak;
      Printf.printf "  area      %d LUTs, power %.0f mW\n" r.Soc.Run.area_luts r.Soc.Run.power_mw;
      List.iter
        (fun (d : Guard.Iface.denial) -> Printf.printf "  denial: %s\n" d.Guard.Iface.detail)
        r.Soc.Run.denials
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one benchmark end to end")
    Term.(const run $ bench_arg $ config_arg $ tasks_arg $ engine_arg
          $ topology_arg $ checkers_arg $ fastpath_arg $ cache_dir_arg
          $ json_arg)

(* ---- trace ---- *)

let trace_cmd =
  let out_arg =
    Arg.(value & opt string "trace.json"
           & info [ "o"; "output" ] ~docv:"FILE"
               ~doc:"Where to write the Chrome trace-event JSON (open it at \
                     ui.perfetto.dev or chrome://tracing).")
  in
  let capacity_arg =
    Arg.(value
         & opt (int_in ~min:1 ~max:(1 lsl 24) ~what:"an event count in 1-16777216")
             262_144
         & info [ "n"; "events" ]
               ~doc:"Event-ring capacity; once full, the oldest events are \
                     dropped (and counted).")
  in
  let run bench config tasks engine out capacity =
    let engine = resolve_engine ~topology:Bus.Topology.Shared engine in
    let obs = Obs.Trace.create ~capacity () in
    let r = Soc.Run.run ~tasks ~obs ~engine config bench in
    Obs.Export.write_chrome ~path:out obs;
    Printf.printf "%s on %s, %d task(s): wall %d cycles, correct %b\n"
      r.Soc.Run.benchmark r.Soc.Run.config_label r.Soc.Run.tasks r.Soc.Run.wall
      r.Soc.Run.correct;
    print_newline ();
    print_string (Obs.Export.summary obs);
    print_newline ();
    print_string (Obs.Metrics.to_table (Obs.Metrics.of_trace obs));
    Printf.printf "\nwrote %s (%d events, %d dropped)\n" out (Obs.Trace.length obs)
      (Obs.Trace.dropped obs)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Record a cycle-resolved event trace of one run")
    Term.(
      const run $ bench_arg $ config_arg $ tasks_arg $ engine_arg $ out_arg
      $ capacity_arg)

(* ---- sweep ---- *)

let sweep_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the sweep as JSON.")
  in
  let run bench engine topology checkers fastpath cache_dir jobs json =
    Soc.Fastpath.set_mode fastpath;
    Soc.Runcache.set_dir cache_dir;
    let engine = resolve_engine ~topology engine in
    (* All 15 points (5 task counts x 3 configs) are independent full-system
       runs; they execute as one Ccsim.Pool batch and are re-assembled in
       row order after the barrier. *)
    let rows =
      Soc.Run.sweep_many ~jobs ~engine ~topology ~checkers
        ~tasks_list:[ 1; 2; 4; 8; 16 ]
        [ (Soc.Config.cpu, None);
          (Soc.Config.ccpu_accel, Some 16);
          (Soc.Config.ccpu_caccel, Some 16) ]
        bench
    in
    let unpack = function
      | (tasks, [ cpu; base; cc ]) -> (tasks, cpu, base, cc)
      | _ -> assert false
    in
    if json then
      let open Obs.Json in
      print_endline
        (to_string
           (Obj
              [
                ("benchmark", String bench.Machsuite.Bench_def.name);
                ("engine", String (engine_name engine));
                ( "rows",
                  List
                    (List.map
                       (fun row ->
                         let tasks, cpu, base, cc = unpack row in
                         Obj
                           [
                             ("tasks", Int tasks);
                             ("correct",
                              Bool
                                (cpu.Soc.Run.correct && base.Soc.Run.correct
                                && cc.Soc.Run.correct));
                             ("cc_checks", Int cc.Soc.Run.checks);
                             ("cc_denials",
                              Int (List.length cc.Soc.Run.denials));
                             ("cpu_wall", Int cpu.Soc.Run.wall);
                             ("base_wall", Int base.Soc.Run.wall);
                             ("cc_wall", Int cc.Soc.Run.wall);
                             ( "speedup",
                               Float
                                 (float_of_int cpu.Soc.Run.wall
                                 /. float_of_int base.Soc.Run.wall) );
                             ( "overhead_pct",
                               Float
                                 ((float_of_int cc.Soc.Run.wall
                                  /. float_of_int base.Soc.Run.wall
                                  -. 1.)
                                 *. 100.) );
                           ])
                       rows) );
              ]))
    else begin
      Printf.printf "%-6s %12s %12s %10s %10s\n" "tasks" "base wall" "cc wall"
        "speedup" "overhead";
      List.iter
        (fun row ->
          let tasks, cpu, base, cc = unpack row in
          Printf.printf "%-6d %12d %12d %9.1fx %+9.2f%%\n" tasks
            base.Soc.Run.wall cc.Soc.Run.wall
            (float_of_int cpu.Soc.Run.wall /. float_of_int base.Soc.Run.wall)
            ((float_of_int cc.Soc.Run.wall /. float_of_int base.Soc.Run.wall
             -. 1.)
            *. 100.))
        rows
    end
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Parallelism sweep (Figure 11 style)")
    Term.(const run $ bench_arg $ engine_arg $ topology_arg $ checkers_arg
          $ fastpath_arg $ cache_dir_arg $ jobs_arg $ json_arg)

(* ---- attack ---- *)

let schemes =
  [
    ("none", Soc.Config.Prot_naive);
    ("iopmp", Soc.Config.Prot_iopmp);
    ("iommu", Soc.Config.Prot_iommu);
    ("snpu", Soc.Config.Prot_snpu);
    ("coarse", Soc.Config.Prot_cc_coarse);
    ("fine", Soc.Config.Prot_cc_fine);
  ]

let attack_cmd =
  let scheme_arg =
    Arg.(value & opt (enum schemes) Soc.Config.Prot_cc_fine
           & info [ "s"; "scheme" ] ~doc:"Protection scheme.")
  in
  let run scheme =
    let show name outcome =
      Printf.printf "  %-28s %s\n" name (Security.Attacks.outcome_to_string outcome)
    in
    show "cross-task overread" (Security.Attacks.overread_cross_task scheme);
    show "cross-task overwrite" (Security.Attacks.overwrite_cross_task scheme);
    show "same-task other object" (Security.Attacks.overread_same_task_object scheme);
    show "intra-page slop" (Security.Attacks.overread_page_slop scheme);
    show "untrusted pointer deref" (Security.Attacks.untrusted_pointer_deref scheme);
    show "fixed OS address" (Security.Attacks.fixed_address_os scheme);
    show "use after free" (Security.Attacks.use_after_free scheme);
    show "uninitialized pointer" (Security.Attacks.uninitialized_pointer scheme);
    show "capability forge" (Security.Attacks.forge_capability scheme)
  in
  Cmd.v (Cmd.info "attack" ~doc:"Run the attack suite against a scheme")
    Term.(const run $ scheme_arg)

(* ---- faults ---- *)

let faults_cmd =
  let seed_arg =
    Arg.(value & opt int 1
           & info [ "s"; "seed" ]
               ~doc:"Fault-plan seed: same seed, benchmark and config always \
                     reproduce the same faults, retries and result.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON.")
  in
  let runs_arg =
    Arg.(value & opt positive_int 1
           & info [ "runs" ]
               ~doc:"Number of independent runs at consecutive seeds (seed, \
                     seed+1, ...).  Each run is its own deterministic \
                     simulation; with $(b,--jobs) they execute in parallel.")
  in
  (* The default-seed single-run text and JSON formats are pinned by the
     cram suite and two CI determinism gates — keep them byte-identical. *)
  let print_fault_text plan (r : Soc.Run.result) =
    let c = r.Soc.Run.faults in
    Printf.printf "%s on %s, %d task(s), fault plan %s\n" r.Soc.Run.benchmark
      r.Soc.Run.config_label r.Soc.Run.tasks (Fault.Plan.to_string plan);
    Printf.printf "  wall      %9d cycles (alloc %d, init %d, compute %d, teardown %d)\n"
      r.Soc.Run.wall r.Soc.Run.phases.Soc.Run.alloc r.Soc.Run.phases.Soc.Run.init
      r.Soc.Run.phases.Soc.Run.compute r.Soc.Run.phases.Soc.Run.teardown;
    Printf.printf "  injected  %d bus stalls (+%d cycles), %d bus errors, %d guard denials,\n"
      c.Fault.Injector.bus_stalls c.Fault.Injector.bus_stall_cycles
      c.Fault.Injector.bus_errors c.Fault.Injector.guard_denials;
    Printf.printf "            %d table-fulls, %d cache drops, %d alloc failures\n"
      c.Fault.Injector.table_fulls c.Fault.Injector.cache_drops
      c.Fault.Injector.alloc_fails;
    Printf.printf "  recovery  %d retries (%d backoff cycles), %d task(s) recovered, %d degraded to CPU\n"
      c.Fault.Injector.retries c.Fault.Injector.backoff_cycles r.Soc.Run.recovered
      (List.length r.Soc.Run.fallbacks);
    List.iter
      (fun (f : Soc.Run.fallback) ->
        Printf.printf "  fallback  task %d: %s\n" f.Soc.Run.task f.Soc.Run.reason)
      r.Soc.Run.fallbacks;
    Printf.printf "  correct   %b\n" r.Soc.Run.correct;
    if r.Soc.Run.correct then
      print_endline "  invariant ok: completed correctly (degraded tasks recomputed on CPU)"
    else
      print_endline "  invariant VIOLATED: incorrect result without a covering fallback"
  in
  let run bench config tasks seed runs engine fastpath jobs json =
    Soc.Fastpath.set_mode fastpath;
    let engine = resolve_engine ~topology:Bus.Topology.Shared engine in
    let seeds = List.init runs (fun i -> seed + i) in
    let plans = List.map (fun s -> Fault.Plan.default ~seed:s) seeds in
    let specs =
      List.map
        (fun plan -> Soc.Run.spec ~tasks ~faults:plan ~engine config bench)
        plans
    in
    let results = Soc.Run.run_many ~jobs specs in
    let all_correct = List.for_all (fun r -> r.Soc.Run.correct) results in
    if json then begin
      (match results with
      | [ r ] -> print_endline (Obs.Json.to_string (json_of_result r))
      | _ ->
          let open Obs.Json in
          print_endline
            (to_string
               (Obj
                  [
                    ( "runs",
                      List
                        (List.map2
                           (fun s r ->
                             Obj [ ("seed", Int s); ("result", json_of_result r) ])
                           seeds results) );
                  ])));
      if not all_correct then exit 1
    end
    else begin
      List.iter2 print_fault_text plans results;
      if not all_correct then exit 1
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run one benchmark under a seeded deterministic fault plan")
    Term.(
      const run $ bench_arg $ config_arg $ tasks_arg $ seed_arg $ runs_arg
      $ engine_arg $ fastpath_arg $ jobs_arg $ json_arg)

(* ---- lint ---- *)

let json_of_report (r : Analysis.report) =
  let open Obs.Json in
  let interval = function
    | None -> Null
    | Some iv -> String (Analysis.Interval.to_string iv)
  in
  let verdict = function
    | Analysis.Proven_in_bounds -> Obj [ ("status", String "proven") ]
    | Analysis.Unknown reason ->
        Obj [ ("status", String "unknown"); ("reason", String reason) ]
    | Analysis.Possible_violation w ->
        Obj
          [
            ("status", String "possible_violation");
            ("buffer", String w.Analysis.w_buf);
            ("kind", String (Analysis.kind_to_string w.Analysis.w_kind));
            ("index", Int w.Analysis.w_index);
            ("len", Int w.Analysis.w_len);
            ("site", String w.Analysis.w_site);
          ]
  in
  Obj
    [
      ("kernel", String r.Analysis.kernel);
      ("proven", Bool (Analysis.proven r));
      ("lint", List (List.map (fun l -> String l) r.Analysis.lint));
      ( "buffers",
        List
          (List.map
             (fun (b : Analysis.buf_report) ->
               Obj
                 [
                   ("name", String b.Analysis.buf);
                   ("writable", Bool b.Analysis.writable);
                   ("len", Int b.Analysis.len);
                   ("reads", interval b.Analysis.reads);
                   ("writes", interval b.Analysis.writes);
                   ("verdict", verdict b.Analysis.verdict);
                 ])
             r.Analysis.bufs) );
    ]

let lint_cmd =
  let bench_opt =
    Arg.(value & opt (some bench_conv) None
           & info [ "b"; "benchmark" ] ~doc:"Lint one benchmark (default: all).")
  in
  let all_arg =
    Arg.(value & flag
           & info [ "all" ]
               ~doc:"Lint every built-in benchmark kernel (the default when \
                     $(b,-b) is absent).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let demo_arg =
    Arg.(value & flag
           & info [ "demo-violation" ]
               ~doc:"Lint a synthetic kernel with a provable out-of-bounds \
                     store instead of the built-in benchmarks — exercises \
                     the nonzero-exit contract so scripts and CI can pin \
                     it.")
  in
  (* A kernel the analyzer must flag: the loop's last iteration stores one
     element past the buffer. *)
  let demo_violation_kernel =
    let open Kernel.Ir in
    { name = "demo-oob";
      bufs = [ { buf_name = "out"; elem = I32; len = 8; writable = true } ];
      scratch = [];
      body = [ For ("idx", i 0, i 9, [ Store ("out", v "idx", v "idx") ]) ] }
  in
  let run bench _all json demo =
    let reports =
      if demo then [ Analysis.analyze demo_violation_kernel ]
      else
        let benches =
          match bench with Some b -> [ b ] | None -> Machsuite.Registry.all
        in
        List.map
          (fun (b : Machsuite.Bench_def.t) ->
            Analysis.analyze ~params:(Analysis.param_ranges b.params) b.kernel)
          benches
    in
    let failing (r : Analysis.report) =
      r.Analysis.lint <> []
      || List.exists
           (fun (b : Analysis.buf_report) ->
             match b.Analysis.verdict with
             | Analysis.Possible_violation _ -> true
             | Analysis.Proven_in_bounds | Analysis.Unknown _ -> false)
           r.Analysis.bufs
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("kernels", Obs.Json.List (List.map json_of_report reports));
                ( "proven",
                  Obs.Json.Int
                    (List.length (List.filter Analysis.proven reports)) );
                ("total", Obs.Json.Int (List.length reports));
              ]))
    else begin
      List.iter (fun r -> print_string (Analysis.report_to_string r)) reports;
      Printf.printf "%d/%d kernels proven in bounds\n"
        (List.length (List.filter Analysis.proven reports))
        (List.length reports)
    end;
    (* Violations and lint findings in shipped kernels fail the invocation so
       CI can gate on it; Unknown is an honest "needs the dynamic checker". *)
    if List.exists failing reports then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static capability-footprint analysis of the benchmark kernels")
    Term.(const run $ bench_opt $ all_arg $ json_arg $ demo_arg)

let verify_cmd =
  let depth_arg =
    Arg.(value & opt positive_int Verify.Engine.default_opts.Verify.Engine.v_depth
           & info [ "depth" ]
               ~doc:"Ops per source program, at least 1 (interleavings grow \
                     as a multinomial of this).")
  in
  let accels_arg =
    Arg.(value
         & opt (int_in ~min:1 ~max:8 ~what:"an accelerator count in 1-8")
             Verify.Engine.default_opts.Verify.Engine.v_accels
         & info [ "accels" ] ~doc:"Accelerator tasks (1-8).")
  in
  let objs_arg =
    Arg.(value
         & opt (int_in ~min:1 ~max:16 ~what:"an object count in 1-16")
             Verify.Engine.default_opts.Verify.Engine.v_objs
         & info [ "objs" ]
               ~doc:"Protected objects (1-16); grant maps grow as \
                     $(b,3^(accels*objs)).")
  in
  let obj_len_arg =
    Arg.(value
         & opt (int_in ~min:2 ~max:4096 ~what:"an object length in 2-4096")
             Verify.Engine.default_opts.Verify.Engine.v_obj_len
         & info [ "obj-len" ] ~doc:"Bytes per object (2-4096).")
  in
  let space_arg =
    Arg.(value
         & opt (int_in ~min:0 ~max:14 ~what:"a window size in 0-14 bits")
             Verify.Engine.default_opts.Verify.Engine.v_space_bits
         & info [ "space-bits" ]
               ~doc:"Phase-1 encoding sweep runs over a $(b,2^bits)-byte \
                     window (0-14: every region of a wider window is no \
                     longer exactly representable); cost grows as \
                     $(b,4^bits).")
  in
  let mutation_conv =
    let parse s =
      match Verify.Model.mutation_of_string s with
      | Ok m -> Ok m
      | Error e -> Error (`Msg e)
    in
    Arg.conv
      ( parse,
        fun fmt m ->
          Format.pp_print_string fmt (Verify.Model.mutation_to_string m) )
  in
  let mutate_arg =
    Arg.(value & opt mutation_conv Verify.Model.M_none
           & info [ "mutate" ]
               ~doc:"Run against a deliberately broken checker \
                     ($(b,ghost-exn), $(b,wide-bounds), $(b,skip-revoke), \
                     $(b,elide-unproven)) — the verifier must find a \
                     counterexample, demonstrating sensitivity.  Default \
                     $(b,none): the real system, which must verify clean.")
  in
  let random_arg =
    Arg.(value & opt non_negative_int 0
           & info [ "random" ]
               ~doc:"Instead of the exhaustive sweep, run N seeded random \
                     scenarios (the QCheck-style fallback for bounds the \
                     exhaustive mode cannot reach); 0, the default, runs \
                     the exhaustive sweep.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed for $(b,--random).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
           & info [ "replay" ]
               ~doc:"Re-execute one counterexample token deterministically \
                     and report what happens.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let run depth accels objs obj_len space_bits topology checkers mutation
      random seed replay json =
    let opts =
      { Verify.Engine.v_depth = depth; v_accels = accels; v_objs = objs;
        v_obj_len = obj_len; v_space_bits = space_bits;
        v_topology = topology; v_checkers = checkers; v_mutation = mutation }
    in
    match replay with
    | Some token -> (
        match Verify.Engine.replay token with
        | Error e ->
            prerr_endline ("replay: " ^ e);
            exit 2
        | Ok (trace, cx) ->
            if json then
              print_endline
                (Obs.Json.to_string
                   (Obs.Json.Obj
                      [ ( "trace",
                          Obs.Json.List
                            (List.map Verify.Engine.json_of_step trace) );
                        ( "counterexample",
                          match cx with
                          | None -> Obs.Json.Null
                          | Some cx ->
                              Verify.Engine.json_of_counterexample cx ) ]))
            else begin
              List.iter
                (fun (s : Verify.Harness.step) ->
                  Printf.printf "[%d] cycle %d: %s -> %s\n"
                    s.Verify.Harness.s_index s.Verify.Harness.s_cycle
                    (Verify.Model.op_pretty s.Verify.Harness.s_src
                       s.Verify.Harness.s_op)
                    s.Verify.Harness.s_note)
                trace;
              match cx with
              | None -> print_endline "replay: no violation"
              | Some cx ->
                  let b = Buffer.create 256 in
                  Verify.Engine.render_counterexample b cx;
                  print_string (Buffer.contents b)
            end;
            if cx <> None then exit 1)
    | None ->
        if random > 0 then begin
          let r = Verify.Engine.random_suite opts ~seed ~runs:random in
          (if json then
             print_endline
               (Obs.Json.to_string
                  (Obs.Json.Obj
                     [ ("runs", Obs.Json.Int r.Verify.Engine.rr_runs);
                       ( "violating",
                         Obs.Json.Int r.Verify.Engine.rr_violating );
                       ( "counterexample",
                         match r.Verify.Engine.rr_counterexample with
                         | None -> Obs.Json.Null
                         | Some cx -> Verify.Engine.json_of_counterexample cx
                       ) ]))
           else begin
             Printf.printf "random: %d runs\n" r.Verify.Engine.rr_runs;
             match r.Verify.Engine.rr_counterexample with
             | None -> print_endline "verified: no counterexample"
             | Some cx ->
                 let b = Buffer.create 256 in
                 Verify.Engine.render_counterexample b cx;
                 print_string (Buffer.contents b)
           end);
          if r.Verify.Engine.rr_counterexample <> None then exit 1
        end
        else begin
          let r = Verify.Engine.run opts in
          if json then
            print_endline
              (Obs.Json.to_string (Verify.Engine.json_of_report r))
          else print_string (Verify.Engine.render_report r);
          if not (Verify.Engine.ok r) then exit 1
        end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Bounded-exhaustive model checking of the protection stack: \
             every capability encoding over a tiny window, every grant map, \
             every arbiter interleaving of the probe programs — with \
             revocation, fault injection, check elision and shim refill in \
             flight.  Exit 0 when the bound is exhausted clean, 1 on a \
             counterexample (printed with a deterministic $(b,--replay) \
             token).")
    Term.(const run $ depth_arg $ accels_arg $ objs_arg $ obj_len_arg
          $ space_arg $ topology_arg $ checkers_arg $ mutate_arg $ random_arg
          $ seed_arg $ replay_arg $ json_arg)

let matrix_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the matrix as JSON.")
  in
  let run jobs json =
    if json then
      let open Obs.Json in
      let rows = Security.Matrix.rows ~jobs () in
      print_endline
        (to_string
           (Obj
              [
                ( "schemes",
                  List
                    (List.map (fun (n, _) -> String n) Security.Matrix.schemes)
                );
                ( "rows",
                  List
                    (List.map
                       (fun (r : Security.Matrix.row) ->
                         Obj
                           [
                             ("group", String r.Security.Matrix.group);
                             ("cwes", String r.Security.Matrix.cwes);
                             ("title", String r.Security.Matrix.title);
                             ( "cells",
                               List
                                 (List.map
                                    (fun c -> String c)
                                    r.Security.Matrix.cells) );
                           ])
                       rows) );
              ]))
    else print_endline (Security.Matrix.render ~jobs ())
  in
  Cmd.v (Cmd.info "matrix" ~doc:"Print the CWE matrix (Table 3)")
    Term.(const run $ jobs_arg $ json_arg)

(* ---- serve ---- *)

let serve_cmd =
  let config_arg =
    Arg.(value
         & opt
             (enum
                [ ("ccpu+caccel", Soc.Config.ccpu_caccel);
                  ("coarse", Soc.Config.ccpu_caccel_coarse) ])
             Soc.Config.ccpu_caccel
         & info [ "c"; "config" ]
             ~doc:"CapChecker configuration the service runs under.")
  in
  let tenants_arg =
    Arg.(value & opt positive_int 100
           & info [ "tenants" ] ~doc:"Tenant compartments sharing the SoC.")
  in
  let requests_arg =
    Arg.(value & opt non_negative_int 1000
           & info [ "requests" ] ~doc:"Total requests offered over the run.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload RNG seed.")
  in
  let instances_arg =
    Arg.(value & opt positive_int 8
           & info [ "instances" ] ~doc:"Accelerator instances.")
  in
  let entries_arg =
    Arg.(value & opt positive_int 256
           & info [ "cc-entries" ] ~doc:"CapChecker table capacity.")
  in
  let inflight_arg =
    Arg.(value & opt positive_int 4
           & info [ "max-inflight" ]
               ~doc:"Per-tenant bound on concurrently admitted requests.")
  in
  let watermark_arg =
    Arg.(value & opt (percent ~min:1) 90
           & info [ "watermark" ]
               ~doc:"Admission watermark: admit only below this percentage \
                     of table occupancy (100 disables).")
  in
  let spill_arg =
    Arg.(value & opt (some non_negative_int) None
           & info [ "spill" ]
               ~doc:"Wait-queue depth beyond which admitted requests run on \
                     the CPU (default: twice the instance count).")
  in
  let gap_arg =
    Arg.(value & opt non_negative_int 0
           & info [ "gap" ]
               ~doc:"Mean request inter-arrival gap in cycles (0 derives it \
                     from the profiled service time and $(b,--util)).")
  in
  let util_arg =
    Arg.(value & opt (percent ~min:1) 80
           & info [ "util" ]
               ~doc:"Target accelerator utilization (percent) for the \
                     derived gap.")
  in
  let churn_arg =
    Arg.(value & opt (percent ~min:0) 10
           & info [ "churn" ]
               ~doc:"Percentage of tenants that depart mid-run.")
  in
  let top_arg =
    Arg.(value & opt non_negative_int 10
           & info [ "top" ] ~doc:"Tenants shown in the p99 table.")
  in
  let bench_opt =
    Arg.(value & opt (some bench_conv) None
           & info [ "b"; "benchmark" ]
               ~doc:"Serve a single kernel instead of the default mix.")
  in
  let json_arg =
    Arg.(value & flag
           & info [ "json" ]
               ~doc:"Emit the full report as JSON (byte-identical across \
                     repeat seeds and $(b,--jobs) values).")
  in
  let run config tenants requests seed instances entries topology checkers
      fastpath inflight watermark spill gap util churn top bench jobs json =
    Soc.Fastpath.set_mode fastpath;
    let spill = Option.value spill ~default:(2 * instances) in
    let mix =
      match bench with
      | Some (b : Machsuite.Bench_def.t) -> [ (b.name, 1) ]
      | None -> Serve.Workload.default_mix
    in
    let params =
      {
        Serve.Loop.sv_config = config;
        sv_instances = instances;
        sv_cc_entries = entries;
        sv_topology = topology;
        sv_checkers = checkers;
        sv_policy =
          {
            Serve.Admission.max_inflight = inflight;
            watermark_pct = watermark;
            spill_depth = spill;
          };
        sv_workload =
          {
            Serve.Workload.tenants;
            requests;
            seed;
            mean_gap = gap;
            ramp = 0;
            churn_pct = churn;
            mix;
            scales = Serve.Workload.default_scales;
          };
        sv_util_pct = util;
        sv_jobs = jobs;
        sv_check_invariants = false;
      }
    in
    let report = Serve.Loop.run params in
    if json then print_endline (Serve.Report.to_string report)
    else print_string (Serve.Report.to_table ~top report)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Multi-tenant accelerator-as-a-service: a seeded open-loop \
             workload over tenant compartments with admission control, \
             per-tenant tail latency and CapChecker table-pressure \
             reporting")
    Term.(const run $ config_arg $ tenants_arg $ requests_arg $ seed_arg
          $ instances_arg $ entries_arg $ topology_arg $ checkers_arg
          $ fastpath_arg $ inflight_arg $ watermark_arg
          $ spill_arg $ gap_arg
          $ util_arg $ churn_arg $ top_arg $ bench_opt $ jobs_arg $ json_arg)

let () =
  let info =
    Cmd.info "capsim" ~version:"1.0.0"
      ~doc:"Simulated CHERI heterogeneous system with the CapChecker"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; trace_cmd; sweep_cmd; attack_cmd; matrix_cmd;
            faults_cmd; lint_cmd; serve_cmd; verify_cmd ]))
