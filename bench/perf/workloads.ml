(* The five benchmark workloads.  Each one turns a seed into inputs (the
   set-up phase), then runs its calls into the library (the timed phase),
   checks every result, and renders every simulated result into a canonical
   text whose digest must not change under a speed-only change.

   Sizes are chosen so one repetition takes about two seconds on a 2-core
   host: a measurement window of a few tens of seconds then holds enough
   fresh-process repetitions for a steady median. *)

type size = Full | Smoke

type outcome = {
  ops : int;  (** top-level calls attempted *)
  ops_failed : int;
  failures : string list;  (** what failed, oldest first *)
  digest : string;  (** hex MD5 of the canonical rendering *)
  counts : (string * float) list;  (** layer metrics read off the results *)
}

type t = {
  name : string;
  prepare : size -> seed:int -> Legs.t -> outcome;
      (** [prepare size ~seed] generates the inputs; applying the result to a
          leg runs the timed phase. *)
}

(* ---- bookkeeping shared by every workload ---- *)

type acc = {
  buf : Buffer.t;
  mutable ops : int;
  mutable failed : int;
  mutable failures : string list;
  mutable results : Soc.Run.result list;
}

let new_acc () =
  { buf = Buffer.create 65536; ops = 0; failed = 0; failures = [];
    results = [] }

let fail acc msg =
  acc.failed <- acc.failed + 1;
  acc.failures <- msg :: acc.failures

(* One top-level call: counted, and counted failed if it raises. *)
let attempt acc what f =
  acc.ops <- acc.ops + 1;
  match f () with
  | v -> Some v
  | exception e ->
      fail acc (what ^ ": " ^ Printexc.to_string e);
      Printf.bprintf acc.buf "raised %s\n" what;
      None

let render_result b (r : Soc.Run.result) =
  let p = r.phases and f = r.faults in
  Printf.bprintf b
    "run %s %s tasks=%d phases=%d,%d,%d,%d wall=%d correct=%b checks=%d \
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

(* A call into [Soc.Run]: spanned, rendered, and checked [correct]. *)
let soc_call acc what f =
  match attempt acc what (fun () -> Span.wrap ~arg:what "soc.run" f) with
  | None -> None
  | Some (r : Soc.Run.result) ->
      render_result acc.buf r;
      acc.results <- r :: acc.results;
      if not r.correct then fail acc (what ^ ": correct=false");
      Some r

let sum f acc =
  float_of_int (List.fold_left (fun n r -> n + f r) 0 acc.results)

let injected (c : Fault.Injector.counts) =
  c.bus_stalls + c.bus_errors + c.guard_denials + c.table_fulls
  + c.cache_drops + c.alloc_fails

(* Work counts a speed-only change must not move, plus the fault tallies. *)
let soc_counts acc =
  [
    ("soc.sim_cycles", sum (fun r -> r.Soc.Run.wall) acc);
    ("soc.checks", sum (fun r -> r.Soc.Run.checks) acc);
    ("soc.elided_checks", sum (fun r -> r.Soc.Run.elided_checks) acc);
    ("soc.bus_beats", sum (fun r -> r.Soc.Run.bus_beats) acc);
    ("fault.injected", sum (fun r -> injected r.Soc.Run.faults) acc);
    ("fault.retries", sum (fun r -> r.Soc.Run.faults.Fault.Injector.retries) acc);
    ("fault.fallbacks", sum (fun r -> List.length r.Soc.Run.fallbacks) acc);
  ]

let finish ?(counts = []) acc =
  {
    ops = acc.ops;
    ops_failed = acc.failed;
    failures = List.rev acc.failures;
    digest = Digest.to_hex (Digest.string (Buffer.contents acc.buf));
    counts = soc_counts acc @ counts;
  }

let find = Machsuite.Registry.find

(* The kernels [paper] and [observed_faults] run: 8 of the 19, mixing
   statically proven streaming kernels with unproven pointer-chasing ones.
   The four heaviest (backprop, viterbi, stencil2d, stencil3d) would take
   4.7 s per repetition on their own. *)
let kernels = function
  | Full ->
      [ "aes"; "bfs_queue"; "fft_transpose"; "gemm_ncubed"; "md_knn"; "nw";
        "sort_merge"; "spmv_crs" ]
  | Smoke -> [ "aes"; "spmv_crs" ]

(* ---- paper ---- *)

(* Mixed 8-accelerator systems: each holds the same multiset of kernels in
   a seeded order, which moves instance placement and arbitration order.
   Drawing the kernels themselves would make host time and peak memory
   depend on the seed (116-144 MB across ten seeds), not on the code. *)
let mixed_systems size rng =
  let names = Array.of_list (kernels size) in
  List.init
    (match size with Full -> 4 | Smoke -> 1)
    (fun _ ->
      let slots = Array.init 8 (fun i -> find names.(i mod Array.length names)) in
      Ccsim.Rng.shuffle rng slots;
      Array.to_list slots)

let paper size ~seed =
  let benches = List.map find (kernels size) in
  let systems = mixed_systems size (Ccsim.Rng.create seed) in
  fun leg ->
    let acc = new_acc () in
    List.iter
      (fun (b : Machsuite.Bench_def.t) ->
        let call label ~tasks config =
          ignore
            (soc_call acc (b.name ^ "@" ^ label) (fun () ->
                 Legs.run leg ~tasks config b))
        in
        call "cpu/1" ~tasks:1 Soc.Config.cpu;
        call "ccpu+accel/1" ~tasks:1 Soc.Config.ccpu_accel;
        List.iter
          (fun config -> call (Soc.Config.label config) ~tasks:8 config)
          Soc.Config.evaluated)
      benches;
    List.iteri
      (fun i system ->
        List.iter
          (fun config ->
            ignore
              (soc_call acc
                 (Printf.sprintf "mixed%d@%s" i (Soc.Config.label config))
                 (fun () -> Legs.run_mixed leg config system)))
          [ Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel ])
      systems;
    finish acc

(* ---- interconnect ---- *)

let columns =
  [ ("shared_central", Bus.Topology.Shared, Capchecker.Shim.Central);
    ("xbar4_central", Bus.Topology.Crossbar { banks = 4 },
     Capchecker.Shim.Central);
    ("xbar4_shim", Bus.Topology.Crossbar { banks = 4 },
     Capchecker.Shim.Distributed);
    ("hier4_shim", Bus.Topology.Hierarchical { clusters = 4 },
     Capchecker.Shim.Distributed) ]

let interconnect_tasks = function Full -> [ 4; 8 ] | Smoke -> [ 2 ]

let interconnect size ~seed:_ =
  let bench = find "kmp" in
  fun _leg ->
    let acc = new_acc () in
    List.iter
      (fun tasks ->
        let row =
          List.filter_map
            (fun (label, topology, checkers) ->
              soc_call acc (Printf.sprintf "%s@%d" label tasks) (fun () ->
                  Legs.run_event ~tasks ~instances:tasks ~cc_entries:512
                    ~topology ~checkers Soc.Config.ccpu_caccel bench))
            columns
        in
        (* Topology and checker placement move latency, never verdicts. *)
        match row with
        | [] -> ()
        | first :: rest ->
            List.iter
              (fun (r : Soc.Run.result) ->
                if
                  r.checks <> first.checks || r.denials <> first.denials
                  || r.bus_beats <> first.bus_beats
                then
                  fail acc
                    (Printf.sprintf "interconnect: verdicts diverged at %d tasks"
                       tasks))
              rest)
      (interconnect_tasks size);
    let widest = List.fold_left max 0 (interconnect_tasks size) in
    finish acc
      ~counts:
        (List.map
           (fun (label, _, _) ->
             ( "bus." ^ label ^ "_s",
               Span.total ~arg:(Printf.sprintf "%s@%d" label widest) "soc.run" ))
           columns)

(* ---- serve ---- *)

let serve size ~seed =
  let tenants, requests =
    match size with Full -> (2048, 60_000) | Smoke -> (64, 2_000)
  in
  let serve_seed = 1 + Ccsim.Rng.int (Ccsim.Rng.create seed) 1_000_000 in
  let base = Serve.Loop.default_params ~seed:serve_seed ~tenants ~requests () in
  let params =
    { base with
      Serve.Loop.sv_workload =
        { base.Serve.Loop.sv_workload with Serve.Workload.churn_pct = 25 } }
  in
  fun _leg ->
    let acc = new_acc () in
    match
      attempt acc "serve" (fun () ->
          Span.wrap "serve.loop" (fun () -> Serve.Loop.run params))
    with
    | None -> finish acc
    | Some r ->
        Buffer.add_string acc.buf (Serve.Report.to_string r);
        let t = r.Serve.Report.rp_totals and table = r.Serve.Report.rp_table in
        if table.Capchecker.Table.st_live <> 0 then
          fail acc "serve: table.live <> 0 at the end";
        if t.t_admitted <> t.t_completed + t.t_cancelled then
          fail acc "serve: admitted <> completed + cancelled";
        let loop_s = Span.total "serve.loop" in
        let f = float_of_int in
        finish acc
          ~counts:
            [
              ("serve.loop_s", loop_s);
              ("serve.host_us_per_request", loop_s *. 1e6 /. f requests);
              ("serve.admit_ratio", f t.t_admitted /. f t.t_requests);
              ("serve.root_evictions", f t.t_root_evictions);
              ("serve.thrash", f (Serve.Report.thrash r));
              ("serve.p99_cycles", f r.Serve.Report.rp_p99);
              ("capchecker.installs", f table.st_installs);
              ("capchecker.evictions", f table.st_evictions);
              ("capchecker.conflicts", f table.st_conflicts);
            ]

(* ---- verify ---- *)

let verify size ~seed:_ =
  let opts =
    { Verify.Engine.default_opts with
      Verify.Engine.v_depth = (match size with Full -> 2 | Smoke -> 1);
      v_objs = 2 }
  in
  fun _leg ->
    let acc = new_acc () in
    match
      attempt acc "verify" (fun () ->
          Span.wrap "verify.run" (fun () -> Verify.Engine.run opts))
    with
    | None -> finish acc
    | Some r ->
        Buffer.add_string acc.buf (Verify.Engine.render_report r);
        if not (Verify.Engine.ok r) then fail acc "verify: not ok";
        let run_s = Span.total "verify.run" in
        let f = float_of_int in
        finish acc
          ~counts:
            [
              ("verify.run_s", run_s);
              ("verify.host_us_per_op", run_s *. 1e6 /. f (max 1 r.r_ops));
              ("verify.schedules", f r.r_schedules);
              ( "verify.prune_ratio",
                f r.r_pruned /. f (max 1 (r.r_schedules + r.r_pruned)) );
              ("capchecker.shim_invalidations", f r.r_invalidations);
            ]

(* ---- observed_faults ---- *)

let fault_kernels = function
  | Full -> [ "aes"; "fft_transpose"; "sort_radix"; "spmv_crs" ]
  | Smoke -> [ "aes"; "spmv_crs" ]

let observed_faults size ~seed =
  let observed = List.map find (kernels size) in
  let rng = Ccsim.Rng.create seed in
  let plans =
    List.init
      (match size with Full -> 5 | Smoke -> 1)
      (fun _ -> Fault.Plan.default ~seed:(1 + Ccsim.Rng.int rng 1_000_000))
  in
  let faulted =
    List.concat_map
      (fun name -> List.map (fun plan -> (find name, plan)) plans)
      (fault_kernels size)
  in
  fun leg ->
    let acc = new_acc () in
    let events = ref 0 and dropped = ref 0 in
    List.iter
      (fun (b : Machsuite.Bench_def.t) ->
        let obs = Obs.Trace.create ~capacity:(1 lsl 16) () in
        match
          soc_call acc (b.name ^ "@observed") (fun () ->
              Legs.run leg ~tasks:8 ~obs Soc.Config.ccpu_caccel b)
        with
        | None -> ()
        | Some _ ->
            let m = Span.wrap ~arg:b.name "obs.metrics" (fun () ->
                Obs.Metrics.of_trace obs)
            in
            events := !events + Obs.Trace.length obs;
            dropped := !dropped + Obs.Trace.dropped obs;
            List.iter
              (fun (k, v) -> Printf.bprintf acc.buf "  metric %s %d\n" k v)
              (Obs.Metrics.counters m))
      observed;
    List.iter
      (fun ((b : Machsuite.Bench_def.t), (plan : Fault.Plan.t)) ->
        ignore
          (soc_call acc (Printf.sprintf "%s@fault%d" b.name plan.seed)
             (fun () ->
               Legs.run leg ~tasks:4 ~faults:plan Soc.Config.ccpu_caccel b)))
      faulted;
    finish acc
      ~counts:
        [
          ("obs.events", float_of_int !events);
          ("obs.dropped", float_of_int !dropped);
          ("obs.metrics_s", Span.total "obs.metrics");
        ]

(* Why each workload is in the set is recorded in BENCHMARK.json and
   README.md: each stresses layers the others leave idle. *)
let all =
  [
    { name = "paper"; prepare = paper };
    { name = "interconnect"; prepare = interconnect };
    { name = "serve"; prepare = serve };
    { name = "verify"; prepare = verify };
    { name = "observed_faults"; prepare = observed_faults };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) all
