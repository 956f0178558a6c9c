type phases = { alloc : int; init : int; compute : int; teardown : int }

let wall_of p = p.alloc + p.init + p.compute + p.teardown

type engine = Legacy_replay | Event_driven

type fallback = { task : int; reason : string }

type elide_mode = Elide_off | Elide_on | Elide_differential

type result = {
  config_label : string;
  benchmark : string;
  tasks : int;
  phases : phases;
  wall : int;
  correct : bool;
  denials : Guard.Iface.denial list;
  checks : int;
  elided_checks : int;
  entries_peak : int;
  bus_beats : int;
  area_luts : int;
  power_mw : float;
  recovered : int;
  fallbacks : fallback list;
  faults : Fault.Injector.counts;
}

let buffer_bytes (kernel : Kernel.Ir.t) =
  List.fold_left (fun acc b -> acc + Kernel.Ir.buf_decl_bytes b) 0 kernel.bufs

let init_layout mem (bench : Machsuite.Bench_def.t) layout =
  List.iter
    (fun (binding : Memops.Layout.binding) ->
      Memops.Layout.init_buffer mem binding (fun idx ->
          bench.init binding.decl.Kernel.Ir.buf_name idx))
    (Memops.Layout.bindings layout)

let verify mem (bench : Machsuite.Bench_def.t) layout =
  let golden = Machsuite.Bench_def.golden bench in
  List.for_all
    (fun name ->
      let binding = Memops.Layout.find layout name in
      let actual = Memops.Layout.read_buffer mem binding in
      let expected = List.assoc name golden in
      Array.length actual = Array.length expected
      && Array.for_all2 Kernel.Value.equal actual expected)
    bench.output_bufs

let finish (sys : System.t) ~config_label ~benchmark ~tasks ~phases ~correct
    ~denials ~checks ~entries_peak ~bus_beats ~area_luts ?(elided_checks = 0)
    ?(recovered = 0) ?(fallbacks = []) () =
  let utilization =
    if phases.compute <= 0 then 0.0
    else float_of_int bus_beats /. float_of_int phases.compute
  in
  {
    config_label; benchmark; tasks; phases; wall = wall_of phases; correct;
    denials; checks; elided_checks; entries_peak; bus_beats; area_luts;
    power_mw = Power.power_mw ~luts:area_luts ~utilization;
    recovered; fallbacks;
    faults = Fault.Injector.counts sys.System.faults;
  }

(* Elision eligibility: the backend must adjudicate against exactly the
   per-buffer capabilities the static analysis models, and the analysis —
   run under the task's concrete parameter assignment — must prove every
   access in bounds.  [Elide_differential] keeps the guard in the loop and
   instead asserts the soundness contract: a proven task must never be
   dynamically denied. *)
let statically_proven (bench : Machsuite.Bench_def.t) = Fastpath.proven bench

let elide_eligible backend mode bench =
  match mode with
  | Elide_off -> false
  | Elide_on | Elide_differential ->
      Driver.Backend.supports_elision backend && statically_proven bench

let differential_check mode ~eligible ~(bench : Machsuite.Bench_def.t)
    (denied : Guard.Iface.denial option) =
  match (mode, denied) with
  | Elide_differential, Some d when eligible ->
      failwith
        (Printf.sprintf
           "Run: analysis unsoundness: %s proven in bounds but dynamically \
            denied (%s: %s)"
           bench.Machsuite.Bench_def.name d.Guard.Iface.code
           d.Guard.Iface.detail)
  | _ -> ()

(* How one bench's accesses are adjudicated under one system.  Elision turns
   the modeled checker off; otherwise the per-access guard call is skipped
   only when the guard declares a pure constant-latency check path, the
   backend adjudicates against the per-buffer capabilities the static
   analysis models, and the analysis proves the task's whole footprint in
   bounds — the same contract that gates elision, minus turning the modeled
   hardware off.  [Differential] mode keeps the guard in the loop so its fast
   leg exercises every live check. *)
let adjudication_for ~fast ~elide_exec ~backend ~(guard : Guard.Iface.t) bench =
  if elide_exec then Accel.Engine.Adj_elide
  else
    match guard.Guard.Iface.const_latency with
    | Some l
      when fast
           && Driver.Backend.supports_elision backend
           && Fastpath.proven bench
           && Fastpath.current_mode () <> Fastpath.Differential ->
        Accel.Engine.Adj_fastpath l
    | _ -> Accel.Engine.Adj_live guard

(* ------------------------------------------------------------------ *)
(* Cross-sweep whole-run memoization.  A result is a deterministic      *)
(* function of everything in the key below, provided no observability   *)
(* sink is attached (events would be lost on a hit) and no fault plan   *)
(* is active (fault draws consume a per-system RNG whose effect is not  *)
(* part of the key, and faulted runs must never be elided anyway).      *)
(* The entry points enforce both gates before consulting the table.     *)
(* ------------------------------------------------------------------ *)

type run_memo_key = {
  mk_mixed : bool;
      (* [run] and [run_mixed] default [instances] differently and label
         results differently, so a singleton mixed run is not a [run] *)
  mk_config : Config.t;
  mk_benches : Fastpath.bench_key list;  (* singleton for [run] *)
  mk_tasks : int;
  mk_instances : int option;
  mk_cc_entries : int;
  mk_bus : Bus.Params.t;
  mk_elide : elide_mode;
  mk_engine : engine;
  mk_topology : Bus.Topology.kind;
  mk_checkers : Capchecker.Shim.checking;
}

let run_memo : (run_memo_key, result) Ccsim.Memo.t = Ccsim.Memo.create 64

let () = Fastpath.register_clear (fun () -> Ccsim.Memo.clear run_memo)

let memo_run key compute =
  match Ccsim.Memo.find run_memo key with
  | Some r ->
      Obs.Counters.incr Obs.Counters.runs_memoized;
      r
  | None -> Ccsim.Memo.add run_memo key (compute ())

(* Observation-only phase markers: stamped on the shared sink at the phase's
   start cycle.  The sink is never consulted by the simulation, so emitting
   (or not emitting) these cannot change any cycle count. *)
let emit_phase obs ~at ~task phase dur =
  if Obs.Trace.enabled obs then
    Obs.Trace.emit_at obs ~cycle:at (Obs.Event.Task_phase { task; phase; dur })

let engine_task (bench : Machsuite.Bench_def.t) (h : Driver.handle) =
  { Accel.Engine.instance = h.Driver.task_id; kernel = bench.kernel;
    layout = h.Driver.layout; params = bench.params; obj_ids = h.Driver.obj_ids }

(* Record [bench]'s access script before any timeline runs: one guard-free,
   trace-free interpretation on [a]'s freshly initialized buffers (see
   {!Accel.Engine.record}), whose golden-output check becomes the script's
   verdict.  [None] when the recording stopped early; the caller then
   interprets live. *)
let record_script sys (bench : Machsuite.Bench_def.t) (a : Driver.allocated) =
  let key = Fastpath.bench_key bench in
  match Fastpath.find_script key with
  | Some _ as hit -> hit
  | None -> (
      let layout = a.Driver.handle.Driver.layout in
      init_layout sys.System.mem bench layout;
      match
        Accel.Engine.record ~mem:sys.System.mem ~directives:bench.directives
          ~naive_tag_writes:(System.naive_tag_writes sys)
          (engine_task bench a.Driver.handle)
      with
      | None -> None
      | Some script ->
          let correct = verify sys.System.mem bench layout in
          Fastpath.store_script key script ~correct;
          Some (script, correct))

(* Fault-free heterogeneous execution runs over task groups, shared by
   [run] (one group of [tasks] identical tasks) and [run_mixed] (one group of
   one task per bench).  Every task of a group is adjudicated alike and fed
   from the same source: the bench's recorded script (which carries its
   recording run's verdict) or, without one, a live interpretation. *)
type group = {
  g_bench : Machsuite.Bench_def.t;
  g_design : Hls.Directives.design;
  g_allocs : Driver.allocated list;  (** lead first *)
  g_eligible : bool;
  g_adj : Accel.Engine.adjudication;
  g_script : (Accel.Script.t * bool) option;
}

let source_of g =
  match g.g_script with
  | Some (script, _) -> Accel.Engine.Replay script
  | None -> Accel.Engine.Interpret

(* A retired task's golden-output verdict: its script's recorded one, or a
   check of its own buffers. *)
let verified sys g (a : Driver.allocated) denied =
  denied = None
  &&
  match g.g_script with
  | Some (_, correct) -> correct
  | None -> verify sys.System.mem g.g_bench a.Driver.handle.Driver.layout

(* Event-driven compute phase: one engine cursor per task (fed by its
   script or by the interpreter), all contending for the bus through a
   round-robin arbiter on a shared discrete-event timeline.  The scheduler's clock is mirrored into the observability sink
   so guard and bus events carry their true cycles.  Whatever a task's
   source, a stateful checker sees the real interleaving of checks across
   instances. *)
let run_event_compute sys ~start tasks_l =
  let obs = sys.System.obs in
  let backend = Option.get sys.System.backend in
  let sched =
    Ccsim.Sched.create ~on_advance:(fun cycle -> Obs.Trace.set_now obs cycle) ()
  in
  let ic =
    Bus.Topology.create ~obs ~faults:sys.System.faults ~sched
      ~kind:sys.System.topology sys.System.bus
  in
  (* With a fleet present, central-port contention is modelled against the
     live scheduler clock for the duration of the compute phase. *)
  (match sys.System.fleet with
  | Some f -> Capchecker.Shim.connect_clock f (fun () -> Ccsim.Sched.now sched)
  | None -> ());
  let n = List.length tasks_l in
  let results = Array.make (max n 1) None in
  List.iteri
    (fun idx (g, (a : Driver.allocated)) ->
      Accel.Engine.run_event ~obs ~sched ~ic ~start ~mem:sys.System.mem
        ~bus:sys.System.bus ~directives:g.g_bench.Machsuite.Bench_def.directives
        ~addressing:(Driver.Backend.addressing backend)
        ~naive_tag_writes:(System.naive_tag_writes sys) g.g_adj (source_of g)
        (engine_task g.g_bench a.Driver.handle)
        ~on_done:(fun o -> results.(idx) <- Some o))
    tasks_l;
  Ccsim.Sched.run sched;
  (match sys.System.fleet with
  | Some f -> Capchecker.Shim.disconnect_clock f
  | None -> ());
  let outcomes =
    List.mapi
      (fun idx ((_, (a : Driver.allocated)) as task) ->
        match results.(idx) with
        | Some o -> (task, o)
        | None ->
            failwith
              (Printf.sprintf "Run: event core deadlock: task %d never retired"
                 a.Driver.handle.Driver.task_id))
      tasks_l
  in
  let makespan =
    List.fold_left
      (fun acc (_, o) -> max acc o.Accel.Engine.ev_finish)
      start outcomes
  in
  (outcomes, makespan, Bus.Topology.total_beats ic)

(* One task's CPU execution on fresh buffers: allocate, initialize, run the
   CPU model, verify, free.  Returns the model's (cycles, verified). *)
let cpu_execute sys (bench : Machsuite.Bench_def.t) =
  let kernel = bench.Machsuite.Bench_def.kernel in
  let bindings =
    List.map
      (fun (decl : Kernel.Ir.buf_decl) ->
        let bytes = Kernel.Ir.buf_decl_bytes decl in
        let align, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
        { Memops.Layout.decl;
          base = Tagmem.Alloc.malloc sys.System.heap ~align:(max align 16) padded })
      kernel.bufs
  in
  let layout = Memops.Layout.make bindings in
  init_layout sys.System.mem bench layout;
  let res =
    Cpu.Model.run ~obs:sys.System.obs sys.System.cpu_cfg sys.System.mem kernel
      layout ~params:bench.params ()
  in
  (match res.Cpu.Model.trap with
  | None -> ()
  | Some reason -> failwith ("CPU run trapped: " ^ reason));
  let correct = verify sys.System.mem bench layout in
  List.iter (fun b -> Tagmem.Alloc.free sys.System.heap b.Memops.Layout.base) bindings;
  (res.Cpu.Model.cycles, correct)

(* CPU-only execution: tasks run back-to-back on the one core. *)
let run_cpu_only sys ~fast isa (bench : Machsuite.Bench_def.t) ~tasks =
  let kernel = bench.Machsuite.Bench_def.kernel in
  let cfg = sys.System.cpu_cfg in
  let n_bufs = List.length kernel.bufs in
  let obs = sys.System.obs in
  let fast = fast && not (Obs.Trace.enabled obs) in
  let t0 = Obs.Trace.now obs in
  let bytes = buffer_bytes kernel in
  let alloc_cycles = tasks * n_bufs * Driver.malloc_cycles in
  let init_cycles = tasks * Cpu.Model.init_store_cycles cfg ~bytes in
  emit_phase obs ~at:t0 ~task:0 "alloc" alloc_cycles;
  emit_phase obs ~at:(t0 + alloc_cycles) ~task:0 "init" init_cycles;
  Obs.Trace.set_now obs (t0 + alloc_cycles + init_cycles);
  let cycles, correct =
    if fast then
      Fastpath.cpu_result ~isa (Fastpath.bench_key bench) (fun () ->
          cpu_execute sys bench)
    else cpu_execute sys bench
  in
  let per_task_compute = cycles + Cpu.Model.cap_setup_cycles cfg ~n_bufs in
  let phases =
    {
      alloc = alloc_cycles;
      init = init_cycles;
      compute = tasks * per_task_compute;
      teardown = tasks * n_bufs * Driver.free_cycles;
    }
  in
  emit_phase obs ~at:(t0 + alloc_cycles + init_cycles) ~task:0 "compute"
    phases.compute;
  Obs.Trace.set_now obs (t0 + alloc_cycles + init_cycles + phases.compute);
  emit_phase obs ~at:(Obs.Trace.now obs) ~task:0 "teardown" phases.teardown;
  Obs.Trace.set_now obs (t0 + wall_of phases);
  finish sys ~config_label:(Config.label sys.System.config) ~benchmark:kernel.name
    ~tasks ~phases ~correct ~denials:[] ~checks:0 ~entries_peak:0 ~bus_beats:0
    ~area_luts:(System.total_area_luts sys ~accel_luts_per_instance:0) ()

(* Fault-free heterogeneous execution over task groups (see {!group}).

   [Legacy_replay] feeds one DMA trace per group from its lead task and
   replays it once per task of the group through the serialized fabric:
   concurrent timing is modeled per instance while the functional work
   happens once.  Only the lead carries the group's denial and verdict; its
   checks and elided checks count once per task.  [Event_driven] runs every
   task on the shared event timeline (see {!run_event_compute}). *)
let run_groups sys ~fast ~elide ~engine ~benchmark ~area_luts groups =
  let driver = Option.get sys.System.driver in
  let backend = Option.get sys.System.backend in
  let addressing = Driver.Backend.addressing backend in
  let obs = sys.System.obs in
  (* Scripts and fast paths are gated off while a sink is attached: the
     derivations skip the interpreter whose side effects (guard events on the
     interpreter's clock, functional stores) the sink would have seen. *)
  let fast = fast && not (Obs.Trace.enabled obs) in
  let guard = System.guard sys in
  let t0 = Obs.Trace.now obs in
  let allocs =
    List.map
      (fun ((bench : Machsuite.Bench_def.t), design, count) ->
        ( bench, design,
          List.init count (fun _ ->
              match Driver.allocate driver bench.kernel with
              | Ok a -> a
              | Error msg ->
                  failwith
                    ("driver allocation failed for " ^ bench.name ^ ": " ^ msg)) ))
      groups
  in
  (* A fast run records a missing script up front from the group's lead and
     then derives every task of the group from it, on either engine. *)
  let groups =
    List.map
      (fun (bench, design, allocs) ->
        let eligible = elide_eligible backend elide bench in
        let elide_exec = elide = Elide_on && eligible in
        { g_bench = bench; g_design = design; g_allocs = allocs;
          g_eligible = eligible;
          g_adj = adjudication_for ~fast ~elide_exec ~backend ~guard bench;
          g_script =
            (if fast then record_script sys bench (List.hd allocs) else None) })
      allocs
  in
  (* Functional buffer initialization only feeds the interpreter and the
     verifier; a script replaces both (it carries the recording run's
     verdict), so the stores can be skipped wholesale. *)
  List.iter
    (fun g ->
      if g.g_script = None then
        List.iter
          (fun (a : Driver.allocated) ->
            init_layout sys.System.mem g.g_bench a.handle.Driver.layout)
          g.g_allocs)
    groups;
  let alloc_cycles, init_cycles =
    List.fold_left
      (fun (alloc, init) g ->
        let bytes = buffer_bytes g.g_bench.Machsuite.Bench_def.kernel in
        List.fold_left
          (fun (alloc, init) (a : Driver.allocated) ->
            ( alloc + a.cycles,
              init + Cpu.Model.init_store_cycles sys.System.cpu_cfg ~bytes ))
          (alloc, init) g.g_allocs)
      (0, 0) groups
  in
  let lead_task = (List.hd (List.hd groups).g_allocs).handle.Driver.task_id in
  emit_phase obs ~at:t0 ~task:lead_task "alloc" alloc_cycles;
  emit_phase obs ~at:(t0 + alloc_cycles) ~task:lead_task "init" init_cycles;
  Obs.Trace.set_now obs (t0 + alloc_cycles + init_cycles);
  (* Compute on the shared timeline starting at the compute phase, so bus
     events land at their true cycles even when the sink is shared across
     runs; the phase length is the makespan relative to that start. *)
  let replay_start = t0 + alloc_cycles + init_cycles in
  (* Per task (allocation, denial); then totals. *)
  let per_task, makespan, bus_beats, checks, elided_checks, correct =
    match engine with
    | Legacy_replay ->
        let fed =
          List.map
            (fun g ->
              let lead = List.hd g.g_allocs in
              let o =
                Accel.Engine.run ~obs ~mem:sys.System.mem ~bus:sys.System.bus
                  ~directives:g.g_bench.Machsuite.Bench_def.directives
                  ~addressing ~naive_tag_writes:(System.naive_tag_writes sys)
                  g.g_adj (source_of g)
                  (engine_task g.g_bench lead.Driver.handle)
              in
              differential_check elide ~eligible:g.g_eligible ~bench:g.g_bench
                o.Accel.Engine.denied;
              (g, o, verified sys g lead o.Accel.Engine.denied))
            groups
        in
        let replayed =
          Accel.Replay.run sys.System.fabric ~start:replay_start
            (List.concat_map
               (fun (g, (o : Accel.Engine.outcome), _) ->
                 let max_outstanding = g.g_design.Hls.Directives.d_max_outstanding in
                 List.map
                   (fun (a : Driver.allocated) ->
                     { Accel.Replay.instance = a.handle.Driver.task_id;
                       trace = o.trace; max_outstanding })
                   g.g_allocs)
               fed)
        in
        let per_group f =
          List.fold_left
            (fun acc (g, o, _) -> acc + (f o * List.length g.g_allocs))
            0 fed
        in
        ( List.concat_map
            (fun (g, (o : Accel.Engine.outcome), _) ->
              List.mapi
                (fun i a -> (a, if i = 0 then o.denied else None))
                g.g_allocs)
            fed,
          replayed.Accel.Replay.makespan,
          replayed.Accel.Replay.bus_beats,
          per_group (fun o -> o.Accel.Engine.checks),
          per_group (fun o -> o.Accel.Engine.elided),
          List.for_all (fun (_, _, correct) -> correct) fed )
    | Event_driven ->
        let outcomes, makespan, bus_beats =
          run_event_compute sys ~start:replay_start
            (List.concat_map
               (fun g -> List.map (fun a -> (g, a)) g.g_allocs)
               groups)
        in
        List.iter
          (fun ((g, _), o) ->
            differential_check elide ~eligible:g.g_eligible ~bench:g.g_bench
              o.Accel.Engine.ev_denied)
          outcomes;
        let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 outcomes in
        ( List.map (fun ((_, a), o) -> (a, o.Accel.Engine.ev_denied)) outcomes,
          makespan, bus_beats,
          sum (fun o -> o.Accel.Engine.ev_checks),
          sum (fun o -> o.Accel.Engine.ev_elided),
          List.for_all
            (fun ((g, a), o) -> verified sys g a o.Accel.Engine.ev_denied)
            outcomes )
  in
  let entries_peak = guard.Guard.Iface.entries_in_use () in
  let compute_cycles = makespan - replay_start in
  emit_phase obs ~at:replay_start ~task:lead_task "compute" compute_cycles;
  Obs.Trace.set_now obs (replay_start + compute_cycles);
  let teardown_start = Obs.Trace.now obs in
  let teardown_cycles, denial_lists =
    List.fold_left
      (fun (cycles, acc) ((a : Driver.allocated), denied) ->
        let report = Driver.deallocate driver a.handle ~denied in
        (cycles + report.Driver.cycles, report.Driver.denials :: acc))
      (0, []) per_task
  in
  let denials = List.concat (List.rev denial_lists) in
  emit_phase obs ~at:teardown_start ~task:lead_task "teardown" teardown_cycles;
  Obs.Trace.set_now obs (teardown_start + teardown_cycles);
  let phases =
    { alloc = alloc_cycles; init = init_cycles;
      compute = compute_cycles; teardown = teardown_cycles }
  in
  finish sys ~config_label:(Config.label sys.System.config) ~benchmark
    ~tasks:(List.length per_task) ~phases ~correct ~denials ~checks
    ~elided_checks ~entries_peak ~bus_beats ~area_luts ()

(* Fault-aware execution. *)

type accel_task = {
  at_bench : Machsuite.Bench_def.t;
  at_alloc : Driver.allocated;
  at_outcome : Accel.Engine.outcome;
  at_retried : bool;
}

type placed_task =
  | P_accel of accel_task
  | P_degraded of Machsuite.Bench_def.t * string

(* CPU fallback for one task of a degraded heterogeneous run: a full
   recompute on fresh buffers plus the driver's allocation, initialization,
   capability setup and free.  Returns (cycles, correct). *)
let cpu_fallback sys (bench : Machsuite.Bench_def.t) =
  let kernel = bench.Machsuite.Bench_def.kernel in
  let cfg = sys.System.cpu_cfg in
  let n_bufs = List.length kernel.bufs in
  let cycles, correct = cpu_execute sys bench in
  ( (n_bufs * Driver.malloc_cycles)
    + Cpu.Model.init_store_cycles cfg ~bytes:(buffer_bytes kernel)
    + cycles
    + Cpu.Model.cap_setup_cycles cfg ~n_bufs
    + (n_bufs * Driver.free_cycles),
    correct )

(* Heterogeneous execution under an active fault plan.  Tasks are placed and
   interpreted one at a time so each can independently retry (transient
   denials tear down and re-allocate with exponential backoff) or degrade to
   CPU execution; surviving accelerator streams still share the interconnect
   in one replay.  The invariant this path maintains: every task either
   verifies correct on the accelerator or is recomputed (and verified) on the
   CPU with an explicit fallback record — never a silently wrong result. *)
let run_hetero_faulted sys ~benchmark ~area_luts ~policy ~engine
    (benches : Machsuite.Bench_def.t list) =
  let driver = Option.get sys.System.driver in
  let backend = Option.get sys.System.backend in
  let inj = sys.System.faults in
  let obs = sys.System.obs in
  let guard = System.guard sys in
  let t0 = Obs.Trace.now obs in
  let alloc_cycles = ref 0 in
  let init_cycles = ref 0 in
  let teardown_cycles = ref 0 in
  let checks = ref 0 in
  let entries_peak = ref 0 in
  let denial_lists = ref [] in
  let attempt_task (bench : Machsuite.Bench_def.t) =
    let kernel = bench.Machsuite.Bench_def.kernel in
    let rec go attempt ~retried =
      match Driver.allocate_with_retry ~policy driver kernel with
      | Error msg -> P_degraded (bench, "allocation failed: " ^ msg)
      | Ok (a, alloc_retries) ->
          let retried = retried || alloc_retries > 0 in
          alloc_cycles := !alloc_cycles + a.Driver.cycles;
          init_layout sys.System.mem bench a.Driver.handle.Driver.layout;
          init_cycles :=
            !init_cycles
            + Cpu.Model.init_store_cycles sys.System.cpu_cfg
                ~bytes:(buffer_bytes kernel);
          let outcome =
            Accel.Engine.run ~obs ~mem:sys.System.mem ~bus:sys.System.bus
              ~directives:bench.directives
              ~addressing:(Driver.Backend.addressing backend)
              ~naive_tag_writes:(System.naive_tag_writes sys)
              (Accel.Engine.Adj_live guard) Accel.Engine.Interpret
              (engine_task bench a.Driver.handle)
          in
          checks := !checks + outcome.Accel.Engine.checks;
          entries_peak := max !entries_peak (guard.Guard.Iface.entries_in_use ());
          (match outcome.Accel.Engine.denied with
          | None -> P_accel { at_bench = bench; at_alloc = a; at_outcome = outcome; at_retried = retried }
          | Some d ->
              (* Denied mid-run: tear the task down (scrubbing its buffers),
                 then either retry from scratch after backoff or give up. *)
              let report = Driver.deallocate driver a.Driver.handle ~denied:(Some d) in
              teardown_cycles := !teardown_cycles + report.Driver.cycles;
              denial_lists := report.Driver.denials :: !denial_lists;
              if attempt < policy.Driver.max_attempts then begin
                let backoff = Driver.backoff_cycles policy ~attempt in
                Fault.Injector.note_retry inj ~backoff;
                Obs.Trace.emit obs
                  (Obs.Event.Task_retry
                     { task = a.Driver.handle.Driver.task_id; attempt; backoff });
                alloc_cycles := !alloc_cycles + backoff + Driver.retry_probe_cycles;
                go (attempt + 1) ~retried:true
              end
              else
                P_degraded
                  ( bench,
                    Printf.sprintf "denied after %d attempts: %s" attempt
                      d.Guard.Iface.detail ))
    in
    go 1 ~retried:false
  in
  let placed = List.map attempt_task benches in
  let accel =
    List.filter_map (function P_accel at -> Some at | P_degraded _ -> None) placed
  in
  let streams =
    List.map
      (fun at ->
        let design =
          Hls.Directives.synthesize
            ~kernel:at.at_bench.Machsuite.Bench_def.kernel
            at.at_bench.directives
        in
        { Accel.Replay.instance = at.at_alloc.Driver.handle.Driver.task_id;
          trace = at.at_outcome.Accel.Engine.trace;
          max_outstanding = design.Hls.Directives.d_max_outstanding })
      accel
  in
  let replay_start = Obs.Trace.now obs in
  (* Placement and retry above stay sequential in both modes — driver
     semantics and the phase accounting don't depend on bus interleaving —
     so only the contention replay switches cores.  Note the fault draw
     order differs between cores (grants interleave differently), so runs
     are deterministic per engine, not across engines. *)
  let replayed =
    match engine with
    | Legacy_replay ->
        Accel.Replay.run ~error_retry_limit:policy.Driver.max_attempts
          sys.System.fabric ~start:replay_start streams
    | Event_driven ->
        let sched = Ccsim.Sched.create () in
        let ic =
          Bus.Topology.create ~obs ~faults:inj ~sched
            ~kind:sys.System.topology sys.System.bus
        in
        Accel.Replay.run_event ~error_retry_limit:policy.Driver.max_attempts
          ~sched ~ic ~start:replay_start streams
  in
  let accel_compute = replayed.Accel.Replay.makespan - replay_start in
  let fallback_cycles = ref 0 in
  let recovered = ref 0 in
  let fallbacks = ref [] in
  let all_correct = ref true in
  let do_fallback ~task bench reason =
    Fault.Injector.note_fallback inj;
    Obs.Trace.emit obs (Obs.Event.Task_fallback { task; reason });
    let cycles, ok = cpu_fallback sys bench in
    fallback_cycles := !fallback_cycles + cycles;
    if not ok then all_correct := false;
    fallbacks := { task; reason } :: !fallbacks
  in
  List.iteri
    (fun idx p ->
      match p with
      | P_degraded (bench, reason) -> do_fallback ~task:idx bench reason
      | P_accel at ->
          let id = at.at_alloc.Driver.handle.Driver.task_id in
          if List.mem id replayed.Accel.Replay.failed then
            do_fallback ~task:idx at.at_bench
              "bus error responses exhausted the retry budget"
          else begin
            if at.at_retried then incr recovered;
            if
              not (verify sys.System.mem at.at_bench at.at_alloc.Driver.handle.Driver.layout)
            then all_correct := false
          end)
    placed;
  List.iter
    (fun at ->
      let report = Driver.deallocate driver at.at_alloc.Driver.handle ~denied:None in
      teardown_cycles := !teardown_cycles + report.Driver.cycles;
      denial_lists := report.Driver.denials :: !denial_lists)
    accel;
  let phases =
    { alloc = !alloc_cycles; init = !init_cycles;
      compute = accel_compute + !fallback_cycles; teardown = !teardown_cycles }
  in
  emit_phase obs ~at:t0 ~task:(-1) "alloc" phases.alloc;
  emit_phase obs ~at:(t0 + phases.alloc) ~task:(-1) "init" phases.init;
  emit_phase obs ~at:(t0 + phases.alloc + phases.init) ~task:(-1) "compute"
    phases.compute;
  emit_phase obs
    ~at:(t0 + phases.alloc + phases.init + phases.compute)
    ~task:(-1) "teardown" phases.teardown;
  Obs.Trace.set_now obs (t0 + wall_of phases);
  finish sys ~config_label:(Config.label sys.System.config) ~benchmark
    ~tasks:(List.length benches) ~phases ~correct:!all_correct
    ~denials:(List.concat (List.rev !denial_lists))
    ~checks:!checks ~entries_peak:!entries_peak
    ~bus_beats:replayed.Accel.Replay.bus_beats ~area_luts ~recovered:!recovered
    ~fallbacks:(List.rev !fallbacks) ()

let require_event_engine ~engine ~topology ~what =
  match (engine, topology) with
  | Legacy_replay, kind when kind <> Bus.Topology.Shared ->
      invalid_arg
        (Printf.sprintf
           "%s: topology %s needs the event engine (the legacy replay fabric \
            serializes globally and cannot model concurrent grants)"
           what
           (Bus.Topology.kind_to_string kind))
  | _ -> ()

(* Mode dispatch shared by [run] and [run_mixed]: [execute ~fast] performs
   one complete run against a fresh system.  [Fast] wraps it in the
   whole-run memo when eligible; [Differential] computes both legs (the fast
   leg still warming and exercising every cache) and compares the complete
   result records — any divergence is a bug in the fast-path layers, never a
   tuning matter, so it [failwith]s. *)
let dispatch ~memo_eligible ~key ~what execute =
  match Fastpath.current_mode () with
  | Fastpath.Interpretive -> execute ~fast:false
  | Fastpath.Fast ->
      if memo_eligible then memo_run key (fun () -> execute ~fast:true)
      else execute ~fast:true
  | Fastpath.Differential ->
      if memo_eligible then begin
        let fast_r = memo_run key (fun () -> execute ~fast:true) in
        let slow_r = execute ~fast:false in
        if fast_r <> slow_r then
          failwith
            (Printf.sprintf
               "%s: fast-path divergence on %s under %s: derived and \
                interpreted results differ"
               what fast_r.benchmark fast_r.config_label);
        slow_r
      end
      else execute ~fast:false

let run ?(tasks = 8) ?instances ?(cc_entries = 256) ?(bus = Bus.Params.default)
    ?obs ?(faults = Fault.Plan.none) ?(retry = Driver.default_retry_policy)
    ?(elide = Elide_off) ?(engine = Legacy_replay)
    ?(topology = Bus.Topology.Shared) ?(checkers = Capchecker.Shim.Central)
    config bench =
  if tasks <= 0 then invalid_arg "Run.run: needs at least one task";
  require_event_engine ~engine ~topology ~what:"Run.run";
  let instances' = match instances with Some n -> max n tasks | None -> max 8 tasks in
  let execute ~fast =
    let sys =
      System.create ~instances:instances' ~cc_entries ~bus ?obs ~faults
        ~topology ~checkers config
    in
    match config with
    | Config.Cpu_only isa -> run_cpu_only sys ~fast isa bench ~tasks
    | Config.Hetero _ ->
        let benchmark = bench.Machsuite.Bench_def.kernel.Kernel.Ir.name in
        let design =
          Hls.Directives.synthesize ~kernel:bench.Machsuite.Bench_def.kernel
            bench.Machsuite.Bench_def.directives
        in
        let area_luts =
          System.total_area_luts sys
            ~accel_luts_per_instance:design.Hls.Directives.d_area_luts
        in
        if Fault.Plan.is_none faults then
          run_groups sys ~fast ~elide ~engine ~benchmark ~area_luts
            [ (bench, design, tasks) ]
        else
          (* Faulted runs never consult a cache or skip an adjudication: every
             retry, degrade and fault draw happens against the live system. *)
          run_hetero_faulted sys ~benchmark ~area_luts ~policy:retry ~engine
            (List.init tasks (fun _ -> bench))
  in
  let memo_eligible = obs = None && Fault.Plan.is_none faults in
  let key =
    { mk_mixed = false; mk_config = config;
      mk_benches = [ Fastpath.bench_key bench ];
      mk_tasks = tasks; mk_instances = instances; mk_cc_entries = cc_entries;
      mk_bus = bus; mk_elide = elide; mk_engine = engine;
      mk_topology = topology; mk_checkers = checkers }
  in
  dispatch ~memo_eligible ~key ~what:"Run.run" execute

(* Per-kernel cost profile for the long-horizon service loop (lib/serve).
   One single-task, fault-free run measures the four phases a request of this
   kernel costs on a dedicated instance, plus what the same work costs on the
   CPU when admission spills it.  Serving 10^4+ requests re-executes none of
   the kernel's functional work: the loop replays these measured cycle costs
   on its own timeline while performing real driver/table traffic. *)
type service_profile = {
  sv_bench : string;
  sv_alloc : int;
  sv_init : int;
  sv_compute : int;
  sv_teardown : int;
  sv_checks : int;
  sv_cpu_wall : int;
}

let service_profile ?(engine = Event_driven) ?(topology = Bus.Topology.Shared)
    ?(checkers = Capchecker.Shim.Central) config bench =
  (match config with
  | Config.Hetero _ -> ()
  | Config.Cpu_only _ ->
      invalid_arg "Run.service_profile: needs a heterogeneous config");
  let r = run ~tasks:1 ~engine ~topology ~checkers config bench in
  if not r.correct then
    failwith
      (Printf.sprintf
         "Run.service_profile: %s failed verification under %s — a service \
          profile must come from a correct run"
         bench.Machsuite.Bench_def.name r.config_label);
  let cpu = run ~tasks:1 Config.cpu bench in
  {
    sv_bench = bench.Machsuite.Bench_def.name;
    sv_alloc = r.phases.alloc;
    sv_init = r.phases.init;
    sv_compute = r.phases.compute;
    sv_teardown = r.phases.teardown;
    sv_checks = r.checks;
    sv_cpu_wall = cpu.wall;
  }

let run_mixed ?instances ?obs ?(faults = Fault.Plan.none)
    ?(retry = Driver.default_retry_policy) ?(elide = Elide_off)
    ?(engine = Legacy_replay) ?(topology = Bus.Topology.Shared)
    ?(checkers = Capchecker.Shim.Central) config benches =
  let tasks = List.length benches in
  if tasks <= 0 then invalid_arg "Run.run_mixed: needs at least one task";
  require_event_engine ~engine ~topology ~what:"Run.run_mixed";
  let instances' = match instances with Some n -> max n tasks | None -> tasks in
  (match config with
  | Config.Hetero _ -> ()
  | Config.Cpu_only _ -> invalid_arg "Run.run_mixed: needs a heterogeneous config");
  let designs =
    List.map
      (fun (b : Machsuite.Bench_def.t) ->
        Hls.Directives.synthesize ~kernel:b.Machsuite.Bench_def.kernel
          b.directives)
      benches
  in
  let execute ~fast =
    let sys =
      System.create ~instances:instances' ?obs ~faults ~topology ~checkers config
    in
    (* Exact datapath area: per-instance LUTs summed, never a truncating
       per-task mean — mixed benches with unequal area would under-report the
       silicon the power model is charged for. *)
    let area_luts =
      System.total_area_luts_exact sys
        ~accel_luts_total:
          (List.fold_left
             (fun acc (d : Hls.Directives.design) -> acc + d.d_area_luts)
             0 designs)
    in
    if Fault.Plan.is_none faults then
      run_groups sys ~fast ~elide ~engine ~benchmark:"mixed" ~area_luts
        (List.map2 (fun b d -> (b, d, 1)) benches designs)
    else
      run_hetero_faulted sys ~benchmark:"mixed" ~area_luts ~policy:retry ~engine
        benches
  in
  let memo_eligible = obs = None && Fault.Plan.is_none faults in
  let key =
    { mk_mixed = true; mk_config = config;
      mk_benches = List.map Fastpath.bench_key benches;
      mk_tasks = tasks; mk_instances = instances; mk_cc_entries = 256;
      mk_bus = Bus.Params.default; mk_elide = elide; mk_engine = engine;
      mk_topology = topology; mk_checkers = checkers }
  in
  dispatch ~memo_eligible ~key ~what:"Run.run_mixed" execute

(* ------------------------------------------------------------------ *)
(* Batch entry points: many independent full-system runs on a domain    *)
(* pool.  A spec captures everything a run needs; the job itself builds  *)
(* every piece of mutable state (the System, the sink, the fault-plan    *)
(* RNG), so jobs share nothing mutable and results are                   *)
(* index-deterministic regardless of scheduling.                         *)
(* ------------------------------------------------------------------ *)

type spec = {
  sp_config : Config.t;
  sp_bench : Machsuite.Bench_def.t;
  sp_tasks : int;
  sp_instances : int option;
  sp_cc_entries : int;
  sp_bus : Bus.Params.t;
  sp_faults : Fault.Plan.t;
  sp_retry : Driver.retry_policy;
  sp_elide : elide_mode;
  sp_engine : engine;
  sp_topology : Bus.Topology.kind;
  sp_checkers : Capchecker.Shim.checking;
}

let spec ?(tasks = 8) ?instances ?(cc_entries = 256) ?(bus = Bus.Params.default)
    ?(faults = Fault.Plan.none) ?(retry = Driver.default_retry_policy)
    ?(elide = Elide_off) ?(engine = Legacy_replay)
    ?(topology = Bus.Topology.Shared) ?(checkers = Capchecker.Shim.Central)
    config bench =
  { sp_config = config; sp_bench = bench; sp_tasks = tasks;
    sp_instances = instances; sp_cc_entries = cc_entries; sp_bus = bus;
    sp_faults = faults; sp_retry = retry; sp_elide = elide; sp_engine = engine;
    sp_topology = topology; sp_checkers = checkers }

let run_spec ?obs sp =
  run ~tasks:sp.sp_tasks ?instances:sp.sp_instances ~cc_entries:sp.sp_cc_entries
    ~bus:sp.sp_bus ?obs ~faults:sp.sp_faults ~retry:sp.sp_retry
    ~elide:sp.sp_elide ~engine:sp.sp_engine ~topology:sp.sp_topology
    ~checkers:sp.sp_checkers sp.sp_config sp.sp_bench

let run_many ?(jobs = 1) ?obs_of specs =
  let arr = Array.of_list specs in
  Array.to_list
    (Ccsim.Pool.run ~jobs (Array.length arr) (fun idx ->
         let obs = Option.map (fun f -> f idx) obs_of in
         run_spec ?obs arr.(idx)))

let sweep_many ?(jobs = 1) ?(engine = Legacy_replay)
    ?(topology = Bus.Topology.Shared) ?(checkers = Capchecker.Shim.Central)
    ~tasks_list columns bench =
  let specs =
    List.concat_map
      (fun tasks ->
        List.map
          (fun (config, instances) ->
            spec ~tasks ?instances ~engine ~topology ~checkers config bench)
          columns)
      tasks_list
  in
  let results = run_many ~jobs specs in
  let ncols = List.length columns in
  let rec regroup tasks_list results =
    match tasks_list with
    | [] -> []
    | tasks :: rest ->
        let row = List.filteri (fun idx _ -> idx < ncols) results in
        let remainder = List.filteri (fun idx _ -> idx >= ncols) results in
        (tasks, row) :: regroup rest remainder
  in
  regroup tasks_list results
