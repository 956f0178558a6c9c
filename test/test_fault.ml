(* lib/fault: deterministic fault injection with driver retry/backoff.

   The two load-bearing properties:

   1. No silent corruption: under ANY fault plan, a run either completes
      [correct = true] (degraded tasks are recomputed and re-verified on the
      CPU, with an explicit fallback record) — never a silently wrong number.
   2. Bit-identity of the no-fault path: a run under [Fault.Plan.none] is
      exactly a run without fault plumbing, and the shared inert injector is
      never mutated.

   Plus full determinism: the same (plan, workload) always produces the same
   faults, the same result record and the same exported trace. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let find = Machsuite.Registry.find

(* A plan that only fires one fault class, with certainty. *)
let only ?(seed = 1) f = f { Fault.Plan.none with Fault.Plan.seed }

(* ---- Plan / injector basics ---- *)

let test_plan_none_inert () =
  checkb "none is none" true (Fault.Plan.is_none Fault.Plan.none);
  checkb "default is active" false (Fault.Plan.is_none (Fault.Plan.default ~seed:1));
  let inj = Fault.Injector.create Fault.Plan.none in
  checkb "inert injector inactive" false (Fault.Injector.active inj);
  for _ = 1 to 50 do
    checki "no stall" 0 (Fault.Injector.bus_stall inj);
    checkb "no bus error" false (Fault.Injector.bus_error inj);
    checkb "no guard denial" false (Fault.Injector.guard_denial inj);
    checkb "no table full" false (Fault.Injector.table_full inj);
    checkb "no cache drop" false (Fault.Injector.cache_drop inj);
    checkb "no alloc fail" false (Fault.Injector.alloc_fail inj)
  done;
  checkb "counts stay zero" true
    (Fault.Injector.counts inj = Fault.Injector.zero_counts)

let test_none_singleton_never_mutated () =
  (* The shared default injector must survive recovery bookkeeping calls
     from any driver without accumulating state. *)
  Fault.Injector.note_retry Fault.Injector.none ~backoff:448;
  Fault.Injector.note_fallback Fault.Injector.none;
  checkb "none singleton untouched" true
    (Fault.Injector.counts Fault.Injector.none = Fault.Injector.zero_counts)

let probe_sequence inj n =
  List.init n (fun _ ->
      ( Fault.Injector.bus_stall inj,
        Fault.Injector.bus_error inj,
        Fault.Injector.guard_denial inj,
        Fault.Injector.table_full inj,
        Fault.Injector.cache_drop inj,
        Fault.Injector.alloc_fail inj ))

let test_injector_deterministic () =
  let plan = Fault.Plan.default ~seed:7 in
  let a = Fault.Injector.create plan and b = Fault.Injector.create plan in
  checkb "same plan, same probe stream" true
    (probe_sequence a 300 = probe_sequence b 300);
  checkb "counts agree too" true
    (Fault.Injector.counts a = Fault.Injector.counts b);
  let c = Fault.Injector.create (Fault.Plan.default ~seed:8) in
  checkb "different seed differs" true
    (probe_sequence (Fault.Injector.create plan) 300 <> probe_sequence c 300)

let test_fault_classes_independent () =
  (* Each class draws from its own RNG split: disabling the bus-error class
     must not perturb the guard-denial sequence. *)
  let base = Fault.Plan.default ~seed:5 in
  let a = Fault.Injector.create base in
  let b = Fault.Injector.create { base with Fault.Plan.bus_error_prob = 0.0 } in
  let draw inj =
    List.init 200 (fun _ ->
        ignore (Fault.Injector.bus_error inj);
        Fault.Injector.guard_denial inj)
  in
  checkb "guard stream unperturbed" true (draw a = draw b)

(* ---- Differential: Plan.none is bit-identical to no plan at all ---- *)

let test_plan_none_differential () =
  List.iter
    (fun config ->
      List.iter
        (fun name ->
          let bench = find name in
          let plain = Soc.Run.run ~tasks:4 config bench in
          let with_none =
            Soc.Run.run ~tasks:4 ~faults:Fault.Plan.none config bench
          in
          if plain <> with_none then
            Alcotest.failf "%s on %s: Plan.none changed the result" name
              plain.Soc.Run.config_label;
          checkb "zero counts" true
            (plain.Soc.Run.faults = Fault.Injector.zero_counts))
        [ "aes"; "gemm_blocked" ])
    [ Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel;
      Soc.Config.ccpu_caccel_cached ]

let test_plan_none_differential_mixed () =
  let benches = [ find "aes"; find "fft_transpose" ] in
  let plain = Soc.Run.run_mixed Soc.Config.ccpu_caccel benches in
  let with_none =
    Soc.Run.run_mixed ~faults:Fault.Plan.none Soc.Config.ccpu_caccel benches
  in
  checkb "mixed Plan.none identical" true (plain = with_none)

(* ---- The core invariant: no silent corruption, ever ---- *)

let check_invariant name (r : Soc.Run.result) =
  if not r.Soc.Run.correct then
    Alcotest.failf "%s: incorrect result under faults (fallbacks %d)" name
      (List.length r.Soc.Run.fallbacks);
  checki (name ^ " fallback counter consistent")
    (List.length r.Soc.Run.fallbacks) r.Soc.Run.faults.Fault.Injector.fallbacks;
  checki (name ^ " wall = sum of phases") r.Soc.Run.wall
    (Soc.Run.wall_of r.Soc.Run.phases)

let test_no_silent_corruption_property () =
  List.iter
    (fun name ->
      let bench = find name in
      List.iter
        (fun seed ->
          let faults = Fault.Plan.default ~seed in
          let r = Soc.Run.run ~tasks:4 ~faults Soc.Config.ccpu_caccel bench in
          check_invariant (Printf.sprintf "%s/seed%d" name seed) r)
        [ 1; 2; 3; 4; 5 ])
    [ "aes"; "fft_transpose"; "sort_radix" ];
  (* The cached-checker config additionally exercises the cache-drop layer. *)
  let r =
    Soc.Run.run ~tasks:4 ~faults:(Fault.Plan.default ~seed:2)
      Soc.Config.ccpu_caccel_cached (find "aes")
  in
  check_invariant "aes/cached/seed2" r

let test_faulted_run_deterministic () =
  let faults = Fault.Plan.default ~seed:3 in
  let capture () =
    let obs = Obs.Trace.create () in
    let r =
      Soc.Run.run ~tasks:4 ~obs ~faults Soc.Config.ccpu_caccel
        (find "fft_transpose")
    in
    (r, Obs.Export.to_chrome_string obs)
  in
  let r1, t1 = capture () and r2, t2 = capture () in
  checkb "identical result" true (r1 = r2);
  Alcotest.(check string) "identical trace" t1 t2;
  (* Pins the export of the string-bearing events (fault, fallback, phase)
     too, so a change to how a sink stores events cannot move it. *)
  Alcotest.(check string) "pinned trace digest" "81eeeb67e8fcd88c33fef98ccd9b0975"
    (Digest.to_hex (Digest.string t1))

let test_faulted_tracing_changes_nothing () =
  (* The observability contract holds under faults too: a recording sink
     must not change any simulated number. *)
  let faults = Fault.Plan.default ~seed:4 in
  let plain =
    Soc.Run.run ~tasks:4 ~faults Soc.Config.ccpu_caccel (find "fft_transpose")
  in
  let obs = Obs.Trace.create () in
  let traced =
    Soc.Run.run ~tasks:4 ~obs ~faults Soc.Config.ccpu_caccel
      (find "fft_transpose")
  in
  checkb "result identical under tracing" true (plain = traced)

(* ---- Layer-by-layer: certainty plans isolate each injection site ---- *)

let test_alloc_fail_exhaustion () =
  let faults = only (fun p -> { p with Fault.Plan.alloc_fail_prob = 1.0 }) in
  let r = Soc.Run.run ~tasks:2 ~faults Soc.Config.ccpu_caccel (find "aes") in
  check_invariant "alloc exhaustion" r;
  checki "every task degrades" 2 (List.length r.Soc.Run.fallbacks);
  checki "no task recovers" 0 r.Soc.Run.recovered;
  let c = r.Soc.Run.faults in
  checki "4 attempts per task" 8 c.Fault.Injector.alloc_fails;
  checki "3 retries per task" 6 c.Fault.Injector.retries;
  checki "full backoff schedule per task" (2 * 448)
    c.Fault.Injector.backoff_cycles;
  List.iteri
    (fun i (f : Soc.Run.fallback) ->
      checki "submission order" i f.Soc.Run.task;
      checkb "reason mentions allocation" true
        (String.length f.Soc.Run.reason > 0))
    r.Soc.Run.fallbacks

let test_guard_denial_exhaustion () =
  let faults = only (fun p -> { p with Fault.Plan.guard_denial_prob = 1.0 }) in
  let r = Soc.Run.run ~tasks:2 ~faults Soc.Config.ccpu_caccel (find "aes") in
  check_invariant "guard exhaustion" r;
  checki "every task degrades" 2 (List.length r.Soc.Run.fallbacks);
  checkb "denials were injected" true
    (r.Soc.Run.faults.Fault.Injector.guard_denials > 0)

let test_table_full_exhaustion () =
  let faults = only (fun p -> { p with Fault.Plan.table_full_prob = 1.0 }) in
  let r = Soc.Run.run ~tasks:2 ~faults Soc.Config.ccpu_caccel (find "aes") in
  check_invariant "table-full exhaustion" r;
  checki "every task degrades" 2 (List.length r.Soc.Run.fallbacks);
  checkb "installs were forced full" true
    (r.Soc.Run.faults.Fault.Injector.table_fulls > 0)

let test_bus_error_exhaustion () =
  let faults = only (fun p -> { p with Fault.Plan.bus_error_prob = 1.0 }) in
  let r = Soc.Run.run ~tasks:2 ~faults Soc.Config.ccpu_caccel (find "aes") in
  check_invariant "bus-error exhaustion" r;
  checki "every task degrades" 2 (List.length r.Soc.Run.fallbacks);
  checkb "errors were injected" true
    (r.Soc.Run.faults.Fault.Injector.bus_errors > 0)

let test_bus_stalls_only_cost_time () =
  (* A memory-bound kernel, so stalled completions cannot hide behind
     compute overlap. *)
  let bench = find "md_knn" in
  let faults =
    only (fun p ->
        { p with Fault.Plan.bus_stall_prob = 1.0; Fault.Plan.bus_stall_max = 16 })
  in
  let clean = Soc.Run.run ~tasks:2 Soc.Config.ccpu_caccel bench in
  let r = Soc.Run.run ~tasks:2 ~faults Soc.Config.ccpu_caccel bench in
  check_invariant "stalls" r;
  checkb "no fallback needed" true (r.Soc.Run.fallbacks = []);
  checki "no retries needed" 0 r.Soc.Run.faults.Fault.Injector.retries;
  checkb "stalls recorded" true (r.Soc.Run.faults.Fault.Injector.bus_stalls > 0);
  checkb "stalls cost wall time" true (r.Soc.Run.wall > clean.Soc.Run.wall)

let test_cache_drops_only_cost_time () =
  let faults = only (fun p -> { p with Fault.Plan.cache_drop_prob = 1.0 }) in
  let clean = Soc.Run.run ~tasks:2 Soc.Config.ccpu_caccel_cached (find "aes") in
  let r =
    Soc.Run.run ~tasks:2 ~faults Soc.Config.ccpu_caccel_cached (find "aes")
  in
  check_invariant "cache drops" r;
  checkb "no fallback needed" true (r.Soc.Run.fallbacks = []);
  checkb "drops recorded" true (r.Soc.Run.faults.Fault.Injector.cache_drops > 0);
  checkb "drops cost wall time" true (r.Soc.Run.wall >= clean.Soc.Run.wall)

(* ---- Driver retry with exponential backoff (unit level) ---- *)

let test_driver_retry_exhausts () =
  let faults = only (fun p -> { p with Fault.Plan.alloc_fail_prob = 1.0 }) in
  let sys = Soc.System.create ~faults Soc.Config.ccpu_caccel in
  let d = Option.get sys.Soc.System.driver in
  (match Driver.allocate_with_retry d (find "aes").Machsuite.Bench_def.kernel with
  | Ok _ -> Alcotest.fail "allocation succeeded under certain failure"
  | Error _ -> ());
  let c = Fault.Injector.counts sys.Soc.System.faults in
  checki "one probe per attempt" 4 c.Fault.Injector.alloc_fails;
  checki "retries = attempts - 1" 3 c.Fault.Injector.retries;
  checki "backoff 64+128+256" 448 c.Fault.Injector.backoff_cycles

let test_driver_retry_clean_path () =
  let sys = Soc.System.create Soc.Config.ccpu_caccel in
  let d = Option.get sys.Soc.System.driver in
  (match Driver.allocate_with_retry d (find "aes").Machsuite.Bench_def.kernel with
  | Ok (_, retries) -> checki "no retries without faults" 0 retries
  | Error e -> Alcotest.failf "clean allocation failed: %s" e);
  checkb "no counters move" true
    (Fault.Injector.counts sys.Soc.System.faults = Fault.Injector.zero_counts)

let test_backoff_schedule () =
  let p = Driver.default_retry_policy in
  checki "first backoff" 64 (Driver.backoff_cycles p ~attempt:1);
  checki "second doubles" 128 (Driver.backoff_cycles p ~attempt:2);
  checki "third doubles again" 256 (Driver.backoff_cycles p ~attempt:3)

let test_custom_retry_policy () =
  (* A single-attempt policy degrades immediately — no retries charged. *)
  let faults = only (fun p -> { p with Fault.Plan.alloc_fail_prob = 1.0 }) in
  let retry =
    { Driver.max_attempts = 1; backoff_base = 64; backoff_factor = 2 }
  in
  let r =
    Soc.Run.run ~tasks:2 ~faults ~retry Soc.Config.ccpu_caccel (find "aes")
  in
  check_invariant "single-attempt policy" r;
  checki "immediate degradation" 2 (List.length r.Soc.Run.fallbacks);
  checki "no retries" 0 r.Soc.Run.faults.Fault.Injector.retries;
  checki "no backoff" 0 r.Soc.Run.faults.Fault.Injector.backoff_cycles

(* ---- Events: the fault story is visible in the trace ---- *)

let test_fault_events_traced () =
  let faults = only (fun p -> { p with Fault.Plan.alloc_fail_prob = 1.0 }) in
  let obs = Obs.Trace.create () in
  let r =
    Soc.Run.run ~tasks:2 ~obs ~faults Soc.Config.ccpu_caccel (find "aes")
  in
  check_invariant "traced faulted run" r;
  let injected = ref 0 and retries = ref 0 and fallbacks = ref 0 in
  Obs.Trace.iter
    (fun e ->
      match e.Obs.Event.data with
      | Obs.Event.Fault_injected _ -> incr injected
      | Obs.Event.Task_retry _ -> incr retries
      | Obs.Event.Task_fallback _ -> incr fallbacks
      | _ -> ())
    obs;
  checki "every injection traced" r.Soc.Run.faults.Fault.Injector.alloc_fails
    !injected;
  checki "every retry traced" r.Soc.Run.faults.Fault.Injector.retries !retries;
  checki "every fallback traced" (List.length r.Soc.Run.fallbacks) !fallbacks

(* ---- Mixed systems under faults ---- *)

let test_mixed_faulted_invariant () =
  let benches = [ find "aes"; find "fft_transpose"; find "sort_radix" ] in
  List.iter
    (fun seed ->
      let faults = Fault.Plan.default ~seed in
      let r = Soc.Run.run_mixed ~faults Soc.Config.ccpu_caccel benches in
      checki "one task per bench" 3 r.Soc.Run.tasks;
      check_invariant (Printf.sprintf "mixed/seed%d" seed) r)
    [ 1; 2; 3 ]

let suite =
  [
    ("Plan.none is inert", `Quick, test_plan_none_inert);
    ("none singleton never mutated", `Quick, test_none_singleton_never_mutated);
    ("injector deterministic", `Quick, test_injector_deterministic);
    ("fault classes independent", `Quick, test_fault_classes_independent);
    ("Plan.none differential (bit-identical)", `Slow, test_plan_none_differential);
    ("Plan.none differential (mixed)", `Slow, test_plan_none_differential_mixed);
    ("no silent corruption (3 benches x 5 seeds)", `Slow,
     test_no_silent_corruption_property);
    ("faulted run deterministic (result + trace)", `Slow,
     test_faulted_run_deterministic);
    ("tracing changes nothing under faults", `Slow,
     test_faulted_tracing_changes_nothing);
    ("alloc-fail exhaustion degrades all", `Quick, test_alloc_fail_exhaustion);
    ("guard-denial exhaustion degrades all", `Quick, test_guard_denial_exhaustion);
    ("table-full exhaustion degrades all", `Quick, test_table_full_exhaustion);
    ("bus-error exhaustion degrades all", `Quick, test_bus_error_exhaustion);
    ("bus stalls only cost time", `Quick, test_bus_stalls_only_cost_time);
    ("cache drops only cost time", `Quick, test_cache_drops_only_cost_time);
    ("driver retry exhausts", `Quick, test_driver_retry_exhausts);
    ("driver retry clean path", `Quick, test_driver_retry_clean_path);
    ("backoff schedule", `Quick, test_backoff_schedule);
    ("single-attempt policy", `Quick, test_custom_retry_policy);
    ("fault events traced", `Quick, test_fault_events_traced);
    ("mixed systems under faults", `Slow, test_mixed_faulted_invariant);
  ]
