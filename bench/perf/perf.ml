(* perf.exe: end-to-end and per-layer host-time benchmark of the simulator.

     perf.exe run   [--workload W]... [--seed S] [--reps N | --seconds T]
                    [--trace 0|1] [--smoke] [--out FILE [--append]]
                    [--span-dir DIR]
     perf.exe trace [same options]                       (= run --trace 1)
     perf.exe compare PARENT.json CHANGE.json [--bench BENCHMARK.json]

   Every repetition runs in a fresh child process ([perf.exe child ...]):
   the simulator's memos are process-global, so a second repetition in the
   same process would time cache lookups.  Repetitions are interleaved
   round-robin across workloads so machine drift hits them alike, and one
   child runs at a time.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the method of Python's
   [statistics.quantiles(xs, n=4)] ("exclusive"), so a spread computed here
   reads the same as one computed from the printed samples. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

let iqr xs =
  let q1, q3 = quartiles xs in
  q3 -. q1

(* ------------------------------------------------------------------ *)
(* Metric definitions                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-layer metrics, from the traced run.  A layer idle on a workload
   reports 0 there. *)
let layer_metrics =
  [
    ("soc.run_s", "s"); ("soc.call_p50_ms", "ms"); ("soc.call_p90_ms", "ms");
    ("soc.sim_mcycles_per_s", "Mcycles/s"); ("soc.host_ns_per_check", "ns");
    ("soc.sim_cycles", "cycles"); ("soc.checks", "count");
    ("soc.elided_checks", "count"); ("soc.bus_beats", "count");
    ("soc.accesses_fast_pathed", "count"); ("soc.fast_path_ratio", "ratio");
    ("soc.runs_memoized", "count"); ("soc.proven_verdicts", "count");
    ("soc.scripts", "count"); ("soc.cpu_results", "count");
    ("soc.fastpath_saved_s", "s"); ("soc.fastpath_rss_mb", "MB");
    ("accel.segments_replayed", "count"); ("accel.traces_memoized", "count");
    ("accel.legacy_saved_s", "s"); ("accel.legacy_rss_mb", "MB");
    ("kernel.interp_s", "s"); ("hls.synth_s", "s");
    ("analysis.analyze_s", "s"); ("cpu.model_s", "s");
    ("hls.cache_hits", "count"); ("hls.cache_misses", "count");
    ("bus.periods_leaped", "count"); ("bus.events_coalesced", "count");
    ("bus.shared_central_s", "s"); ("bus.xbar4_central_s", "s");
    ("bus.xbar4_shim_s", "s"); ("bus.hier4_shim_s", "s");
    ("sim.eventff_saved_s", "s"); ("sim.eventff_rss_mb", "MB");
    ("capchecker.installs", "count"); ("capchecker.evictions", "count");
    ("capchecker.conflicts", "count");
    ("capchecker.shim_invalidations", "count");
    ("serve.loop_s", "s"); ("serve.host_us_per_request", "us");
    ("serve.admit_ratio", "ratio"); ("serve.root_evictions", "count");
    ("serve.thrash", "count"); ("serve.p99_cycles", "cycles");
    ("verify.run_s", "s"); ("verify.host_us_per_op", "us");
    ("verify.schedules", "count"); ("verify.prune_ratio", "ratio");
    ("fault.injected", "count"); ("fault.retries", "count");
    ("fault.fallbacks", "count"); ("obs.events", "count");
    ("obs.dropped", "count"); ("obs.metrics_s", "s");
    ("runtime.minor_mwords", "Mwords"); ("runtime.promoted_mwords", "Mwords");
    ("runtime.major_collections", "count"); ("runtime.top_heap_mb", "MB");
    ("trace_overhead_pct", "%");
  ]

(* ------------------------------------------------------------------ *)
(* Child: one repetition of one workload on one leg                     *)
(* ------------------------------------------------------------------ *)

let vmhwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
              float_of_int kb /. 1024.0))
        (String.split_on_char '\n' status)
      |> Option.value ~default:0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Layer counts every workload can report: spans around [Soc.Run], the
   library's memo counters and the runtime's allocation. *)
let generic_counts (o : Workloads.outcome) (gc0 : Gc.stat) (gc1 : Gc.stat) =
  let get k = Option.value ~default:0.0 (List.assoc_opt k o.counts) in
  let run_s = Span.total "soc.run" in
  let calls_ms = List.map (fun d -> d *. 1000.0) (Span.durations "soc.run") in
  let pct p = if calls_ms = [] then 0.0 else Ccsim.Stats.percentile p calls_ms in
  let counter c = float_of_int (Obs.Counters.get c) in
  let memo k =
    float_of_int (Option.value ~default:0 (List.assoc_opt k (Soc.Fastpath.stats ())))
  in
  let hits, misses = Hls.Directives.cache_stats () in
  let mwords w = w /. 1e6 in
  [
    ("soc.run_s", run_s);
    ("soc.call_p50_ms", pct 0.5);
    ("soc.call_p90_ms", pct 0.9);
    ("soc.sim_mcycles_per_s", ratio (get "soc.sim_cycles") run_s /. 1e6);
    ("soc.host_ns_per_check", ratio run_s (get "soc.checks") *. 1e9);
    ("soc.accesses_fast_pathed", counter Obs.Counters.accesses_fast_pathed);
    ( "soc.fast_path_ratio",
      ratio (counter Obs.Counters.accesses_fast_pathed) (get "soc.checks") );
    ("soc.runs_memoized", counter Obs.Counters.runs_memoized);
    ("soc.proven_verdicts", memo "proven_verdicts");
    ("soc.scripts", memo "scripts");
    ("soc.cpu_results", memo "cpu_results");
    ("accel.segments_replayed", counter Obs.Counters.segments_replayed);
    ("accel.traces_memoized", counter Obs.Counters.traces_memoized);
    ("hls.cache_hits", float_of_int hits);
    ("hls.cache_misses", float_of_int misses);
    ("bus.periods_leaped", counter Obs.Counters.periods_leaped);
    ("bus.events_coalesced", counter Obs.Counters.events_coalesced);
    ("runtime.minor_mwords", mwords (gc1.minor_words -. gc0.minor_words));
    ( "runtime.promoted_mwords",
      mwords (gc1.promoted_words -. gc0.promoted_words) );
    ( "runtime.major_collections",
      float_of_int (gc1.major_collections - gc0.major_collections) );
    ( "runtime.top_heap_mb",
      float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
  ]

(* First-touch unit costs of the layers [paper] leans on: each public entry
   point called once per distinct kernel, after the timed phase. *)
let unit_costs size =
  let benches = List.map Machsuite.Registry.find (Workloads.kernels size) in
  let probe name (setup : Machsuite.Bench_def.t -> unit -> unit) =
    List.iter
      (fun (b : Machsuite.Bench_def.t) ->
        let call = setup b in
        Span.wrap ~arg:b.name name call)
      benches;
    (name ^ "_s", Span.total name)
  in
  [
    probe "kernel.interp" (fun b ->
        let bufs =
          List.map
            (fun (d : Kernel.Ir.buf_decl) ->
              (d.buf_name, Machsuite.Bench_def.initial_array b d))
            b.kernel.Kernel.Ir.bufs
        in
        fun () ->
          Kernel.Interp.run b.kernel
            (Kernel.Interp.pure_machine ~bufs ~params:b.params ()));
    probe "hls.synth" (fun b () ->
        ignore (Hls.Directives.synthesize_uncached ~kernel:b.kernel b.directives));
    probe "analysis.analyze" (fun b () ->
        ignore
          (Analysis.analyze ~params:(Analysis.param_intervals b.params) b.kernel));
    probe "cpu.model" (fun b ->
        let size = 16 lsl 20 in
        let mem = Tagmem.Mem.create ~size in
        let heap = Tagmem.Alloc.create ~base:4096 ~size:(size - 4096) in
        let layout =
          Memops.Layout.make
            (List.map
               (fun (decl : Kernel.Ir.buf_decl) ->
                 let bytes = Kernel.Ir.buf_decl_bytes decl in
                 let align, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
                 { Memops.Layout.decl;
                   base = Tagmem.Alloc.malloc heap ~align padded })
               b.kernel.Kernel.Ir.bufs)
        in
        List.iter
          (fun (binding : Memops.Layout.binding) ->
            Memops.Layout.init_buffer mem binding (fun idx ->
                b.init binding.decl.Kernel.Ir.buf_name idx))
          (Memops.Layout.bindings layout);
        fun () ->
          ignore
            (Cpu.Model.run (Cpu.Model.config Cpu.Model.Rv64) mem b.kernel layout
               ~params:b.params ()));
  ]

let child ~workload ~seed ~leg ~t0 ~size ~span_dir =
  let w =
    match Workloads.find_workload workload with
    | Some w -> w
    | None -> die "unknown workload %s" workload
  in
  Legs.apply leg;
  let timed = w.prepare size ~seed in
  let ready = now () in
  if span_dir <> None then Span.enable ~origin:ready;
  let gc0 = Gc.quick_stat () in
  let start = now () in
  let o = timed leg in
  let wall = now () -. start in
  let gc1 = Gc.quick_stat () in
  let rss_mb = vmhwm_mb () in
  let counts =
    o.counts @ generic_counts o gc0 gc1
    @ (if span_dir <> None && workload = "paper" then unit_costs size else [])
  in
  Option.iter
    (fun dir ->
      Span.write ~dir ~workload
        ~rep:(Printf.sprintf "%s-%d-%d" (Legs.name leg) seed (Unix.getpid ())))
    span_dir;
  List.iter (fun f -> prerr_endline ("perf: " ^ workload ^ ": " ^ f)) o.failures;
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("workload", String workload);
            ("seed", Int seed);
            ("leg", String (Legs.name leg));
            ("ready_s", Float (ready -. t0));
            ("wall_s", Float wall);
            ("peak_rss_mb", Float rss_mb);
            ("ops", Int o.ops);
            ("ops_failed", Int o.ops_failed);
            ("digest", String o.digest);
            ("counts", Obj (List.map (fun (k, v) -> (k, Float v)) counts));
          ]))

(* ------------------------------------------------------------------ *)
(* Parent: spawning and reading children                                *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_leg : Legs.t;
  s_traced : bool;
  ready_s : float;
  wall_s : float;
  rss_mb : float;
  ops : int;
  ops_failed : int;
  digest : string;
  counts : (string * float) list;
}

let number = function
  | Obs.Json.Float f -> Some f
  | Obs.Json.Int i -> Some (float_of_int i)
  | _ -> None

let field name conv json = Option.bind (Obs.Json.member name json) conv

let parse_sample ~leg ~traced line =
  match Obs.Json.parse line with
  | Error _ -> None
  | Ok json -> (
      let counts =
        match Obs.Json.member "counts" json with
        | Some (Obs.Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (number v))
              kvs
        | _ -> []
      in
      match
        ( field "ready_s" number json,
          field "wall_s" number json,
          field "peak_rss_mb" number json,
          field "ops" Obs.Json.to_int_opt json,
          field "ops_failed" Obs.Json.to_int_opt json,
          field "digest" Obs.Json.to_string_opt json )
      with
      | Some ready_s, Some wall_s, Some rss_mb, Some ops, Some ops_failed,
        Some digest ->
          Some
            { s_leg = leg; s_traced = traced; ready_s; wall_s; rss_mb; ops;
              ops_failed; digest; counts }
      | _ -> None)

(* Runs one child to completion; [None] if it crashed or printed no result. *)
let spawn ~workload ~seed ~leg ~smoke ~span_dir =
  let exe = Sys.executable_name in
  let t0 = now () in
  let args =
    [ exe; "child"; workload; string_of_int seed; "--leg"; Legs.name leg;
      "--t0"; Printf.sprintf "%.6f" t0 ]
    @ (if smoke then [ "--smoke" ] else [])
    @ match span_dir with Some d -> [ "--span-dir"; d ] | None -> []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    List.fold_left
      (fun acc l -> if String.length l > 0 && l.[0] = '{' then Some l else acc)
      None (String.split_on_char '\n' out)
  in
  let sample =
    match (status, last) with
    | Unix.WEXITED 0, Some line ->
        parse_sample ~leg ~traced:(span_dir <> None) line
    | _ -> None
  in
  if sample = None then
    Printf.eprintf "perf: child %s/%s (seed %d) failed\n%!" workload
      (Legs.name leg) seed;
  sample

(* ------------------------------------------------------------------ *)
(* Parent: the measurement loop                                         *)
(* ------------------------------------------------------------------ *)

type wstate = {
  w : Workloads.t;
  mutable samples : sample list;  (** run order; every leg *)
  mutable crashed : int;
}

type opts = {
  workloads : Workloads.t list;
  seed : int;
  reps : int option;
  seconds : float option;
  trace : bool;
  size : Workloads.size;
  out : string option;
  append : bool;
  span_dir : string;
}

let rep st o ~leg ~traced =
  let span_dir = if traced then Some o.span_dir else None in
  match
    spawn ~workload:st.w.name ~seed:o.seed ~leg ~smoke:(o.size = Smoke)
      ~span_dir
  with
  | Some s -> st.samples <- st.samples @ [ s ]
  | None -> st.crashed <- st.crashed + 1

let ablations (w : Workloads.t) =
  match w.name with
  | "paper" -> [ Legs.Fastpath_off; Legs.Event; Legs.Eventff_off ]
  | "interconnect" -> [ Legs.Fastpath_off; Legs.Eventff_off ]
  | "serve" | "observed_faults" -> [ Legs.Fastpath_off ]
  | _ -> []

(* Round-robin rounds until the repetition count is reached or the time
   window, counted from [start], is used up: a window always gets at least
   [min_rounds] rounds, and another starts only if a mean round still fits. *)
let rounds o ~start ~min_rounds ~default_reps round =
  let first = now () in
  let rec go n =
    let more =
      match o.seconds with
      | Some s ->
          let t = now () in
          n < min_rounds || t -. start +. ((t -. first) /. float_of_int n) <= s
      | None -> n < Option.value o.reps ~default:default_reps
    in
    if more then begin
      round ();
      go (n + 1)
    end
  in
  go 0

let measure o =
  let start = now () in
  let states =
    List.map (fun w -> { w; samples = []; crashed = 0 }) o.workloads
  in
  if o.trace then begin
    (try Sys.mkdir o.span_dir 0o755 with Sys_error _ -> ());
    List.iter
      (fun st ->
        List.iter (fun leg -> rep st o ~leg ~traced:false) (ablations st.w))
      states;
    rounds o ~start ~min_rounds:1 ~default_reps:3 (fun () ->
        List.iter
          (fun st ->
            rep st o ~leg:Legs.Default ~traced:false;
            rep st o ~leg:Legs.Default ~traced:true)
          states)
  end
  else
    rounds o ~start ~min_rounds:3 ~default_reps:5 (fun () ->
        List.iter (fun st -> rep st o ~leg:Legs.Default ~traced:false) states);
  states

(* ------------------------------------------------------------------ *)
(* Summaries                                                            *)
(* ------------------------------------------------------------------ *)

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left min x xs
let maximum = function [] -> 0.0 | x :: xs -> List.fold_left max x xs

(* End-to-end metrics and how a run reduces its repetitions to one value.
   On a shared host, slow bursts only ever add time, so the fastest
   repetition is the steadiest reading of what the code costs; set-up time
   and memory take the median. *)
let end_to_end =
  [
    ("wall_s", "s", minimum, fun s -> s.wall_s);
    ("setup_s", "s", median, fun s -> s.ready_s);
    ("peak_rss_mb", "MB", median, fun s -> s.rss_mb);
  ]

let unit_of k =
  match List.find_opt (fun (n, _, _, _) -> n = k) end_to_end with
  | Some (_, u, _, _) -> u
  | None -> List.assoc k layer_metrics

type summary = {
  name : string;
  attempted : int;
  failed : int;
  digest : string;  (** observed on the default leg *)
  series : (string * float list) list;  (** end-to-end, per repetition *)
  values : (string * float) list;  (** the reported metrics *)
}

(* Ablation deltas and tracing overhead, then the traced repetitions'
   medians for everything else.  An ablation leg must reproduce its base
   leg's results bit for bit; only the event leg's arbitration may differ. *)
let layer_values ~note ~reference st =
  let of_leg leg = List.filter (fun s -> s.s_leg = leg) st.samples in
  let plain, traced =
    List.partition (fun s -> not s.s_traced) (of_leg Legs.Default)
  in
  let base samples digest =
    ( minimum (List.map (fun s -> s.wall_s) samples),
      median (List.map (fun s -> s.rss_mb) samples),
      digest )
  in
  let leg_base leg =
    match of_leg leg with
    | [] -> None
    | (s : sample) :: _ as ss -> Some (base ss s.digest)
  in
  let ((plain_wall, plain_rss, _) as plain_base) =
    base plain (Option.value ~default:"" reference)
  in
  (* (seconds saved, MB spent) by the mechanism [leg] switches off. *)
  let ablate leg (wall, rss, digest) =
    match leg_base leg with
    | None -> (0.0, 0.0)
    | Some (w, r, d) ->
        if d <> digest then
          note (Printf.sprintf "%s leg changed the results" (Legs.name leg));
        (w -. wall, rss -. r)
  in
  let fp_s, fp_mb = ablate Legs.Fastpath_off plain_base in
  let ff_s, ff_mb =
    ablate Legs.Eventff_off
      (Option.value (leg_base Legs.Event) ~default:plain_base)
  in
  let legacy_s, legacy_mb =
    match leg_base Legs.Event with
    | None -> (0.0, 0.0)
    | Some (w, r, _) -> (w -. plain_wall, r -. plain_rss)
  in
  let derived =
    [
      ("soc.fastpath_saved_s", fp_s); ("soc.fastpath_rss_mb", fp_mb);
      ("accel.legacy_saved_s", legacy_s); ("accel.legacy_rss_mb", legacy_mb);
      ("sim.eventff_saved_s", ff_s); ("sim.eventff_rss_mb", ff_mb);
      ( "trace_overhead_pct",
        100.0
        *. (ratio (minimum (List.map (fun s -> s.wall_s) traced)) plain_wall
           -. 1.0) );
    ]
  in
  List.map
    (fun (k, _) ->
      match List.assoc_opt k derived with
      | Some v -> (k, v)
      | None ->
          (k, median (List.filter_map (fun s -> List.assoc_opt k s.counts) traced)))
    layer_metrics

let summarize o st =
  let default = List.filter (fun s -> s.s_leg = Legs.Default) st.samples in
  let plain = List.filter (fun s -> not s.s_traced) default in
  let failures = ref [] in
  let failed = ref st.crashed in
  let note msg =
    incr failed;
    failures := msg :: !failures
  in
  (* Every default-leg repetition must reproduce the pinned digest, or for
     an unpinned seed the first repetition's. *)
  let reference =
    match Golden.find ~workload:st.w.name ~size:o.size ~seed:o.seed with
    | Some d -> Some d
    | None -> Option.map (fun (s : sample) -> s.digest) (List.nth_opt default 0)
  in
  List.iter
    (fun (s : sample) ->
      if Some s.digest <> reference then
        note
          (Printf.sprintf "digest %s differs from %s" s.digest
             (Option.value ~default:"-" reference)))
    default;
  List.iter (fun s -> failed := !failed + s.ops_failed) st.samples;
  let series =
    List.map (fun (k, _, _, get) -> (k, List.map get plain)) end_to_end
  in
  let values =
    if o.trace then layer_values ~note ~reference st
    else
      List.map
        (fun (k, _, reduce, _) -> (k, reduce (List.assoc k series)))
        end_to_end
  in
  List.iter
    (fun m -> prerr_endline ("perf: " ^ st.w.name ^ ": " ^ m))
    (List.rev !failures);
  {
    name = st.w.name;
    attempted =
      max 1 (List.fold_left (fun n s -> n + s.ops) st.crashed st.samples);
    failed = !failed;
    digest =
      (match List.sort_uniq compare (List.map (fun (s : sample) -> s.digest) default) with
      | [ d ] -> d
      | [] -> "-"
      | _ -> "mixed");
    series;
    values;
  }

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)
(* ------------------------------------------------------------------ *)

let print_table summaries =
  Printf.printf "%-16s %-30s %-10s %12s %10s %10s %10s %10s %3s\n" "workload"
    "metric" "unit" "value" "median" "iqr" "min" "max" "n";
  List.iter
    (fun s ->
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k s.series with
          | Some xs when List.mem_assoc k s.values && xs <> [] ->
              Printf.printf
                "%-16s %-30s %-10s %12.4f %10.4f %10.4f %10.4f %10.4f %3d\n"
                s.name k (unit_of k) v (median xs) (iqr xs) (minimum xs)
                (maximum xs) (List.length xs)
          | _ ->
              Printf.printf "%-16s %-30s %-10s %12.6g\n" s.name k (unit_of k) v)
        s.values;
      Printf.printf "%-16s ops %d failed %d digest %s\n" s.name s.attempted
        s.failed s.digest)
    summaries

let result_line summaries =
  let open Obs.Json in
  let key s k = match summaries with [ _ ] -> k | _ -> s.name ^ "." ^ k in
  let failed = List.fold_left (fun n s -> n + s.failed) 0 summaries in
  to_string
    (Obj
       [
         ("correct", Bool (failed = 0));
         ( "attempted",
           Int (List.fold_left (fun n s -> n + s.attempted) 0 summaries) );
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.concat_map
                (fun s ->
                  List.map
                    (fun (k, v) ->
                      ( key s k,
                        Obj [ ("value", Float v); ("unit", String (unit_of k)) ] ))
                    s.values)
                summaries) );
       ])

let floats xs = Obs.Json.List (List.map (fun x -> Obs.Json.Float x) xs)

let run_json o s =
  let open Obs.Json in
  Obj
    [
      ("seed", Int o.seed);
      ("attempted", Int s.attempted);
      ("failed", Int s.failed);
      ("digest", String s.digest);
      ("values", Obj (List.map (fun (k, v) -> (k, Float v)) s.values));
      ("samples", Obj (List.map (fun (k, xs) -> (k, floats xs)) s.series));
    ]

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> die "%s" msg
  | text -> (
      match Obs.Json.parse text with
      | Ok j -> j
      | Error msg -> die "%s: %s" path msg)

(* A report holds, per workload, one entry per run; [--append] adds this
   run after the file's earlier ones, so alternating parent/change
   invocations build two files whose i-th runs form a pair. *)
let runs_by_workload json =
  match Obs.Json.member "workloads" json with
  | Some (Obs.Json.List ws) ->
      List.filter_map
        (fun w ->
          match
            (field "name" Obs.Json.to_string_opt w, Obs.Json.member "runs" w)
          with
          | Some n, Some (Obs.Json.List runs) -> Some (n, runs)
          | _ -> None)
        ws
  | _ -> die "not a perf-run/1 report"

let write_report o summaries path =
  let previous =
    if o.append && Sys.file_exists path then runs_by_workload (read_json path)
    else []
  in
  let open Obs.Json in
  let workloads =
    List.map
      (fun s ->
        let earlier = Option.value ~default:[] (List.assoc_opt s.name previous) in
        Obj [ ("name", String s.name); ("runs", List (earlier @ [ run_json o s ])) ])
      summaries
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (to_string
           (Obj
              [
                ("schema", String "perf-run/1");
                ("trace", Bool o.trace);
                ("smoke", Bool (o.size = Smoke));
                ("workloads", List workloads);
              ]));
      output_char oc '\n')

let run o =
  let summaries = List.map (summarize o) (measure o) in
  Option.iter (write_report o summaries) o.out;
  print_table summaries;
  print_endline (result_line summaries);
  if List.exists (fun s -> s.failed > 0) summaries then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

(* One workload x metric, over per-run values.  A gain needs >= 10 pairs,
   >= 9/10 wins and a median gap wider than the parent's IQR.  A parent
   spread wider than the bound leaves the metric unresolved, unless every
   change run beats (or loses to) every parent run. *)
let verdict ~lower_better ~bound parent change =
  let better a b = if lower_better then a < b else a > b in
  let mp = median parent and mc = median change in
  let worse_by = (if lower_better then mc -. mp else mp -. mc) /. mp in
  let pairs = min (List.length parent) (List.length change) in
  let wins =
    List.length
      (List.filteri (fun i c -> i < pairs && better c (List.nth parent i)) change)
  in
  let every rel = List.for_all (fun c -> List.for_all (rel c) parent) change in
  if
    pairs >= 10
    && wins * 10 >= 9 * pairs
    && better mc mp
    && Float.abs (mc -. mp) > iqr parent
  then "better"
  else if iqr parent /. mp > bound then
    if every better then "no-worse"
    else if every (fun c p -> better p c) && worse_by > bound then "worse"
    else "unresolved"
  else if worse_by > bound then "worse"
  else "no-worse"

let compare_reports ~bench parent_path change_path =
  let bounds =
    match Obs.Json.member "end_to_end" (read_json bench) with
    | Some (Obs.Json.List ms) ->
        List.filter_map
          (fun m ->
            match
              ( field "name" Obs.Json.to_string_opt m,
                field "better" Obs.Json.to_string_opt m,
                field "bound" number m )
            with
            | Some n, Some b, Some bound -> Some (n, (b = "lower", bound))
            | _ -> None)
          ms
    | _ -> die "%s: no end_to_end metrics" bench
  in
  let parent = runs_by_workload (read_json parent_path)
  and change = runs_by_workload (read_json change_path) in
  let values metric runs =
    List.filter_map (fun r -> field "values" (field metric number) r) runs
  in
  let failed_share runs =
    let total k =
      List.fold_left
        (fun n r -> n + Option.value ~default:0 (field k Obs.Json.to_int_opt r))
        0 runs
    in
    ratio (float_of_int (total "failed")) (float_of_int (total "attempted"))
  in
  let bad = ref false in
  Printf.printf "%-16s %-13s %10s %9s %10s %9s %5s  %s\n" "workload" "metric"
    "parent" "iqr" "change" "iqr" "pairs" "verdict";
  List.iter
    (fun (name, pruns) ->
      Option.iter
        (fun cruns ->
          List.iter
            (fun (metric, (lower_better, bound)) ->
              let ps = values metric pruns and cs = values metric cruns in
              if ps <> [] && cs <> [] then begin
                let v = verdict ~lower_better ~bound ps cs in
                if v = "worse" then bad := true;
                Printf.printf "%-16s %-13s %10.4f %9.4f %10.4f %9.4f %5d  %s\n"
                  name metric (median ps) (iqr ps) (median cs) (iqr cs)
                  (min (List.length ps) (List.length cs))
                  v
              end)
            bounds;
          let fp = failed_share pruns and fc = failed_share cruns in
          if fc > fp then bad := true;
          Printf.printf "%-16s %-13s %10.4f %9s %10.4f %9s %5s  %s\n" name
            "failed_share" fp "" fc "" ""
            (if fc > fp then "worse" else "no-worse"))
        (List.assoc_opt name change))
    parent;
  if !bad then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let int_arg ?(least = 0) flag v =
  match int_of_string_opt v with
  | Some n when n >= least -> n
  | _ -> die "%s expects an integer >= %d, got %S" flag least v

let parse_run ~trace args =
  let rec go o names = function
    | [] -> (o, List.rev names)
    | "--workload" :: v :: rest -> go o (v :: names) rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } names rest
    | "--reps" :: v :: rest ->
        go { o with reps = Some (int_arg ~least:1 "--reps" v) } names rest
    | "--seconds" :: v :: rest ->
        go
          { o with seconds = Some (float_of_int (int_arg ~least:1 "--seconds" v)) }
          names rest
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { o with trace = false } names rest
        | "1" -> go { o with trace = true } names rest
        | _ -> die "--trace expects 0 or 1")
    | "--smoke" :: rest -> go { o with size = Smoke } names rest
    | "--out" :: v :: rest -> go { o with out = Some v } names rest
    | "--append" :: rest -> go { o with append = true } names rest
    | "--span-dir" :: v :: rest -> go { o with span_dir = v } names rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  let o, names =
    go
      { workloads = Workloads.all; seed = 1; reps = None; seconds = None;
        trace; size = Full; out = None; append = false;
        span_dir = "bench/perf/_out" }
      [] args
  in
  let workloads =
    match names with
    | [] -> Workloads.all
    | names ->
        List.map
          (fun n ->
            match Workloads.find_workload n with
            | Some w -> w
            | None ->
                die "unknown workload %s (known: %s)" n
                  (String.concat " "
                     (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)))
          names
  in
  { o with workloads }

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run (parse_run ~trace:false args)
  | "trace" :: args -> run (parse_run ~trace:true args)
  | "child" :: workload :: seed :: args ->
      let rec go leg t0 size span_dir = function
        | [] -> (leg, t0, size, span_dir)
        | "--leg" :: v :: rest -> (
            match Legs.of_string v with
            | Some l -> go l t0 size span_dir rest
            | None -> die "unknown leg %s" v)
        | "--t0" :: v :: rest -> (
            match float_of_string_opt v with
            | Some t -> go leg t size span_dir rest
            | None -> die "--t0 expects seconds")
        | "--smoke" :: rest -> go leg t0 Workloads.Smoke span_dir rest
        | "--span-dir" :: v :: rest -> go leg t0 size (Some v) rest
        | arg :: _ -> die "unexpected argument %S" arg
      in
      let leg, t0, size, span_dir =
        go Legs.Default (now ()) Workloads.Full None args
      in
      child ~workload ~seed:(int_arg "seed" seed) ~leg ~t0 ~size ~span_dir
  | [ "compare"; parent; change ] ->
      compare_reports ~bench:"BENCHMARK.json" parent change
  | [ "compare"; parent; change; "--bench"; bench ] ->
      compare_reports ~bench parent change
  | _ ->
      prerr_endline
        "usage: perf.exe run|trace [--workload W]... [--seed S] [--reps N | \
         --seconds T] [--trace 0|1] [--smoke] [--out FILE [--append]] \
         [--span-dir DIR]\n\
        \       perf.exe compare PARENT.json CHANGE.json [--bench FILE]";
      exit 2
