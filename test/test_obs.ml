(* lib/obs: the observability layer must observe without perturbing.

   The load-bearing property is behaviour neutrality: a run with a recording
   sink returns the exact same [Soc.Run.result] as a run with the null sink
   (differential test below).  Everything else — ring accounting, histogram
   percentiles, exporter validity — is checked against the simpler reference
   implementation it mirrors. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Ring ---- *)

let test_ring_wrap () =
  let r = Obs.Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Obs.Ring.push r i
  done;
  check_int "length" 4 (Obs.Ring.length r);
  check_int "dropped" 6 (Obs.Ring.dropped r);
  check_int "pushed" 10 (Obs.Ring.pushed r);
  Alcotest.(check (list int)) "newest retained, oldest first" [ 6; 7; 8; 9 ]
    (Obs.Ring.to_list r);
  Obs.Ring.clear r;
  check_int "cleared length" 0 (Obs.Ring.length r);
  check_int "cleared dropped" 0 (Obs.Ring.dropped r);
  Obs.Ring.push r 42;
  Alcotest.(check (list int)) "usable after clear" [ 42 ] (Obs.Ring.to_list r)

let test_ring_partial () =
  let r = Obs.Ring.create ~capacity:8 in
  List.iter (Obs.Ring.push r) [ 1; 2; 3 ];
  check_int "no drops below capacity" 0 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Obs.Ring.to_list r)

(* The ring grows its storage on demand; against a list model (keep the
   newest [capacity], count the rest) every observable must agree after
   every operation, across growth, wrap-around and [clear]. *)
type ring_op = Push of int | Clear

let qcheck_ring_model =
  let gen_op =
    QCheck.Gen.(frequency [ (12, map (fun x -> Push x) small_nat); (1, return Clear) ])
  in
  let print_op = function Push x -> Printf.sprintf "push %d" x | Clear -> "clear" in
  QCheck.Test.make ~count:300 ~name:"growing ring matches a list model"
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_op))
       QCheck.Gen.(pair (int_range 1 40) (list_size (int_bound 120) gen_op)))
    (fun (capacity, ops) ->
      let r = Obs.Ring.create ~capacity in
      let model = ref [] and dropped = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Push x ->
              Obs.Ring.push r x;
              model := !model @ [ x ];
              if List.length !model > capacity then begin
                model := List.tl !model;
                incr dropped
              end
          | Clear ->
              Obs.Ring.clear r;
              model := [];
              dropped := 0);
          let iterated = ref [] in
          Obs.Ring.iter (fun x -> iterated := x :: !iterated) r;
          Obs.Ring.to_list r = !model
          && List.rev !iterated = !model
          && Obs.Ring.length r = List.length !model
          && Obs.Ring.dropped r = !dropped
          && Obs.Ring.pushed r = List.length !model + !dropped
          && Obs.Ring.capacity r = capacity)
        ops)

(* ---- Trace sink ---- *)

let test_null_sink () =
  let t = Obs.Trace.null in
  check_bool "null disabled" false (Obs.Trace.enabled t);
  Obs.Trace.emit t (Obs.Event.Mmio_read { offset = 0 });
  Obs.Trace.advance t 100;
  Obs.Trace.set_now t 1000;
  check_int "null records nothing" 0 (Obs.Trace.length t);
  check_int "null clock never moves" 0 (Obs.Trace.now t)

let test_trace_clock_and_drops () =
  let t = Obs.Trace.create ~capacity:2 () in
  Obs.Trace.advance t 5;
  Obs.Trace.set_now t 3;  (* never backwards *)
  check_int "set_now is monotone" 5 (Obs.Trace.now t);
  for i = 0 to 4 do
    Obs.Trace.emit_at t ~cycle:i (Obs.Event.Mmio_write { offset = 8 * i })
  done;
  check_int "bounded" 2 (Obs.Trace.length t);
  check_int "drop counter" 3 (Obs.Trace.dropped t);
  match Obs.Trace.events t with
  | [ a; b ] ->
      check_int "newest kept" 3 a.Obs.Event.cycle;
      check_int "newest kept 2" 4 b.Obs.Event.cycle
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_create_rejects_empty () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Obs.Trace.create: capacity must be positive")
    (fun () -> ignore (Obs.Trace.create ~capacity:0 ()))

(* ---- The packed event store: every constructor round-trips ---- *)

let gen_int =
  QCheck.Gen.(oneof [ int; small_signed_int; oneofl [ 0; -1; max_int; min_int ] ])

let gen_str =
  QCheck.Gen.(
    oneof
      [ return ""; string_size ~gen:char (int_bound 6);
        oneofl [ "\xc3\xa9t\xc3\xa9"; "\xe6\x97\xa5\xe6\x9c\xac"; "\x00\xff" ] ])

(* One generator per constructor of [Obs.Event.data], in declaration order. *)
let gen_ctors : Obs.Event.data QCheck.Gen.t list =
  let open QCheck.Gen in
  let i = gen_int and s = gen_str in
  [ (let+ source = i and+ beats = i and+ read = bool and+ at = i
     and+ granted_at = i and+ data_done = i and+ completed = i in
     Obs.Event.Bus_grant { source; beats; read; at; granted_at; data_done; completed });
    (let+ source = i and+ beats = i in Obs.Event.Bus_beat { source; beats });
    (let+ core = i and+ addr = i in Obs.Event.Cache_hit { core; addr });
    (let+ core = i and+ addr = i in Obs.Event.Cache_miss { core; addr });
    (let+ task = i and+ obj = i and+ latency = i in
     Obs.Event.Check_ok { task; obj; latency });
    (let+ task = i and+ obj = i in Obs.Event.Check_table_miss { task; obj });
    (let+ task = i and+ obj = i and+ detail = s in
     Obs.Event.Check_denial { task; obj; detail });
    (let+ task = i and+ obj = i and+ slot = i in
     Obs.Event.Table_insert { task; obj; slot });
    (let+ task = i and+ obj = i and+ count = i in
     Obs.Event.Table_evict { task; obj; count });
    (let+ task = i and+ obj = i in Obs.Event.Cap_import { task; obj });
    (let+ caps = i and+ entries = i in Obs.Event.Cap_revoke { caps; entries });
    (let+ task = i and+ phase = s and+ dur = i in
     Obs.Event.Task_phase { task; phase; dur });
    (let+ offset = i in Obs.Event.Mmio_read { offset });
    (let+ offset = i in Obs.Event.Mmio_write { offset });
    (let+ layer = s and+ kind = s and+ task = i in
     Obs.Event.Fault_injected { layer; kind; task });
    (let+ task = i and+ attempt = i and+ backoff = i in
     Obs.Event.Task_retry { task; attempt; backoff });
    (let+ task = i and+ reason = s in Obs.Event.Task_fallback { task; reason });
    (let+ task = i and+ count = i in Obs.Event.Check_elided { task; count }) ]

let gen_event =
  QCheck.Gen.(
    let+ cycle = gen_int and+ data = oneof gen_ctors in
    { Obs.Event.cycle; data })

(* Every constructor at least once, then a random tail, shuffled. *)
let arb_events =
  QCheck.make
    ~print:(fun evs ->
      String.concat " "
        (List.map (fun e -> Obs.Event.name e.Obs.Event.data) evs))
    QCheck.Gen.(
      let* every = flatten_l (List.map (fun g ->
          let+ cycle = gen_int and+ data = g in { Obs.Event.cycle; data })
          gen_ctors)
      and* tail = list_size (int_bound 150) gen_event in
      shuffle_l (every @ tail))

let emit_all t evs =
  List.iter (fun e -> Obs.Trace.emit_at t ~cycle:e.Obs.Event.cycle e.data) evs

let last n xs = List.filteri (fun i _ -> i >= List.length xs - n) xs

let retains_newest t evs =
  let n = List.length evs and cap = Obs.Trace.capacity t in
  Obs.Trace.length t = min n cap
  && Obs.Trace.dropped t = max 0 (n - cap)
  && Obs.Trace.events t = last cap evs

let qcheck_packed_roundtrip =
  QCheck.Test.make ~count:200 ~name:"packed sink round-trips every constructor"
    arb_events (fun evs ->
      List.for_all
        (fun capacity ->
          let t = Obs.Trace.create ~capacity () in
          emit_all t evs;
          let first = retains_newest t evs in
          Obs.Trace.clear t;
          let cleared = Obs.Trace.length t = 0 && Obs.Trace.dropped t = 0 in
          emit_all t evs;
          first && cleared && retains_newest t evs)
        [ 1; 3; 64; 100 ])

let test_packed_across_chunks () =
  (* Capacities that end on, just past and inside a storage chunk, each
     wrapped more than twice. *)
  let evs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:6000 gen_event
  in
  List.iter
    (fun capacity ->
      let t = Obs.Trace.create ~capacity () in
      emit_all t evs;
      check_bool (Printf.sprintf "capacity %d" capacity) true (retains_newest t evs);
      Obs.Trace.clear t;
      emit_all t (last 10 evs);
      check_bool (Printf.sprintf "capacity %d reused" capacity) true
        (retains_newest t (last 10 evs)))
    [ 1024; 1025; 2500 ]

let bus_grant =
  Obs.Event.Bus_grant
    { source = 1; beats = 16; read = true; at = 10; granted_at = 12;
      data_done = 28; completed = 30 }

let test_emit_allocates_nothing () =
  let t = Obs.Trace.create ~capacity:1024 () in
  for i = 0 to 2047 do Obs.Trace.emit_at t ~cycle:i bus_grant done;
  let calls = 100_000 in
  Gc.minor ();
  let before = Gc.minor_words () in
  for i = 1 to calls do Obs.Trace.emit_at t ~cycle:i bus_grant done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  if per_call >= 0.1 then
    Alcotest.failf "emit_at allocates %.2f minor words per call" per_call;
  check_int "still full" 1024 (Obs.Trace.length t)

(* Grants at the edges of the packed row: gaps just inside and just past
   its 31/32-bit halves, negative gaps, and times near the ends of [int]. *)
let edge_grants =
  let grant ?(source = 3) ?(beats = 4) ~at d1 d2 d3 =
    Obs.Event.Bus_grant
      { source; beats; read = d1 land 1 = 0; at; granted_at = at + d1;
        data_done = at + d1 + d2; completed = at + d1 + d2 + d3 }
  in
  let h = 1 lsl 30 and l = 1 lsl 31 in
  [ grant ~at:10 2 16 2;
    grant ~at:100 (h - 1) (l - 1) (-h);
    grant ~at:100 h 0 0;
    grant ~at:100 0 l 0;
    grant ~at:100 0 (-l) (-h - 1);
    grant ~at:0 (-5) (-7) (-9);
    grant ~at:max_int 1 1 1;
    grant ~at:min_int (-1) max_int min_int;
    grant ~source:(1 lsl 56) ~at:1 1 1 1;
    grant ~source:(-(1 lsl 56)) ~beats:(-l) ~at:1 1 1 1;
    grant ~source:max_int ~beats:l ~at:1 1 1 1 ]

let test_packed_edge_grants () =
  let evs = List.mapi (fun i data -> { Obs.Event.cycle = 100_000 + i; data }) edge_grants in
  let t = Obs.Trace.create ~capacity:64 () in
  emit_all t evs;
  check_bool "every edge grant decodes exactly" true (Obs.Trace.events t = evs)

let test_packed_overwrites_wide_rows () =
  (* A ring of 3 wrapped several times over grants that alternately fit
     and do not: each overwrite must drop what the old row held. *)
  let evs =
    List.init 40 (fun i ->
        let data = List.nth edge_grants (i mod List.length edge_grants) in
        { Obs.Event.cycle = i; data })
  in
  let narrow = [ { Obs.Event.cycle = 99; data = Obs.Event.Mmio_read { offset = 1 } } ] in
  List.iter
    (fun capacity ->
      let t = Obs.Trace.create ~capacity () in
      emit_all t evs;
      check_bool (Printf.sprintf "capacity %d" capacity) true (retains_newest t evs);
      emit_all t narrow;
      check_bool (Printf.sprintf "capacity %d, row reused" capacity) true
        (retains_newest t (evs @ narrow)))
    [ 1; 2; 3; 5 ]

let test_create_is_lazy () =
  (* An empty minor heap keeps a collection, and its accounting, out of the
     measured window. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let t = Obs.Trace.create ~capacity:(1 lsl 24) () in
  let bytes = Gc.allocated_bytes () -. before in
  if bytes >= 1048576.0 then
    Alcotest.failf "create ~capacity:2^24 allocated %.0f bytes" bytes;
  check_int "capacity as asked" (1 lsl 24) (Obs.Trace.capacity t)

(* ---- merge_into: the join step of a parallel batch ---- *)

let test_merge_into_order_and_clock () =
  let mk cycles =
    let t = Obs.Trace.create ~capacity:16 () in
    List.iter
      (fun c -> Obs.Trace.emit_at t ~cycle:c (Obs.Event.Mmio_read { offset = c }))
      cycles;
    t
  in
  let a = mk [ 1; 2 ] and b = mk [ 5; 9 ] and c = mk [] in
  Obs.Trace.set_now a 2;
  Obs.Trace.set_now b 9;
  let into = Obs.Trace.create ~capacity:16 () in
  Obs.Trace.emit_at into ~cycle:0 (Obs.Event.Mmio_write { offset = 0 });
  Obs.Trace.merge_into ~into [ a; b; c ];
  check_int "all events landed" 5 (Obs.Trace.length into);
  Alcotest.(check (list int)) "source order preserved" [ 0; 1; 2; 5; 9 ]
    (List.map (fun e -> e.Obs.Event.cycle) (Obs.Trace.events into));
  check_int "clock advanced to max source clock" 9 (Obs.Trace.now into);
  check_int "sources untouched" 2 (Obs.Trace.length a)

let test_merge_into_null_and_self () =
  let src = Obs.Trace.create ~capacity:8 () in
  Obs.Trace.emit src (Obs.Event.Mmio_read { offset = 4 });
  (* A null destination ignores everything — the usual no-observation path. *)
  Obs.Trace.merge_into ~into:Obs.Trace.null [ src ];
  check_int "null absorbs nothing" 0 (Obs.Trace.length Obs.Trace.null);
  check_bool "self-merge rejected" true
    (try
       Obs.Trace.merge_into ~into:src [ src ];
       false
     with Invalid_argument _ -> true)

let test_merge_into_equals_serial_recording () =
  (* Recording 3 fault-free runs into per-job sinks and merging equals one
     sink observing the same runs back to back, up to the clock offsets the
     runs themselves set — the property the parallel bench sections use. *)
  let bench = Machsuite.Registry.find "aes" in
  let sinks =
    List.map
      (fun _ ->
        let t = Obs.Trace.create ~capacity:(1 lsl 16) () in
        ignore (Soc.Run.run ~tasks:2 ~obs:t Soc.Config.ccpu_caccel bench);
        t)
      [ 0; 1; 2 ]
  in
  let merged = Obs.Trace.create ~capacity:(1 lsl 18) () in
  Obs.Trace.merge_into ~into:merged sinks;
  check_int "merged carries every event"
    (List.fold_left (fun acc s -> acc + Obs.Trace.length s) 0 sinks)
    (Obs.Trace.length merged);
  match sinks with
  | first :: _ ->
      Alcotest.(check bool) "merged prefix is the first sink verbatim" true
        (Obs.Trace.events first
        = List.filteri
            (fun i _ -> i < Obs.Trace.length first)
            (Obs.Trace.events merged))
  | [] -> assert false

(* ---- Metrics: histogram percentile vs the exact nearest-rank one ---- *)

(* ---- Metrics: histogram percentile vs the exact nearest-rank one ---- *)

let test_histogram_percentile () =
  (* Deterministic pseudo-random samples spanning several octaves. *)
  let samples =
    List.init 500 (fun i -> (i * 7919 + 13) mod 10_000)
  in
  let m = Obs.Metrics.create () in
  List.iter (fun s -> Obs.Metrics.observe m "lat" s) samples;
  let floats = List.map float_of_int samples in
  List.iter
    (fun p ->
      let exact = int_of_float (Ccsim.Stats.percentile p floats) in
      match Obs.Metrics.percentile m "lat" p with
      | None -> Alcotest.fail "histogram percentile missing"
      | Some hist_p ->
          if not (hist_p >= exact && hist_p <= max (2 * exact - 1) 0) then
            Alcotest.failf "p%.2f: exact %d, histogram %d out of bounds" p
              exact hist_p)
    [ 0.5; 0.9; 0.99; 1.0 ];
  (match Obs.Metrics.hist_summary m "lat" with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
      check_int "count" 500 s.Obs.Metrics.count;
      check_int "max is exact" (List.fold_left max 0 samples)
        s.Obs.Metrics.max_sample);
  check_int "missing histogram" 0
    (match Obs.Metrics.percentile m "nope" 0.5 with Some _ -> 1 | None -> 0)

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.add a "n" 3;
  Obs.Metrics.add b "n" 4;
  Obs.Metrics.observe a "h" 10;
  Obs.Metrics.observe b "h" 1000;
  Obs.Metrics.merge_into ~dst:a b;
  check_int "counters add" 7 (Obs.Metrics.get a "n");
  match Obs.Metrics.hist_summary a "h" with
  | Some s ->
      check_int "samples merge" 2 s.Obs.Metrics.count;
      check_int "max merges" 1000 s.Obs.Metrics.max_sample
  | None -> Alcotest.fail "merged histogram missing"

(* ---- Differential: recording must not change any simulated number ---- *)

let configs = [ Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel ]
let benches () =
  [ Machsuite.Registry.find "aes"; Machsuite.Registry.find "gemm_blocked" ]

let test_differential () =
  List.iter
    (fun config ->
      List.iter
        (fun (bench : Machsuite.Bench_def.t) ->
          let plain = Soc.Run.run ~tasks:4 config bench in
          let obs = Obs.Trace.create () in
          let traced = Soc.Run.run ~tasks:4 ~obs config bench in
          if plain <> traced then
            Alcotest.failf "%s on %s: result changed under tracing" bench.name
              plain.Soc.Run.config_label;
          check_bool
            (Printf.sprintf "%s/%s trace non-empty" bench.name
               plain.Soc.Run.config_label)
            true
            (Obs.Trace.length obs > 0))
        (benches ()))
    configs

let test_determinism () =
  (* Same seed (the simulator is deterministic), fresh sink each time: the
     exported byte stream must be identical. *)
  let capture () =
    let obs = Obs.Trace.create () in
    ignore (Soc.Run.run ~tasks:4 ~obs Soc.Config.ccpu_caccel
              (Machsuite.Registry.find "aes"));
    Obs.Export.to_chrome_string obs
  in
  Alcotest.(check string) "byte-identical export" (capture ()) (capture ())

(* ---- Exporter: valid JSON, monotone per track, enough categories ---- *)

let recorded_run () =
  let obs = Obs.Trace.create () in
  ignore
    (Soc.Run.run ~tasks:4 ~obs Soc.Config.ccpu_caccel
       (Machsuite.Registry.find "gemm_blocked"));
  obs

let assert_tracks_monotone obs =
  let last = Hashtbl.create 32 in
  Obs.Trace.iter
    (fun e ->
      let key =
        (Obs.Event.category e.Obs.Event.data, Obs.Event.track e.Obs.Event.data)
      in
      (match Hashtbl.find_opt last key with
      | Some prev when e.Obs.Event.cycle < prev ->
          Alcotest.failf "track %s/%d went backwards: %d after %d" (fst key)
            (snd key) e.Obs.Event.cycle prev
      | _ -> ());
      Hashtbl.replace last key e.Obs.Event.cycle)
    obs

let test_event_monotonicity () = assert_tracks_monotone (recorded_run ())

let test_shared_sink_stays_monotone () =
  (* Regression: [run_mixed] used to restart its clock at cycle 0 instead of
     [Obs.Trace.now], so appending a mixed run to a sink that already held an
     earlier run rewound every track.  Record two runs back-to-back into one
     sink and re-check per-track monotonicity across the whole stream. *)
  let obs = Obs.Trace.create () in
  ignore
    (Soc.Run.run ~tasks:2 ~obs Soc.Config.ccpu_caccel
       (Machsuite.Registry.find "aes"));
  let mid = Obs.Trace.now obs in
  check_bool "first run advanced the shared clock" true (mid > 0);
  ignore
    (Soc.Run.run_mixed ~obs Soc.Config.ccpu_caccel
       [ Machsuite.Registry.find "aes";
         Machsuite.Registry.find "fft_transpose" ]);
  check_bool "mixed run continued past the first" true (Obs.Trace.now obs > mid);
  assert_tracks_monotone obs

let test_chrome_export_parses () =
  let obs = recorded_run () in
  let raw = Obs.Export.to_chrome_string obs in
  match Obs.Json.parse raw with
  | Error msg -> Alcotest.failf "exporter emitted invalid JSON: %s" msg
  | Ok json -> (
      match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list_opt with
      | None -> Alcotest.fail "no traceEvents array"
      | Some events ->
          check_bool "events present" true (List.length events > 0);
          (* Monotone timestamps per (pid, tid) among non-metadata events —
             the property Perfetto needs for sane track rendering. *)
          let last = Hashtbl.create 32 in
          List.iter
            (fun ev ->
              let str k = Option.bind (Obs.Json.member k ev) Obs.Json.to_string_opt in
              let num k = Option.bind (Obs.Json.member k ev) Obs.Json.to_int_opt in
              match (str "ph", num "pid", num "tid", num "ts") with
              | Some "M", _, _, _ -> ()
              | Some _, Some pid, Some tid, Some ts ->
                  (match Hashtbl.find_opt last (pid, tid) with
                  | Some prev when ts < prev ->
                      Alcotest.failf "pid %d tid %d: ts %d after %d" pid tid ts
                        prev
                  | _ -> ());
                  Hashtbl.replace last (pid, tid) ts
              | _ -> Alcotest.fail "event missing ph/pid/tid/ts")
            events;
          let categories = Obs.Export.categories obs in
          if List.length categories < 4 then
            Alcotest.failf "only %d component categories traced"
              (List.length categories))

let test_write_chrome_roundtrip () =
  let obs = recorded_run () in
  let path = Filename.temp_file "capsim_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Export.write_chrome ~path obs;
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let raw = really_input_string ic n in
      close_in ic;
      match Obs.Json.parse raw with
      | Ok json ->
          check_bool "file has traceEvents" true
            (Obs.Json.member "traceEvents" json <> None)
      | Error msg -> Alcotest.failf "written file invalid: %s" msg)

let test_metrics_of_trace () =
  let obs = recorded_run () in
  let m = Obs.Metrics.of_trace obs in
  check_bool "bus grants counted" true (Obs.Metrics.get m "bus.bus_grant" > 0);
  check_bool "checks counted" true (Obs.Metrics.get m "checker.check_ok" > 0);
  check_bool "grant-wait histogram" true
    (Obs.Metrics.percentile m "bus.grant_wait" 0.5 <> None);
  check_bool "renders" true (String.length (Obs.Metrics.to_table m) > 0);
  check_bool "summary renders" true (String.length (Obs.Export.summary obs) > 0)

(* The per-event implementation of [Metrics.of_trace], kept as the oracle
   for the tag-counting one: a counter per "category.name" and four
   histograms, each created by the first event that feeds it. *)
let reference_of_trace trace =
  let m = Obs.Metrics.create () in
  Obs.Trace.iter
    (fun (ev : Obs.Event.t) ->
      let key = Obs.Event.category ev.data ^ "." ^ Obs.Event.name ev.data in
      Obs.Metrics.incr m key;
      match ev.data with
      | Obs.Event.Bus_grant { at; granted_at; beats; _ } ->
          Obs.Metrics.observe m "bus.grant_wait" (granted_at - at);
          Obs.Metrics.observe m "bus.grant_beats" beats
      | Obs.Event.Check_ok { latency; _ } ->
          Obs.Metrics.observe m "checker.check_latency" latency
      | Obs.Event.Task_phase { dur; _ } ->
          Obs.Metrics.observe m "task.phase_cycles" dur
      | _ -> ())
    trace;
  Obs.Metrics.add m "trace.dropped" (Obs.Trace.dropped trace);
  m

let same_metrics a b =
  let hists m =
    List.map
      (fun name ->
        ( name,
          Obs.Metrics.hist_summary m name,
          List.map (Obs.Metrics.percentile m name) [ 0.5; 0.9; 0.99 ] ))
      (Obs.Metrics.histograms m)
  in
  Obs.Metrics.counters a = Obs.Metrics.counters b && hists a = hists b

let qcheck_metrics_oracle =
  QCheck.Test.make ~count:200 ~name:"of_trace equals the per-event oracle"
    QCheck.(pair arb_events (int_range 1 200))
    (fun (evs, capacity) ->
      let t = Obs.Trace.create ~capacity () in
      emit_all t evs;
      same_metrics (Obs.Metrics.of_trace t) (reference_of_trace t))

let test_metrics_oracle_real_run () =
  let full = recorded_run () in
  check_bool "full trace" true
    (same_metrics (Obs.Metrics.of_trace full) (reference_of_trace full));
  let wrapped = Obs.Trace.create ~capacity:3000 () in
  ignore
    (Soc.Run.run ~tasks:4 ~obs:wrapped Soc.Config.ccpu_caccel
       (Machsuite.Registry.find "gemm_blocked"));
  check_bool "wrapped" true (Obs.Trace.dropped wrapped > 0);
  check_bool "wrapped trace" true
    (same_metrics (Obs.Metrics.of_trace wrapped) (reference_of_trace wrapped))

(* ---- Bounded denial log (the denial-storm regression) ---- *)

let denial_req i =
  (* Fine mode with no installed capability: every check denies. *)
  { Guard.Iface.source = 1; port = Some (i mod 4); addr = 0x1000 + i; size = 8;
    kind = Guard.Iface.Read }

let test_denial_storm_bounded () =
  let checker =
    Capchecker.Checker.create ~log_capacity:4 Capchecker.Checker.Fine
  in
  for i = 0 to 99 do
    match Capchecker.Checker.check checker (denial_req i) with
    | Guard.Iface.Denied _ -> ()
    | Guard.Iface.Granted _ -> Alcotest.fail "uninstalled capability granted"
  done;
  let log = Capchecker.Checker.exception_log checker in
  check_int "log bounded" 4 (List.length log);
  check_int "drops counted" 96 (Capchecker.Checker.dropped_denials checker);
  check_int "capacity visible" 4 (Capchecker.Checker.log_capacity checker);
  check_bool "flag raised" true (Capchecker.Checker.exception_flag checker);
  (* The retained entries are the newest: their details mention the last
     addresses probed. *)
  check_int "per-task view bounded" 4
    (List.length (Capchecker.Checker.exception_log_for checker ~task:1));
  check_int "other tasks unaffected" 0
    (List.length (Capchecker.Checker.exception_log_for checker ~task:2))

let test_denial_log_default_capacity () =
  let checker = Capchecker.Checker.create Capchecker.Checker.Fine in
  check_int "default capacity" 256 (Capchecker.Checker.log_capacity checker);
  (* Below capacity nothing is dropped — the pre-bugfix behaviour of keeping
     every denial is preserved for real (engine-aborted) workloads. *)
  for i = 0 to 9 do
    ignore (Capchecker.Checker.check checker (denial_req i))
  done;
  check_int "nothing dropped" 0 (Capchecker.Checker.dropped_denials checker);
  check_int "all retained" 10
    (List.length (Capchecker.Checker.exception_log checker))

let suite =
  [
    Alcotest.test_case "ring wrap and drop accounting" `Quick test_ring_wrap;
    Alcotest.test_case "ring below capacity" `Quick test_ring_partial;
    QCheck_alcotest.to_alcotest qcheck_ring_model;
    Alcotest.test_case "null sink is inert" `Quick test_null_sink;
    Alcotest.test_case "trace clock and drops" `Quick test_trace_clock_and_drops;
    Alcotest.test_case "create rejects capacity 0" `Quick
      test_create_rejects_empty;
    QCheck_alcotest.to_alcotest qcheck_packed_roundtrip;
    Alcotest.test_case "packed sink across chunks" `Quick
      test_packed_across_chunks;
    Alcotest.test_case "emit_at allocates nothing" `Quick
      test_emit_allocates_nothing;
    Alcotest.test_case "packed sink decodes edge grants" `Quick
      test_packed_edge_grants;
    Alcotest.test_case "packed sink overwrites wide rows" `Quick
      test_packed_overwrites_wide_rows;
    Alcotest.test_case "create allocates lazily" `Quick test_create_is_lazy;
    Alcotest.test_case "merge_into order and clock" `Quick
      test_merge_into_order_and_clock;
    Alcotest.test_case "merge_into null/self handling" `Quick
      test_merge_into_null_and_self;
    Alcotest.test_case "merge equals serial recording" `Slow
      test_merge_into_equals_serial_recording;
    Alcotest.test_case "histogram percentile brackets exact" `Quick
      test_histogram_percentile;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "tracing changes nothing (differential)" `Slow
      test_differential;
    Alcotest.test_case "export is deterministic" `Slow test_determinism;
    Alcotest.test_case "event stream monotone per track" `Slow
      test_event_monotonicity;
    Alcotest.test_case "shared sink monotone across run + run_mixed" `Slow
      test_shared_sink_stays_monotone;
    Alcotest.test_case "chrome export parses and is well-formed" `Slow
      test_chrome_export_parses;
    Alcotest.test_case "write_chrome roundtrip" `Slow test_write_chrome_roundtrip;
    Alcotest.test_case "metrics derived from trace" `Slow test_metrics_of_trace;
    QCheck_alcotest.to_alcotest qcheck_metrics_oracle;
    Alcotest.test_case "metrics oracle on a real run" `Slow
      test_metrics_oracle_real_run;
    Alcotest.test_case "denial storm stays bounded" `Quick
      test_denial_storm_bounded;
    Alcotest.test_case "denial log default keeps small logs whole" `Quick
      test_denial_log_default_capacity;
  ]
