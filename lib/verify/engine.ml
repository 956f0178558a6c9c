(* The verification driver behind [capsim verify].

   A run is two phases over fixed bounds: the capability-encoding sweep
   (phase 1), then bounded-exhaustive scenario x interleaving exploration
   (phase 2), stopping at the first counterexample.  A counterexample is
   minimized ({!Explore.minimize}) and serialized to a replay token, so the
   report always carries a one-command deterministic reproduction.

   Everything here is a pure function of the options (no wall clock, no
   ambient randomness — the random fallback takes an explicit seed), which
   is what lets CI diff two runs byte-for-byte. *)

type opts = {
  v_depth : int;
  v_accels : int;
  v_objs : int;
  v_obj_len : int;
  v_space_bits : int;
  v_topology : Bus.Topology.kind;
  v_checkers : Capchecker.Shim.checking;
  v_mutation : Model.mutation;
}

let default_opts =
  { v_depth = 2; v_accels = 2; v_objs = 3; v_obj_len = 8; v_space_bits = 4;
    v_topology = Bus.Topology.Shared;
    v_checkers = Capchecker.Shim.Distributed; v_mutation = Model.M_none }

type counterexample = {
  cx_violation : Harness.violation;
  cx_trace : Harness.step list;   (** minimized trace *)
  cx_scenario : Model.scenario;   (** minimized scenario *)
  cx_schedule : int list;
  cx_token : string;
}

type report = {
  r_opts : opts;
  r_sweep : Space.sweep;
  r_scenarios : int;          (** scenarios explored *)
  r_schedules : int;
  r_pruned : int;
  r_ops : int;
  r_invalidations : int;
  r_counterexample : counterexample option;
}

let dims_of o =
  { Space.d_accels = o.v_accels; d_objs = o.v_objs; d_obj_len = o.v_obj_len;
    d_depth = o.v_depth; d_topology = o.v_topology;
    d_checkers = o.v_checkers; d_mutation = o.v_mutation }

let counterexample_of sc schedule =
  let sc, schedule = Explore.minimize sc schedule in
  let h = Explore.run_schedule sc schedule in
  match Harness.violation h with
  | None ->
      (* minimization preserves the violation by construction *)
      invalid_arg "verify: minimized counterexample stopped reproducing"
  | Some v ->
      { cx_violation = v; cx_trace = Harness.trace h; cx_scenario = sc;
        cx_schedule = schedule; cx_token = Model.token_of sc schedule }

let run o =
  let sweep = Space.encoding_sweep ~space_bits:o.v_space_bits in
  let scenarios = ref 0 in
  let schedules = ref 0 and pruned = ref 0 and ops = ref 0 in
  let invalidations = ref 0 in
  let cx = ref None in
  let sched = Ccsim.Sched.create () in
  (match sweep.Space.sw_failure with
  | Some _ -> () (* a phase-1 failure already fails the run; skip phase 2 *)
  | None ->
      Seq.iter
        (fun sc ->
          if !cx = None then begin
            incr scenarios;
            let out = Explore.explore ~sched sc in
            schedules := !schedules + out.Explore.o_stats.Explore.x_schedules;
            pruned := !pruned + out.Explore.o_stats.Explore.x_pruned;
            ops := !ops + out.Explore.o_stats.Explore.x_ops;
            invalidations :=
              !invalidations + out.Explore.o_stats.Explore.x_invalidations;
            match out.Explore.o_violation with
            | Some (_, _, schedule) -> cx := Some (counterexample_of sc schedule)
            | None -> ()
          end)
        (Space.scenarios (dims_of o)));
  { r_opts = o; r_sweep = sweep; r_scenarios = !scenarios;
    r_schedules = !schedules; r_pruned = !pruned; r_ops = !ops;
    r_invalidations = !invalidations; r_counterexample = !cx }

let ok r = r.r_sweep.Space.sw_failure = None && r.r_counterexample = None

(* ---- replay ---- *)

let replay token =
  match Model.of_token token with
  | Error e -> Error e
  | Ok (sc, schedule) ->
      let h = Explore.run_schedule sc schedule in
      Ok
        ( Harness.trace h,
          match Harness.violation h with
          | None -> None
          | Some v ->
              Some
                { cx_violation = v; cx_trace = Harness.trace h;
                  cx_scenario = sc; cx_schedule = schedule; cx_token = token }
        )

(* ---- random fallback ---- *)

type random_report = {
  rr_runs : int;
  rr_violating : int;  (** runs whose harness flagged a violation *)
  rr_counterexample : counterexample option;
}

let random_suite o ~seed ~runs =
  let rng = Ccsim.Rng.create seed in
  let d = dims_of o in
  let violating = ref 0 in
  let cx = ref None in
  let i = ref 0 in
  let sched = Ccsim.Sched.create () in
  while !i < runs && !cx = None do
    incr i;
    let sc, schedule = Space.random_scenario rng d in
    let h = Explore.run_schedule ~sched sc schedule in
    match Harness.violation h with
    | None -> ()
    | Some _ ->
        incr violating;
        cx := Some (counterexample_of sc schedule)
  done;
  { rr_runs = !i; rr_violating = !violating; rr_counterexample = !cx }

(* ---- rendering ---- *)

let json_of_step (s : Harness.step) =
  Obs.Json.Obj
    [ ("step", Obs.Json.Int s.Harness.s_index);
      ("cycle", Obs.Json.Int s.Harness.s_cycle);
      ("src", Obs.Json.Int s.Harness.s_src);
      ("op", Obs.Json.String (Model.op_to_string s.Harness.s_op));
      ("what", Obs.Json.String (Model.op_pretty s.Harness.s_src s.Harness.s_op));
      ("note", Obs.Json.String s.Harness.s_note) ]

let json_of_counterexample cx =
  Obs.Json.Obj
    [ ("property", Obs.Json.String cx.cx_violation.Harness.v_prop);
      ("detail", Obs.Json.String cx.cx_violation.Harness.v_detail);
      ("step", Obs.Json.Int cx.cx_violation.Harness.v_step);
      ("cycle", Obs.Json.Int cx.cx_violation.Harness.v_cycle);
      ("trace", Obs.Json.List (List.map json_of_step cx.cx_trace));
      ("token", Obs.Json.String cx.cx_token) ]

let json_of_report r =
  Obs.Json.Obj
    [ ("ok", Obs.Json.Bool (ok r));
      ( "encodings",
        Obs.Json.Obj
          [ ("caps", Obs.Json.Int r.r_sweep.Space.sw_caps);
            ("checks", Obs.Json.Int r.r_sweep.Space.sw_checks);
            ( "failure",
              match r.r_sweep.Space.sw_failure with
              | None -> Obs.Json.Null
              | Some f -> Obs.Json.String f ) ] );
      ( "exploration",
        Obs.Json.Obj
          [ ("scenarios", Obs.Json.Int r.r_scenarios);
            ("schedules", Obs.Json.Int r.r_schedules);
            ("pruned", Obs.Json.Int r.r_pruned);
            ("ops", Obs.Json.Int r.r_ops);
            ("shim_invalidations", Obs.Json.Int r.r_invalidations) ] );
      ( "counterexample",
        match r.r_counterexample with
        | None -> Obs.Json.Null
        | Some cx -> json_of_counterexample cx ) ]

let render_counterexample b cx =
  Printf.bprintf b "counterexample: %s\n" cx.cx_violation.Harness.v_prop;
  Printf.bprintf b "  %s\n" cx.cx_violation.Harness.v_detail;
  Printf.bprintf b "  scenario: mode=%s checkers=%s topology=%s mutation=%s\n"
    (Model.mode_to_string cx.cx_scenario.Model.sc_mode)
    (Capchecker.Shim.checking_to_string cx.cx_scenario.Model.sc_checkers)
    (Bus.Topology.kind_to_string cx.cx_scenario.Model.sc_topology)
    (Model.mutation_to_string cx.cx_scenario.Model.sc_mutation);
  List.iter
    (fun (s : Harness.step) ->
      Printf.bprintf b "  [%d] cycle %d: %s -> %s\n" s.Harness.s_index
        s.Harness.s_cycle
        (Model.op_pretty s.Harness.s_src s.Harness.s_op)
        s.Harness.s_note)
    cx.cx_trace;
  Printf.bprintf b "  replay: capsim verify --replay '%s'\n" cx.cx_token

let render_report r =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "phase 1 (encodings): %d capabilities, %d checks%s\n"
    r.r_sweep.Space.sw_caps r.r_sweep.Space.sw_checks
    (match r.r_sweep.Space.sw_failure with
    | None -> ""
    | Some f -> Printf.sprintf "\n  FAILED: %s" f);
  Printf.bprintf b
    "phase 2 (scenarios): %d scenarios, %d schedules (%d branches pruned), \
     %d ops, %d shim invalidations\n"
    r.r_scenarios r.r_schedules r.r_pruned r.r_ops r.r_invalidations;
  (match r.r_counterexample with
  | None -> if ok r then Printf.bprintf b "verified: no counterexample\n"
  | Some cx -> render_counterexample b cx);
  Buffer.contents b
