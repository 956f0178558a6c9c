(* The bounded-exhaustive verifier verifying itself: the exhaustive run at
   the acceptance bound is clean, every seeded checker mutation is caught
   with a minimized replayable counterexample, replay tokens round-trip,
   and DPOR pruning is cross-checked against brute-force enumeration. *)

module M = Verify.Model
module H = Verify.Harness
module X = Verify.Explore
module S = Verify.Space
module E = Verify.Engine

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let shim_opts = { E.default_opts with E.v_checkers = Capchecker.Shim.Distributed }

(* ---------------- the acceptance bound, clean ---------------- *)

(* >= 2 accelerators, >= 3 objects, revocation + elision + fault injection
   in the scenario cross product, distributed shims: the real system must
   come out clean, and the interesting races must actually have been
   exercised (pruning fired, shim invalidations raced refills). *)
let test_exhaustive_clean () =
  let r = E.run shim_opts in
  checkb "verdict ok" true (E.ok r);
  checkb "no counterexample" true (r.E.r_counterexample = None);
  checkb "phase-1 sweep clean" true (r.E.r_sweep.S.sw_failure = None);
  checkb "phase-1 covered the encoding space" true (r.E.r_sweep.S.sw_caps > 1000);
  checki "scenario count matches the dimension formula"
    (8 * int_of_float (3. ** float_of_int (shim_opts.E.v_accels * shim_opts.E.v_objs)))
    r.E.r_scenarios;
  checkb "interleavings explored" true (r.E.r_schedules > r.E.r_scenarios);
  checkb "DPOR pruning fired" true (r.E.r_pruned > 0);
  checkb "revocation raced a shim refill" true (r.E.r_invalidations > 0)

let test_central_parity_clean () =
  let r = E.run { shim_opts with E.v_checkers = Capchecker.Shim.Central } in
  checkb "central placement also clean" true (E.ok r);
  checki "no shims, no invalidations" 0 r.E.r_invalidations

(* ---------------- mutations are caught ---------------- *)

(* Which property each seeded bug must trip.  skip-revoke surfaces as
   ghost-exn: the lost epoch bump leaves a departed task's denial-marked
   entry live in the table, which the slot-hygiene property catches first
   (see DESIGN.md, "Verification mode"). *)
let expected_prop = [
  (M.M_ghost_exn, H.p_ghost);
  (M.M_wide_bounds, H.p_oob_grant);
  (M.M_skip_revoke, H.p_ghost);
  (M.M_elide_unproven, H.p_elide);
]

let catch_mutation (mut, prop) () =
  let r = E.run { shim_opts with E.v_mutation = mut } in
  checkb "mutation detected" true (not (E.ok r));
  match r.E.r_counterexample with
  | None -> Alcotest.fail "no counterexample for a seeded bug"
  | Some cx ->
      checks "violated property" prop cx.E.cx_violation.H.v_prop;
      checkb "trace is minimized" true (List.length cx.E.cx_trace <= 6);
      checkb "trace ends at the violating step" true
        (List.length cx.E.cx_trace = cx.E.cx_violation.H.v_step + 1);
      (* the token is a self-contained deterministic reproduction *)
      (match E.replay cx.E.cx_token with
      | Error e -> Alcotest.fail ("replay failed: " ^ e)
      | Ok (_, None) -> Alcotest.fail "replay did not reproduce"
      | Ok (trace, Some cx') ->
          checks "replay reproduces the property" prop
            cx'.E.cx_violation.H.v_prop;
          checki "replay trace length" (List.length cx.E.cx_trace)
            (List.length trace));
      (* minimality: the violation needs its full schedule — chopping the
         final step off must make it vanish *)
      let sc, sched = match M.of_token cx.E.cx_token with
        | Ok p -> p
        | Error e -> Alcotest.fail ("token does not parse back: " ^ e)
      in
      let shorter = List.filteri (fun i _ -> i < List.length sched - 1) sched in
      let still =
        match H.violation (X.run_schedule
          (* dropping a schedule position needs its op dropped too *)
          (let last = List.nth sched (List.length sched - 1) in
           let progs = Array.copy sc.M.sc_programs in
           progs.(last) <-
             List.filteri
               (fun i _ -> i < List.length progs.(last) - 1)
               progs.(last);
           { sc with M.sc_programs = progs })
          shorter)
        with
        | Some v -> v.H.v_prop = prop
        | None -> false
      in
      checkb "1-minimal at the tail" false still

(* ---------------- replay token round-trip ---------------- *)

let seq_schedule sc =
  List.concat
    (List.init
       (Array.length sc.M.sc_programs)
       (fun s -> List.map (fun _ -> s) sc.M.sc_programs.(s)))

let small_dims = {
  S.d_accels = 2; d_objs = 2; d_obj_len = 8; d_depth = 2;
  d_topology = Bus.Topology.Shared;
  d_checkers = Capchecker.Shim.Distributed;
  d_mutation = M.M_none;
}

let test_token_roundtrip () =
  let n = ref 0 in
  Seq.iteri
    (fun i sc ->
      if i mod 29 = 0 then begin
        incr n;
        let sched = seq_schedule sc in
        match M.of_token (M.token_of sc sched) with
        | Ok (sc', sched') ->
            checkb "scenario round-trips" true (sc = sc');
            checkb "schedule round-trips" true (sched = sched')
        | Error e -> Alcotest.fail ("round-trip failed: " ^ e)
      end)
    (S.scenarios small_dims);
  checkb "sampled enough scenarios" true (!n > 10)

let test_token_rejects_garbage () =
  let bad t = match M.of_token t with Ok _ -> false | Error _ -> true in
  checkb "empty" true (bad "");
  checkb "wrong version" true (bad "v0|mode=fine");
  checkb "truncated" true (bad "v1|mode=fine|chk=shim");
  (* a valid token with a tampered (infeasible) schedule must not parse *)
  let sc =
    match S.scenarios small_dims () with
    | Seq.Cons (sc, _) -> sc
    | Seq.Nil -> assert false
  in
  let tok = M.token_of sc (seq_schedule sc) in
  let tampered = tok ^ ",0,0,0,0,0,0,0,0" in
  checkb "infeasible schedule rejected" true (bad tampered)

(* A token is outside input: cut short or with one byte changed, parsing
   and replaying it must end in [Ok] or a clean [Error], never raise. *)
let sample_tokens =
  lazy
    (Seq.fold_left
       (fun (i, acc) sc ->
         (i + 1, if i mod 17 = 0 then M.token_of sc (seq_schedule sc) :: acc else acc))
       (0, []) (S.scenarios small_dims)
    |> snd |> Array.of_list)

let prop_tampered_tokens =
  QCheck.Test.make ~count:2000 ~name:"tampered replay tokens fail cleanly"
    QCheck.(quad small_nat small_nat bool printable_char)
    (fun (which, pos, truncate, c) ->
      let tokens = Lazy.force sample_tokens in
      let tok = tokens.(which mod Array.length tokens) in
      let pos = pos mod String.length tok in
      let t =
        if truncate then String.sub tok 0 pos
        else String.mapi (fun i x -> if i = pos then c else x) tok
      in
      match (M.of_token t, E.replay t) with
      | (Ok _ | Error _), (Ok _ | Error _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "%S raised %s" t (Printexc.to_string e))

(* ---------------- DPOR soundness ---------------- *)

(* Brute-force enumeration with pruning disabled: the reduced exploration
   must reach a violation exactly when the full one does. *)
let explore_no_prune sc =
  let progs = Array.map Array.of_list sc.M.sc_programs in
  let n = M.sources sc in
  let total = Array.fold_left (fun a p -> a + Array.length p) 0 progs in
  let idx = Array.make n 0 in
  let rev_sched = ref [] in
  let viol = ref None in
  let rec dfs pos =
    if !viol <> None then ()
    else if pos = total then begin
      match H.violation (X.run_schedule sc (List.rev !rev_sched)) with
      | Some v -> viol := Some v
      | None -> ()
    end
    else
      for s = 0 to n - 1 do
        if !viol = None && idx.(s) < Array.length progs.(s) then begin
          rev_sched := s :: !rev_sched;
          idx.(s) <- idx.(s) + 1;
          dfs (pos + 1);
          idx.(s) <- idx.(s) - 1;
          rev_sched := List.tl !rev_sched
        end
      done
  in
  dfs 0;
  !viol

let dpor_agrees dims ~stride =
  let sched = Ccsim.Sched.create () in
  Seq.iteri
    (fun i sc ->
      if i mod stride = 0 then begin
        let reduced = (X.explore ~sched sc).X.o_violation in
        let brute = explore_no_prune sc in
        checkb
          (Printf.sprintf "scenario %d: pruned and brute-force agree" i)
          (brute <> None)
          (reduced <> None)
      end)
    (S.scenarios dims)

let test_dpor_sound_clean () = dpor_agrees small_dims ~stride:23

let test_dpor_sound_mutated () =
  dpor_agrees { small_dims with S.d_mutation = M.M_wide_bounds } ~stride:31;
  dpor_agrees { small_dims with S.d_mutation = M.M_ghost_exn } ~stride:31

(* ---------------- schedule execution ---------------- *)

(* The dispatcher is one scheduler event per schedule position: op k runs
   at cycle k, whichever scheduler runs it, and a grant to a source whose
   program is exhausted is refused rather than skipped. *)
let test_schedule_cycles_and_idle_grant () =
  let sched = Ccsim.Sched.create () in
  let n = ref 0 in
  Seq.iteri
    (fun i sc ->
      if i mod 37 = 0 then begin
        incr n;
        let schedule = seq_schedule sc in
        List.iter
          (fun h ->
            List.iteri
              (fun k (s : H.step) ->
                checki "step index" k s.H.s_index;
                checki "op k runs at cycle k" k s.H.s_cycle;
                checki "granted source" (List.nth schedule k) s.H.s_src)
              (H.trace h))
          [ X.run_schedule sc schedule; X.run_schedule ~sched sc schedule ];
        Alcotest.check_raises "grant to an exhausted source"
          (Invalid_argument "verify: schedule granted an idle source")
          (fun () -> ignore (X.run_schedule ~sched sc (schedule @ [ 0 ])))
      end)
    (S.scenarios small_dims);
  checkb "sampled enough scenarios" true (!n > 10);
  (* the scheduler is reusable after a refused schedule *)
  let sc =
    match S.scenarios small_dims () with
    | Seq.Cons (sc, _) -> sc
    | Seq.Nil -> assert false
  in
  checki "clean run after a refusal"
    (List.length (seq_schedule sc))
    (H.steps_executed (X.run_schedule ~sched sc (seq_schedule sc)))

(* One scheduler shared by every scenario of a box must explore exactly as
   a fresh scheduler per scenario: same statistics, same violations, same
   traces. *)
let test_shared_scheduler_matches_fresh () =
  List.iter
    (fun dims ->
      let shared = Ccsim.Sched.create () in
      Seq.iter
        (fun sc ->
          let a = X.explore ~sched:shared sc in
          let b = X.explore ~sched:(Ccsim.Sched.create ()) sc in
          checkb "stats equal" true (a.X.o_stats = b.X.o_stats);
          checkb "violation and trace equal" true
            (a.X.o_violation = b.X.o_violation))
        (S.scenarios dims))
    [ { small_dims with S.d_depth = 1 };
      { small_dims with S.d_depth = 1; d_mutation = M.M_ghost_exn };
      { small_dims with S.d_accels = 1; d_objs = 2; d_mutation = M.M_wide_bounds } ]

(* ---------------- the random fallback ---------------- *)

let prop_random_clean =
  QCheck.Test.make ~count:80
    ~name:"random scenarios: the unmutated system holds every property"
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Ccsim.Rng.create seed in
      let sc, sched = S.random_scenario rng small_dims in
      H.violation (X.run_schedule sc sched) = None)

let test_random_suite_deterministic () =
  let run () = E.random_suite shim_opts ~seed:7 ~runs:50 in
  let a = run () and b = run () in
  checki "same seed, same runs" a.E.rr_runs b.E.rr_runs;
  checki "no violations" 0 a.E.rr_violating;
  checkb "deterministic" true (a = b)

(* ---------------- report determinism ---------------- *)

let test_report_deterministic () =
  let render () = E.render_report (E.run shim_opts) in
  checks "byte-identical repeated reports" (render ()) (render ());
  let j () = Obs.Json.to_string (E.json_of_report (E.run shim_opts)) in
  checks "byte-identical repeated json" (j ()) (j ())

let suite =
  [
    ("exhaustive clean at the acceptance bound", `Quick, test_exhaustive_clean);
    ("central placement clean", `Quick, test_central_parity_clean);
  ]
  @ List.map
      (fun ((m, _) as case) ->
        ( "mutation caught: " ^ M.mutation_to_string m,
          `Quick,
          catch_mutation case ))
      expected_prop
  @ [
      ("replay token round-trip", `Quick, test_token_roundtrip);
      ("replay token rejects garbage", `Quick, test_token_rejects_garbage);
      QCheck_alcotest.to_alcotest prop_tampered_tokens;
      ("DPOR agrees with brute force (clean)", `Quick, test_dpor_sound_clean);
      ("DPOR agrees with brute force (mutated)", `Quick, test_dpor_sound_mutated);
      ("schedule: op k at cycle k, idle grant refused", `Quick,
       test_schedule_cycles_and_idle_grant);
      ("one scheduler per run equals one per scenario", `Quick,
       test_shared_scheduler_matches_fresh);
      ("random suite deterministic", `Quick, test_random_suite_deterministic);
      ("report rendering deterministic", `Quick, test_report_deterministic);
      QCheck_alcotest.to_alcotest prop_random_clean;
    ]
