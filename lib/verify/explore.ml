(* Interleaving exploration with partial-order reduction.

   Every interleaving of the scenario's per-source programs is a list of
   source ids (a {e schedule}); the explorer enumerates them by DFS over
   "which source issues next", executing each complete schedule through a
   fresh {!Harness} driven by a schedule-controlled {!Ccsim.Sched} — the same
   event engine as the simulator, granting one source per cycle like the
   arbiter does.  The scheduler is the caller's, reset between schedules, so
   a whole verify run allocates one.

   Pruning (the DPOR idea, in its simplest sound form): two adjacent ops from
   different sources that are {e independent} — they commute on every shared
   state the properties observe — produce equivalent executions in either
   order, so only one representative per equivalence class needs to run.  We
   keep the lexicographic normal form: an extension by source [s] directly
   after an op from source [j > s] is pruned when the two ops are
   independent, because the schedule with them swapped is explored elsewhere
   and is lexicographically smaller.  This enumerates a superset of the
   normal forms (never less than one schedule per class), so it is sound:
   a violation reachable by any interleaving is reached.

   Independence is deliberately coarse and justified against the actual
   shared state (see [independent] below); when in doubt, ops are dependent
   and both orders run. *)

type stats = {
  x_schedules : int;  (** complete interleavings executed *)
  x_pruned : int;     (** DFS branches cut by the commutation rule *)
  x_ops : int;        (** total ops executed across schedules *)
  x_invalidations : int;
      (** shim invalidate-channel drops summed over schedules (coverage:
          revocation raced a refill at least once when > 0) *)
}

type outcome = {
  o_stats : stats;
  o_violation : (Harness.violation * Harness.step list * int list) option;
      (** first violation found, its trace, and the violating schedule *)
}

(* ---- independence ---- *)

let bank_of sc addr =
  match sc.Model.sc_topology with
  | Bus.Topology.Crossbar { banks } ->
      addr / Bus.Topology.bank_interleave mod banks
  | _ -> 0

(* [independent sc a b] — may ops [a] and [b] (from different sources,
   adjacent in a schedule) be swapped without changing any observed state?

   - Two accesses from different sources never share a table key (keys are
     (task, obj) and the task is the source), so they interact only through
     per-object memory effects and same-bank arbitration.  Different objects,
     or two reads, commute; a write racing any op on the same object in the
     same bank does not.
   - A driver table mutation and an access commute unless the mutation
     touches the accessing task's entries (install/evict of that key, or a
     revocation of that task) — those change the access verdict, the spec
     grant map, and the shim invalidate stream.
   - Driver ops are all one source, so they are never candidates. *)
let independent sc (src_a, op_a) (src_b, op_b) =
  let touches task = function
    | Model.Install { task = t; _ } | Model.Evict { task = t; _ }
    | Model.Revoke { task = t } ->
        t = task
    | Model.Access _ -> false
  in
  match (op_a, op_b) with
  | ( Model.Access { obj = oa; off = fa; write = wa; _ },
      Model.Access { obj = ob; off = fb; write = wb; _ } ) ->
      oa <> ob
      || ((not wa) && not wb)
      || bank_of sc (Model.obj_base sc oa + fa)
         <> bank_of sc (Model.obj_base sc ob + fb)
  | Model.Access _, d -> not (touches src_a d)
  | d, Model.Access _ -> not (touches src_b d)
  | _, _ -> false (* driver vs driver: same source, unreachable *)

(* ---- schedule execution over the event engine ---- *)

let run_schedule ?sched sc schedule =
  let t =
    match sched with
    | Some t ->
        Ccsim.Sched.reset t;
        t
    | None -> Ccsim.Sched.create ()
  in
  let h = Harness.boot sc in
  let n = Model.sources sc in
  (* The arbiter as one resumable cursor (no process per source): the event
     at cycle k runs op k of the source the schedule grants, then schedules
     itself at k+1.  [remaining.(src)] is what [src] has yet to issue. *)
  let remaining = Array.copy sc.Model.sc_programs in
  let cursor = ref schedule in
  let rec grant () =
    match !cursor with
    | [] -> ()
    | src :: rest -> (
        cursor := rest;
        match remaining.(src) with
        | [] -> invalid_arg "verify: schedule granted an idle source"
        | op :: ops ->
            remaining.(src) <- ops;
            let cycle = Ccsim.Sched.now t in
            Harness.exec h ~cycle ~src op;
            match rest with
            | [] -> ()
            | _ :: _ -> Ccsim.Sched.at t ~cycle:(cycle + 1) grant)
  in
  Ccsim.Sched.at t ~cycle:0 grant;
  let budget = (List.length schedule * 4) + (n * 4) + 16 in
  ignore (Ccsim.Sched.run_steps t budget);
  if Ccsim.Sched.pending t > 0 then
    invalid_arg "verify: schedule did not quiesce within its step budget";
  h

(* ---- enumeration ---- *)

let explore ~sched:timeline sc =
  let progs = Array.map Array.of_list sc.Model.sc_programs in
  let n = Model.sources sc in
  let total = Array.fold_left (fun a p -> a + Array.length p) 0 progs in
  let idx = Array.make n 0 in
  let sched = Array.make (max total 1) 0 in
  let schedules = ref 0 and pruned = ref 0 and ops = ref 0 in
  let invalidations = ref 0 in
  let viol = ref None in
  let rec dfs pos =
    if !viol <> None then ()
    else if pos = total then begin
      incr schedules;
      ops := !ops + total;
      let schedule = Array.to_list (Array.sub sched 0 total) in
      let h = run_schedule ~sched:timeline sc schedule in
      invalidations := !invalidations + Harness.shim_invalidations h;
      match Harness.violation h with
      | Some v -> viol := Some (v, Harness.trace h, schedule)
      | None -> ()
    end
    else
      for s = 0 to n - 1 do
        if !viol = None && idx.(s) < Array.length progs.(s) then begin
          let prune =
            pos > 0
            &&
            let j = sched.(pos - 1) in
            j > s
            && independent sc
                 (j, progs.(j).(idx.(j) - 1))
                 (s, progs.(s).(idx.(s)))
          in
          if prune then incr pruned
          else begin
            sched.(pos) <- s;
            idx.(s) <- idx.(s) + 1;
            dfs (pos + 1);
            idx.(s) <- idx.(s) - 1
          end
        end
      done
  in
  dfs 0;
  { o_stats =
      { x_schedules = !schedules; x_pruned = !pruned; x_ops = !ops;
        x_invalidations = !invalidations };
    o_violation = !viol }

(* ---- counterexample minimization ----

   Greedy delta-debugging on the (scenario, schedule) pair: truncate after
   the violating step, then repeatedly try dropping one schedule position
   (removing the op from its source's program too) and keep any variant that
   still violates the same property.  Every candidate is a full deterministic
   re-execution, so the result is exact, and [of_token]-valid by
   construction. *)

let reproduce ~sched sc schedule =
  Harness.violation (run_schedule ~sched sc schedule)

let drop_pos sc schedule k =
  let src = List.nth schedule k in
  let occ =
    List.filteri (fun i s -> i < k && s = src) schedule |> List.length
  in
  let progs = Array.copy sc.Model.sc_programs in
  progs.(src) <- List.filteri (fun i _ -> i <> occ) progs.(src);
  ( { sc with Model.sc_programs = progs },
    List.filteri (fun i _ -> i <> k) schedule )

let drop_grant sc g =
  { sc with
    Model.sc_grants = List.filter (fun g' -> g' <> g) sc.Model.sc_grants }

let minimize sc schedule =
  let reproduce = reproduce ~sched:(Ccsim.Sched.create ()) in
  match reproduce sc schedule with
  | None -> (sc, schedule) (* not reproducible: return untouched *)
  | Some v0 ->
      let prop = v0.Harness.v_prop in
      let still_fails sc sched =
        match reproduce sc sched with
        | Some v -> v.Harness.v_prop = prop
        | None -> false
      in
      (* ops after the violating step are dead weight *)
      let sc, schedule =
        let keep = v0.Harness.v_step + 1 in
        let truncated = List.filteri (fun i _ -> i < keep) schedule in
        let used = Array.make (Array.length sc.Model.sc_programs) 0 in
        List.iter (fun s -> used.(s) <- used.(s) + 1) truncated;
        let progs =
          Array.mapi
            (fun s ops -> List.filteri (fun i _ -> i < used.(s)) ops)
            sc.Model.sc_programs
        in
        ({ sc with Model.sc_programs = progs }, truncated)
      in
      (* one pass from the tail so earlier indices stay valid *)
      let sc = ref sc and schedule = ref schedule in
      let changed = ref true in
      while !changed do
        changed := false;
        for k = List.length !schedule - 1 downto 0 do
          if List.length !schedule > 1 then begin
            let sc', sched' = drop_pos !sc !schedule k in
            if still_fails sc' sched' then begin
              sc := sc';
              schedule := sched';
              changed := true
            end
          end
        done;
        List.iter
          (fun g ->
            let sc' = drop_grant !sc g in
            if still_fails sc' !schedule then begin
              sc := sc';
              changed := true
            end)
          (!sc).Model.sc_grants
      done;
      (!sc, !schedule)
