module Sched = Ccsim.Sched
module Checker = Capchecker.Checker
module Table = Capchecker.Table

type params = {
  sv_config : Soc.Config.t;
  sv_instances : int;
  sv_cc_entries : int;
  sv_topology : Bus.Topology.kind;
  sv_checkers : Capchecker.Shim.checking;
  sv_policy : Admission.policy;
  sv_workload : Workload.params;
  sv_util_pct : int;
  sv_jobs : int;
  sv_check_invariants : bool;
}

let default_params ?(seed = 1) ~tenants ~requests () =
  {
    sv_config = Soc.Config.ccpu_caccel;
    sv_instances = 8;
    sv_cc_entries = 256;
    sv_topology = Bus.Topology.Shared;
    sv_checkers = Capchecker.Shim.Central;
    sv_policy = Admission.default ~instances:8;
    sv_workload =
      {
        Workload.tenants;
        requests;
        seed;
        mean_gap = 0;
        ramp = 0;
        churn_pct = 10;
        mix = Workload.default_mix;
        scales = Workload.default_scales;
      };
    sv_util_pct = 80;
    sv_jobs = 1;
    sv_check_invariants = false;
  }

(* Kernel profiles come from memo-eligible runs, so the whole-run memo
   already profiles each kernel once per process. *)
let profiles_for ~jobs ~topology ~checkers config names =
  Ccsim.Pool.map ~jobs
    (fun n ->
      ( n,
        Soc.Run.service_profile ~topology ~checkers config
          (Machsuite.Registry.find n) ))
    names

(* Mean uncontended service time of the mix (integer arithmetic only), used
   to derive the open-loop gap hitting [util_pct] accelerator utilization. *)
let mean_service_cycles profiles (wl : Workload.params) =
  let wsum l = List.fold_left (fun acc (_, w) -> acc + w) 0 l in
  (* E[scale] kept as a ratio and divided last — truncating it to an int
     would understate the offered load by up to 2x and push the derived gap
     past saturation. *)
  let scale_num =
    List.fold_left (fun acc (s, w) -> acc + (s * w)) 0 wl.scales
  in
  let scale_den = wsum wl.scales in
  let num =
    List.fold_left
      (fun acc (name, w) ->
        let p = List.assoc name profiles in
        acc
        + w
          * (p.Soc.Run.sv_alloc
            + ((p.Soc.Run.sv_init + p.Soc.Run.sv_compute) * scale_num
              / scale_den)
            + p.Soc.Run.sv_teardown))
      0 wl.mix
  in
  max 1 (num / wsum wl.mix)

(* Same-cycle lanes on the loop's scheduler (all below the wheel's rank
   count): arrivals, then the loop's own runtime events (CPU pump, service
   completion, teardown release), then requests, then departures.  Every
   report depends on this order.  It holds because workload and runtime
   events never share a lane, workload events enter their lanes in schedule
   order, and runtime events keep their scheduling (seq) order. *)
let lane_runtime = 1

let lane_of = function
  | Workload.Tenant_arrive _ -> 0
  | Workload.Request _ -> 2
  | Workload.Tenant_depart _ -> 3

(* One in-flight request. *)
type rq = {
  rq_tenant : int;
  rq_bench : string;
  rq_scale : int;
  rq_arrival : int;
  mutable rq_cancelled : bool;
  mutable rq_handle : Driver.handle option;
  mutable rq_slot : int;  (* accelerator instance while in service, else -1 *)
}

type totals = {
  mutable c_requests : int;
  mutable c_admitted : int;
  mutable c_completed : int;
  mutable c_rejected_gone : int;
  mutable c_rejected_inflight : int;
  mutable c_rejected_table : int;
  mutable c_cancelled : int;
  mutable c_cpu_fallbacks : int;
  mutable c_root_installs : int;
  mutable c_root_reinstalls : int;
  mutable c_root_evictions : int;
  mutable c_root_stalls : int;
  mutable c_arrived : int;
  mutable c_departed : int;
}

let run p =
  let wl0 = p.sv_workload in
  if p.sv_instances <= 0 then invalid_arg "Loop.run: instances must be >= 1";
  if p.sv_util_pct < 1 || p.sv_util_pct > 100 then
    invalid_arg "Loop.run: util_pct outside [1, 100]";
  if p.sv_policy.Admission.max_inflight < 1 then
    invalid_arg "Loop.run: max_inflight must be >= 1";
  if
    p.sv_policy.Admission.watermark_pct < 1
    || p.sv_policy.Admission.watermark_pct > 100
  then invalid_arg "Loop.run: watermark_pct outside [1, 100]";
  if p.sv_policy.Admission.spill_depth < 0 then
    invalid_arg "Loop.run: spill_depth must be >= 0";
  if wl0.Workload.mean_gap < 0 then
    invalid_arg "Loop.run: mean_gap must be >= 0";
  (match p.sv_config with
  | Soc.Config.Hetero
      { protection = Soc.Config.Prot_cc_fine | Soc.Config.Prot_cc_coarse; _ }
    ->
      ()
  | _ ->
      invalid_arg
        "Loop.run: service mode needs a CapChecker configuration \
         (ccpu+caccel or ccpu+caccel(coarse))");
  let bench_names = List.sort_uniq compare (List.map fst wl0.Workload.mix) in
  let benches =
    List.map (fun n -> (n, Machsuite.Registry.find n)) bench_names
  in
  let profiles =
    profiles_for ~jobs:p.sv_jobs ~topology:p.sv_topology ~checkers:p.sv_checkers
      p.sv_config bench_names
  in
  let gap =
    if wl0.Workload.mean_gap > 0 then wl0.Workload.mean_gap
    else
      max 1
        (mean_service_cycles profiles wl0
         * 100
         / (p.sv_instances * p.sv_util_pct))
  in
  let ramp =
    if wl0.Workload.ramp > 0 || wl0.Workload.requests = 0 then wl0.Workload.ramp
    else gap * wl0.Workload.requests / 10
  in
  let wl = { wl0 with Workload.mean_gap = gap; ramp } in
  let stream = Workload.stream wl in
  let sys =
    Soc.System.create ~instances:p.sv_instances ~cc_entries:p.sv_cc_entries
      p.sv_config
  in
  let checker = Option.get sys.Soc.System.checker in
  let driver = Option.get sys.Soc.System.driver in
  let tbl = Checker.table checker in
  let registry =
    Tenant.make_registry ~tenants:wl.Workload.tenants ~instances:p.sv_instances
  in
  let sched = Sched.create () in
  let metrics = Obs.Metrics.create () in
  let totals =
    {
      c_requests = 0; c_admitted = 0; c_completed = 0; c_rejected_gone = 0;
      c_rejected_inflight = 0; c_rejected_table = 0; c_cancelled = 0;
      c_cpu_fallbacks = 0; c_root_installs = 0; c_root_reinstalls = 0;
      c_root_evictions = 0; c_root_stalls = 0; c_arrived = 0; c_departed = 0;
    }
  in
  let wait_q : rq Queue.t = Queue.create () in
  let cpu_q : rq Queue.t = Queue.create () in
  let cpu_current : rq option ref = ref None in
  let busy_slots = ref 0 in
  let serving : rq option array = Array.make p.sv_instances None in
  let fail fmt = Printf.ksprintf failwith ("Loop.run: invariant: " ^^ fmt) in
  (* Root install/evict traffic crosses the capability interconnect like any
     other table maintenance; the cycles accumulate here and are charged to
     the next dispatched request — the one whose admission forced the
     churn.  (At realistic kernel service times this is a small correction;
     the counters carry the pressure story.) *)
  let root_install_cycles = Checker.install_cycles sys.Soc.System.bus in
  let root_evict_cycles = Checker.evict_cycles sys.Soc.System.bus in
  let pending_mmio = ref 0 in
  (* Every completed request's latency, for the run-wide percentiles. *)
  let latencies = Samples.create () in
  let dispatched = ref 0 and checks = ref 0 in
  let assert_no_entries ~what ~task =
    if p.sv_check_invariants then
      Table.iter_live tbl (fun e ->
          if e.Table.task = task then
            fail "%s left a live table entry keyed to task %d" what task)
  in
  (* -- compartment-root residency ------------------------------------- *)
  (* Resident roots in LRU reclaim order.  Every change below to a
     resident tenant's [inflight] or [last_active] is followed by
     [Root_lru.update]. *)
  let roots = Root_lru.create registry in
  let evict_root (tn : Tenant.t) =
    ignore (Checker.evict checker ~task:tn.Tenant.task_key ~obj:0);
    tn.Tenant.root_resident <- false;
    Root_lru.remove roots tn.Tenant.id;
    pending_mmio := !pending_mmio + root_evict_cycles;
    totals.c_root_evictions <- totals.c_root_evictions + 1
  in
  let rec ensure_root (tn : Tenant.t) =
    if not tn.Tenant.root_resident then
      match Checker.install checker ~task:tn.Tenant.task_key ~obj:0 Cheri.Cap.root with
      | Table.Installed _ ->
          tn.Tenant.root_resident <- true;
          Root_lru.add roots tn.Tenant.id;
          tn.Tenant.root_installs <- tn.Tenant.root_installs + 1;
          pending_mmio := !pending_mmio + root_install_cycles;
          totals.c_root_installs <- totals.c_root_installs + 1;
          if tn.Tenant.root_installs > 1 then
            totals.c_root_reinstalls <- totals.c_root_reinstalls + 1
      | Table.Table_full -> (
          match Root_lru.victim roots ~idle_only:false ~exclude:tn.Tenant.id with
          | Some v ->
              evict_root v;
              ensure_root tn
          | None ->
              (* Table full of non-root (driver) entries: serve the request
                 anyway; the compartment root returns on a later request. *)
              totals.c_root_stalls <- totals.c_root_stalls + 1)
      | Table.Rejected_untagged ->
          fail "root capability rejected as untagged"
  in
  (* -- completion bookkeeping ----------------------------------------- *)
  let finish (rq : rq) =
    let tn = registry.(rq.rq_tenant) in
    let lat = Sched.now sched - rq.rq_arrival in
    tn.Tenant.inflight <- tn.Tenant.inflight - 1;
    Root_lru.update roots tn.Tenant.id;
    Tenant.record_latency tn lat;
    Samples.push latencies lat;
    totals.c_completed <- totals.c_completed + 1
  in
  let cancel (rq : rq) =
    rq.rq_cancelled <- true;
    let tn = registry.(rq.rq_tenant) in
    tn.Tenant.inflight <- tn.Tenant.inflight - 1;
    Root_lru.update roots tn.Tenant.id;
    tn.Tenant.cancelled <- tn.Tenant.cancelled + 1;
    totals.c_cancelled <- totals.c_cancelled + 1
  in
  (* -- CPU fallback path (one CPU serving spilled requests in order) --- *)
  let rec pump_cpu () =
    if !cpu_current = None && not (Queue.is_empty cpu_q) then begin
      let rq = Queue.pop cpu_q in
      if rq.rq_cancelled then pump_cpu ()
      else begin
        cpu_current := Some rq;
        let prof = List.assoc rq.rq_bench profiles in
        let busy = prof.Soc.Run.sv_cpu_wall * rq.rq_scale in
        Sched.at_rank sched ~cycle:(Sched.now sched + busy) ~rank:lane_runtime
          (fun () ->
            cpu_current := None;
            if not rq.rq_cancelled then finish rq;
            pump_cpu ())
      end
    end
  in
  let route_cpu (rq : rq) =
    let tn = registry.(rq.rq_tenant) in
    tn.Tenant.cpu_fallbacks <- tn.Tenant.cpu_fallbacks + 1;
    totals.c_cpu_fallbacks <- totals.c_cpu_fallbacks + 1;
    Queue.push rq cpu_q;
    pump_cpu ()
  in
  (* -- accelerator path ----------------------------------------------- *)
  let rec try_dispatch () =
    if !busy_slots < p.sv_instances && not (Queue.is_empty wait_q) then begin
      let rq = Queue.pop wait_q in
      if rq.rq_cancelled then try_dispatch ()
      else begin
        dispatch rq;
        try_dispatch ()
      end
    end
  and dispatch (rq : rq) =
    let tn = registry.(rq.rq_tenant) in
    ensure_root tn;
    let bench = List.assoc rq.rq_bench benches in
    let prof = List.assoc rq.rq_bench profiles in
    (* Driver install pressure can also hit Table_full; evict victim roots
       until it fits or no root is left to evict (then spill to the CPU —
       never fail the admitted request). *)
    let rec try_alloc () =
      match Driver.allocate driver bench.Machsuite.Bench_def.kernel with
      | Ok a -> Some a
      | Error _ -> (
          match Root_lru.victim roots ~idle_only:false ~exclude:(-1) with
          | Some v ->
              evict_root v;
              try_alloc ()
          | None -> None)
    in
    match try_alloc () with
    | None -> route_cpu rq
    | Some (a : Driver.allocated) ->
        let slot = a.Driver.handle.Driver.task_id in
        rq.rq_handle <- Some a.Driver.handle;
        rq.rq_slot <- slot;
        serving.(slot) <- Some rq;
        incr busy_slots;
        let service =
          a.Driver.cycles + !pending_mmio
          + ((prof.Soc.Run.sv_init + prof.Soc.Run.sv_compute) * rq.rq_scale)
        in
        pending_mmio := 0;
        incr dispatched;
        checks := !checks + (prof.Soc.Run.sv_checks * rq.rq_scale);
        Sched.at_rank sched ~cycle:(Sched.now sched + service)
          ~rank:lane_runtime (fun () -> complete rq)
  and complete (rq : rq) =
    (* Cancelled in-service requests were rolled back at departure time;
       their stale completion event is a no-op. *)
    if not rq.rq_cancelled then begin
      let h = Option.get rq.rq_handle in
      let report = Driver.deallocate driver h ~denied:None in
      assert_no_entries ~what:"request teardown" ~task:h.Driver.task_id;
      rq.rq_handle <- None;
      serving.(rq.rq_slot) <- None;
      rq.rq_slot <- -1;
      (* The slot stays gated while the CPU runs the teardown sequence; the
         driver itself already freed the instance, which is fine — our gate
         is the stricter one. *)
      Sched.at_rank sched
        ~cycle:(Sched.now sched + report.Driver.cycles)
        ~rank:lane_runtime
        (fun () ->
          decr busy_slots;
          finish rq;
          try_dispatch ())
    end
  in
  (* -- tenant departure: one-step compartment revocation --------------- *)
  let rollback (rq : rq) =
    cancel rq;
    match rq.rq_handle with
    | Some h ->
        let _report = Driver.deallocate driver h ~denied:None in
        assert_no_entries ~what:"departure rollback" ~task:h.Driver.task_id;
        rq.rq_handle <- None;
        serving.(rq.rq_slot) <- None;
        rq.rq_slot <- -1;
        decr busy_slots
    | None -> ()
  in
  let depart (tn : Tenant.t) =
    if tn.Tenant.state = Tenant.Active then begin
      (* Reject-first: from this cycle on no new request can be admitted,
         then void everything already admitted, then revoke the compartment
         — teardown is one atomic step on the timeline. *)
      tn.Tenant.state <- Tenant.Departed;
      Queue.iter
        (fun (rq : rq) ->
          if rq.rq_tenant = tn.Tenant.id && not rq.rq_cancelled then cancel rq)
        wait_q;
      Queue.iter
        (fun (rq : rq) ->
          if rq.rq_tenant = tn.Tenant.id && not rq.rq_cancelled then cancel rq)
        cpu_q;
      (match !cpu_current with
      | Some rq when rq.rq_tenant = tn.Tenant.id && not rq.rq_cancelled ->
          cancel rq
      | _ -> ());
      Array.iter
        (function
          | Some (rq : rq) when rq.rq_tenant = tn.Tenant.id -> rollback rq
          | _ -> ())
        serving;
      (* Drop the voided requests from the queues now, so a drained system
         really has empty queues (cancelled entries must not linger). *)
      let purge q =
        let keep = Queue.create () in
        Queue.iter
          (fun (rq : rq) -> if not rq.rq_cancelled then Queue.push rq keep)
          q;
        Queue.clear q;
        Queue.transfer keep q
      in
      purge wait_q;
      purge cpu_q;
      Root_lru.remove roots tn.Tenant.id;
      ignore (Tenant.teardown checker tn);
      assert_no_entries ~what:"tenant teardown" ~task:tn.Tenant.task_key;
      totals.c_departed <- totals.c_departed + 1;
      try_dispatch ()
    end
    else tn.Tenant.state <- Tenant.Departed
  in
  (* -- request admission ----------------------------------------------- *)
  (* Idle compartment roots are reclaimable cache state, not committed work:
     before the watermark turns traffic away, evict least-recently-active
     idle roots until occupancy is back under it.  Only entries pinned by
     in-flight work (driver entries and busy tenants' roots) can then still
     trip the watermark.  This reclaim — and the reinstall it forces on the
     victim's next request — is the eviction thrash the report measures once
     the tenant population outgrows the table. *)
  let reclaim_for_watermark () =
    let cap = Table.capacity tbl in
    let wm = p.sv_policy.Admission.watermark_pct in
    if wm < 100 then begin
      let making_room = ref true in
      while !making_room && Table.live_count tbl * 100 >= wm * cap do
        match Root_lru.victim roots ~idle_only:true ~exclude:(-1) with
        | Some v -> evict_root v
        | None -> making_room := false
      done
    end
  in
  let handle_request ~tenant ~bench ~scale =
    totals.c_requests <- totals.c_requests + 1;
    let tn = registry.(tenant) in
    reclaim_for_watermark ();
    match
      Admission.decide p.sv_policy ~table_live:(Table.live_count tbl)
        ~capacity:(Table.capacity tbl) tn
    with
    | Error reason ->
        tn.Tenant.rejected <- tn.Tenant.rejected + 1;
        (match reason with
        | Admission.Gone ->
            totals.c_rejected_gone <- totals.c_rejected_gone + 1
        | Admission.Inflight ->
            totals.c_rejected_inflight <- totals.c_rejected_inflight + 1
        | Admission.Table ->
            totals.c_rejected_table <- totals.c_rejected_table + 1)
    | Ok () ->
        let now = Sched.now sched in
        tn.Tenant.admitted <- tn.Tenant.admitted + 1;
        tn.Tenant.inflight <- tn.Tenant.inflight + 1;
        if tn.Tenant.inflight > tn.Tenant.peak_inflight then
          tn.Tenant.peak_inflight <- tn.Tenant.inflight;
        if
          p.sv_check_invariants
          && tn.Tenant.inflight > p.sv_policy.Admission.max_inflight
        then fail "tenant %d exceeded max_inflight" tn.Tenant.id;
        tn.Tenant.last_active <- now;
        Root_lru.update roots tn.Tenant.id;
        totals.c_admitted <- totals.c_admitted + 1;
        let rq =
          {
            rq_tenant = tenant; rq_bench = bench; rq_scale = scale;
            rq_arrival = now; rq_cancelled = false; rq_handle = None;
            rq_slot = -1;
          }
        in
        if !busy_slots < p.sv_instances && Queue.is_empty wait_q then
          dispatch rq
        else if Queue.length wait_q >= p.sv_policy.Admission.spill_depth then
          route_cpu rq
        else Queue.push rq wait_q
  in
  (* -- feed the workload through one cursor and run ------------------------ *)
  (* Only the next workload event is ever pending: firing event i schedules
     event i+1 (never earlier, as the stream yields (at, rank) order) before
     running i's action, so the scheduler holds the in-flight runtime events
     plus one workload event instead of the whole schedule. *)
  let fire_event = function
    | Workload.Tenant_arrive id ->
        let tn = registry.(id) in
        if tn.Tenant.state = Tenant.Pending then begin
          tn.Tenant.state <- Tenant.Active;
          totals.c_arrived <- totals.c_arrived + 1
        end
    | Workload.Tenant_depart id -> depart registry.(id)
    | Workload.Request { rq = _; tenant; bench; scale } ->
        handle_request ~tenant ~bench ~scale
  in
  let pending = ref (Workload.next stream) in
  let rec fire () =
    match !pending with
    | Some { Workload.ev; _ } ->
        pending := Workload.next stream;
        schedule_next ();
        fire_event ev
    | None -> ()
  and schedule_next () =
    match !pending with
    | Some { Workload.at; ev } ->
        Sched.at_rank sched ~cycle:at ~rank:(lane_of ev) fire
    | None -> ()
  in
  schedule_next ();
  Sched.run sched;
  let makespan = Sched.now sched in
  if p.sv_check_invariants then begin
    if not (Queue.is_empty wait_q) then fail "wait queue not drained";
    if not (Queue.is_empty cpu_q) then fail "cpu queue not drained";
    if !cpu_current <> None then fail "cpu still busy after drain";
    if !busy_slots <> 0 then fail "%d slots still busy after drain" !busy_slots
  end;
  (* Snapshot per-tenant rows before the final cleanup below, so [departed]
     and [epoch] report mid-run churn, not the end-of-run teardown. *)
  let rows = Array.to_list (Array.map Report.row_of_tenant registry) in
  let p50, p99, max_lat = Samples.summary latencies in
  (* Final teardown: revoke every still-active compartment so the run ends
     with an empty table (departed tenants already hold nothing). *)
  Array.iter
    (fun (tn : Tenant.t) ->
      if tn.Tenant.state <> Tenant.Departed then ignore (Tenant.teardown checker tn))
    registry;
  if p.sv_check_invariants && Table.live_count tbl <> 0 then
    fail "%d live table entries after final teardown" (Table.live_count tbl);
  (* The loop's counters, added once at the end: a name appears exactly
     when its event happened at least once. *)
  let count name n = if n > 0 then Obs.Metrics.add metrics name n in
  count "serve.root_evictions" totals.c_root_evictions;
  count "serve.root_reinstalls" totals.c_root_reinstalls;
  count "serve.cpu_fallbacks" totals.c_cpu_fallbacks;
  count "serve.departures" totals.c_departed;
  let reject r = "serve.reject." ^ Admission.reason_label r in
  count (reject Admission.Gone) totals.c_rejected_gone;
  count (reject Admission.Inflight) totals.c_rejected_inflight;
  count (reject Admission.Table) totals.c_rejected_table;
  if !dispatched > 0 then Obs.Metrics.add metrics "serve.checks" !checks;
  Checker.observe_table checker ~into:metrics;
  {
    Report.rp_config = Soc.Config.label p.sv_config;
    rp_seed = wl.Workload.seed;
    rp_tenants = wl.Workload.tenants;
    rp_requests = wl.Workload.requests;
    rp_instances = p.sv_instances;
    rp_cc_entries = p.sv_cc_entries;
    rp_gap = gap;
    rp_makespan = makespan;
    rp_totals =
      {
        Report.t_requests = totals.c_requests;
        t_admitted = totals.c_admitted;
        t_completed = totals.c_completed;
        t_rejected_gone = totals.c_rejected_gone;
        t_rejected_inflight = totals.c_rejected_inflight;
        t_rejected_table = totals.c_rejected_table;
        t_cancelled = totals.c_cancelled;
        t_cpu_fallbacks = totals.c_cpu_fallbacks;
        t_root_installs = totals.c_root_installs;
        t_root_reinstalls = totals.c_root_reinstalls;
        t_root_evictions = totals.c_root_evictions;
        t_root_stalls = totals.c_root_stalls;
        t_arrived = totals.c_arrived;
        t_departed = totals.c_departed;
      };
    rp_table = Checker.table_stats checker;
    rp_p50 = p50;
    rp_p99 = p99;
    rp_max = max_lat;
    rp_rows = rows;
    rp_metrics = Obs.Metrics.counters metrics;
  }
