(* lib/serve: the multi-tenant service mode.

   Covers the subsystem's contract: the seeded workload is deterministic,
   admission invariants hold over a full run (in-flight bounds, bookkeeping
   conservation), tenant compartments are isolated in the checker table and
   torn down with nothing dangling (the 1000-tenant churn regression), the
   report never raises on zero-request tenants, and the report is
   byte-identical across --jobs values. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Small, fast parameter sets: the mix is restricted to the two cheapest
   kernels so profiling (cached process-wide after the first test) stays a
   fraction of a second. *)
let small_mix = [ ("aes", 2); ("kmp", 1) ]

let params ?(tenants = 30) ?(requests = 300) ?(seed = 11) ?(churn = 20)
    ?(cc_entries = 256) () =
  let base = Serve.Loop.default_params ~seed ~tenants ~requests () in
  {
    base with
    Serve.Loop.sv_cc_entries = cc_entries;
    sv_check_invariants = true;
    sv_workload =
      {
        base.Serve.Loop.sv_workload with
        Serve.Workload.churn_pct = churn;
        mix = small_mix;
      };
  }

(* -- workload ------------------------------------------------------- *)

let wl_params seed =
  {
    Serve.Workload.tenants = 40;
    requests = 500;
    seed;
    mean_gap = 1000;
    ramp = 20_000;
    churn_pct = 30;
    mix = small_mix;
    scales = Serve.Workload.default_scales;
  }

let test_workload_deterministic () =
  let a = Serve.Workload.generate (wl_params 7) in
  let b = Serve.Workload.generate (wl_params 7) in
  checkb "same seed, same schedule" true (a = b);
  let c = Serve.Workload.generate (wl_params 8) in
  checkb "different seed, different schedule" false (a = c)

let test_workload_structure () =
  let p = wl_params 7 in
  let evs = Serve.Workload.generate p in
  let sorted =
    List.for_all2
      (fun a b ->
        a.Serve.Workload.at < b.Serve.Workload.at
        || (a.at = b.at
           && Serve.Workload.ev_rank a.ev <= Serve.Workload.ev_rank b.ev))
      (List.filteri (fun i _ -> i < List.length evs - 1) evs)
      (List.tl evs)
  in
  checkb "sorted by (cycle, rank)" true sorted;
  (* Same-cycle, same-rank events keep draw order: tenant id order for
     arrivals and departures, request number order for requests. *)
  let id = function
    | Serve.Workload.Tenant_arrive i | Serve.Workload.Tenant_depart i -> i
    | Serve.Workload.Request { rq; _ } -> rq
  in
  let rec ties_in_draw_order = function
    | (a : Serve.Workload.timed) :: (b :: _ as rest) ->
        (a.at <> b.at
        || Serve.Workload.ev_rank a.ev <> Serve.Workload.ev_rank b.ev
        || id a.ev < id b.ev)
        && ties_in_draw_order rest
    | [ _ ] | [] -> true
  in
  checkb "ties in draw order" true (ties_in_draw_order evs);
  checkb "ties in draw order (every arrival at cycle 0)" true
    (ties_in_draw_order
       (Serve.Workload.generate { p with Serve.Workload.ramp = 0; churn_pct = 100 }));
  let count f = List.length (List.filter f evs) in
  checki "one arrival per tenant" p.Serve.Workload.tenants
    (count (fun e ->
         match e.Serve.Workload.ev with
         | Serve.Workload.Tenant_arrive _ -> true
         | _ -> false));
  checki "all requests present" p.Serve.Workload.requests
    (count (fun e ->
         match e.Serve.Workload.ev with
         | Serve.Workload.Request _ -> true
         | _ -> false));
  List.iter
    (fun { Serve.Workload.ev; _ } ->
      match ev with
      | Serve.Workload.Request { tenant; scale; bench; _ } ->
          checkb "tenant in range" true
            (tenant >= 0 && tenant < p.Serve.Workload.tenants);
          checkb "scale from the scale set" true
            (List.mem_assoc scale p.Serve.Workload.scales);
          checkb "bench from the mix" true (List.mem_assoc bench small_mix)
      | _ -> ())
    evs

(* -- admission ------------------------------------------------------ *)

let test_admission_decide () =
  let policy =
    { Serve.Admission.max_inflight = 2; watermark_pct = 90; spill_depth = 4 }
  in
  let reg = Serve.Tenant.make_registry ~tenants:1 ~instances:8 in
  let tn = reg.(0) in
  let decide ~live =
    Serve.Admission.decide policy ~table_live:live ~capacity:100 tn
  in
  checkb "pending tenant is Gone" true (decide ~live:0 = Error Serve.Admission.Gone);
  tn.Serve.Tenant.state <- Serve.Tenant.Active;
  checkb "active tenant admitted" true (decide ~live:0 = Ok ());
  tn.Serve.Tenant.inflight <- 2;
  checkb "at the in-flight bound" true
    (decide ~live:0 = Error Serve.Admission.Inflight);
  tn.Serve.Tenant.inflight <- 0;
  checkb "at the watermark" true
    (decide ~live:90 = Error Serve.Admission.Table);
  checkb "below the watermark" true (decide ~live:89 = Ok ());
  tn.Serve.Tenant.state <- Serve.Tenant.Departed;
  checkb "departed tenant is Gone" true
    (decide ~live:0 = Error Serve.Admission.Gone)

(* -- full-run invariants -------------------------------------------- *)

(* The loop itself asserts isolation and occupancy invariants as it runs
   (sv_check_invariants); this test layers the bookkeeping conservation laws
   over the report. *)
let test_run_invariants () =
  let p = params () in
  let r = Serve.Loop.run p in
  let tt = r.Serve.Report.rp_totals in
  checki "every request accounted" tt.Serve.Report.t_requests
    (tt.Serve.Report.t_admitted + tt.Serve.Report.t_rejected_gone
    + tt.Serve.Report.t_rejected_inflight + tt.Serve.Report.t_rejected_table);
  checki "every admission resolves" tt.Serve.Report.t_admitted
    (tt.Serve.Report.t_completed + tt.Serve.Report.t_cancelled);
  checkb "some requests completed" true (tt.Serve.Report.t_completed > 0);
  checki "per-tenant rows cover every tenant" p.Serve.Loop.sv_workload.Serve.Workload.tenants
    (List.length r.Serve.Report.rp_rows);
  let sum f = List.fold_left (fun acc row -> acc + f row) 0 r.Serve.Report.rp_rows in
  checki "rows sum to admitted" tt.Serve.Report.t_admitted
    (sum (fun row -> row.Serve.Report.tr_admitted));
  checki "rows sum to completed" tt.Serve.Report.t_completed
    (sum (fun row -> row.Serve.Report.tr_completed));
  checki "rows sum to cancelled" tt.Serve.Report.t_cancelled
    (sum (fun row -> row.Serve.Report.tr_cancelled));
  checki "table drained at end" 0 r.Serve.Report.rp_table.Capchecker.Table.st_live;
  checkb "table saw real pressure" true
    (r.Serve.Report.rp_table.Capchecker.Table.st_installs > 0)

let test_inflight_bound () =
  let p = params ~tenants:6 ~requests:400 () in
  (* A tight bound plus invariant checking inside the loop: the loop itself
     fails if a tenant ever exceeds max_inflight. *)
  let p =
    { p with Serve.Loop.sv_policy = { p.Serve.Loop.sv_policy with Serve.Admission.max_inflight = 2 } }
  in
  let r = Serve.Loop.run p in
  checkb "bound generated rejections" true
    (r.Serve.Report.rp_totals.Serve.Report.t_rejected_inflight > 0)

(* -- tenant teardown / churn regression ------------------------------ *)

(* Churn 1000 tenants through a 256-entry table: departures roll back driver
   allocations and revoke compartment roots in one step, so the live-entry
   count must return to zero (asserted inside the loop at every teardown and
   again, via the report, here). *)
let test_churn_1000_tenants_live_zero () =
  let p = params ~tenants:1000 ~requests:2000 ~seed:5 ~churn:60 () in
  let r = Serve.Loop.run p in
  let tt = r.Serve.Report.rp_totals in
  checki "live entries back to zero" 0
    r.Serve.Report.rp_table.Capchecker.Table.st_live;
  checkb "churn happened" true (tt.Serve.Report.t_departed > 400);
  checkb "compartments thrashed" true (tt.Serve.Report.t_root_evictions > 0);
  checki "install/evict balance" r.Serve.Report.rp_table.Capchecker.Table.st_installs
    r.Serve.Report.rp_table.Capchecker.Table.st_evictions

(* Zero-request tenants produce a documented all-zero latency row, not an
   Invalid_argument from an empty percentile sample. *)
let test_zero_request_row () =
  let p = params ~tenants:300 ~requests:20 () in
  let r = Serve.Loop.run p in
  let zero_rows =
    List.filter
      (fun row -> row.Serve.Report.tr_completed = 0)
      r.Serve.Report.rp_rows
  in
  checkb "plenty of idle tenants" true (List.length zero_rows > 200);
  List.iter
    (fun row ->
      checki "idle p50 is 0" 0 row.Serve.Report.tr_p50;
      checki "idle p99 is 0" 0 row.Serve.Report.tr_p99;
      checki "idle max is 0" 0 row.Serve.Report.tr_max)
    zero_rows

(* -- determinism ----------------------------------------------------- *)

let test_repeat_seed_byte_identical () =
  let a = Serve.Report.to_string (Serve.Loop.run (params ())) in
  let b = Serve.Report.to_string (Serve.Loop.run (params ())) in
  checkb "repeat run byte-identical" true (String.equal a b);
  let c = Serve.Report.to_string (Serve.Loop.run (params ~seed:12 ())) in
  checkb "different seed differs" false (String.equal a c)

let test_jobs_parity () =
  let serial = Serve.Report.to_string (Serve.Loop.run (params ())) in
  List.iter
    (fun jobs ->
      let p = { (params ()) with Serve.Loop.sv_jobs = jobs } in
      let par = Serve.Report.to_string (Serve.Loop.run p) in
      checkb
        (Printf.sprintf "jobs:%d byte-identical to serial" jobs)
        true (String.equal serial par))
    [ 2; 4 ]

(* Out-of-range policy and gap values, and configs without a fine or coarse
   CapChecker, are refused up front, not run as a silently different service
   (a watermark of 0 or below would reject every request; a negative spill
   depth would spill every one). *)
let test_params_refused () =
  let refused what p =
    checkb what true
      (match Serve.Loop.run p with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  let with_policy f =
    let p = params () in
    { p with Serve.Loop.sv_policy = f p.Serve.Loop.sv_policy }
  in
  refused "watermark 0"
    (with_policy (fun a -> { a with Serve.Admission.watermark_pct = 0 }));
  refused "watermark -5"
    (with_policy (fun a -> { a with Serve.Admission.watermark_pct = -5 }));
  refused "watermark 101"
    (with_policy (fun a -> { a with Serve.Admission.watermark_pct = 101 }));
  refused "spill -7"
    (with_policy (fun a -> { a with Serve.Admission.spill_depth = -7 }));
  let p = params () in
  refused "gap -3"
    { p with
      Serve.Loop.sv_workload =
        { p.Serve.Loop.sv_workload with Serve.Workload.mean_gap = -3 } };
  refused "cached CapChecker"
    { p with Serve.Loop.sv_config = Soc.Config.ccpu_caccel_cached };
  (* The edges of the ranges still run. *)
  let edge =
    with_policy (fun a ->
        { a with Serve.Admission.watermark_pct = 1; spill_depth = 0 })
  in
  checkb "watermark 1, spill 0 run" true
    ((Serve.Loop.run edge).Serve.Report.rp_totals.Serve.Report.t_requests > 0)

(* -- root reclaim order ----------------------------------------------- *)

(* The LRU victim order among resident compartment roots, pinned by report
   digest: tenants far outnumber table entries and a quarter or more of them
   churn, so nearly every admission reclaims a root.  The second case turns
   the watermark reclaim off, so roots are only evicted when an install
   finds the table full: busy roots are taken too, and when none is left the
   request stalls its root or spills to the CPU.  Any change to which root is
   evicted moves the report, and with it the digest. *)
let thrash_params ~seed ~watermark =
  let p = params ~tenants:600 ~requests:4000 ~seed ~churn:30 ~cc_entries:24 () in
  {
    p with
    Serve.Loop.sv_policy =
      { p.Serve.Loop.sv_policy with Serve.Admission.watermark_pct = watermark };
  }

let test_victim_order_pinned () =
  List.iter
    (fun (seed, watermark, digest) ->
      let r = Serve.Loop.run (thrash_params ~seed ~watermark) in
      checkb "roots were reclaimed" true
        (r.Serve.Report.rp_totals.Serve.Report.t_root_evictions > 1000);
      Alcotest.(check string)
        (Printf.sprintf "seed %d, watermark %d%% report digest" seed watermark)
        digest
        (Digest.to_hex (Digest.string (Serve.Report.to_string r))))
    [
      (3, 90, "8d061c50f8dd8526a6d9200f0194694d");
      (17, 100, "01d8b44ec72ddeb1959878b4e8934c8a");
    ]

(* The indexed heap against a scan of every tenant under the same order,
   over a seeded stream of residency, admission, completion and queries. *)
let test_root_lru_matches_scan () =
  let n = 40 in
  let reg = Serve.Tenant.make_registry ~tenants:n ~instances:8 in
  let roots = Serve.Root_lru.create reg in
  let scan ~idle_only ~exclude =
    Array.fold_left
      (fun best (tn : Serve.Tenant.t) ->
        if
          tn.Serve.Tenant.root_resident && tn.Serve.Tenant.id <> exclude
          && ((not idle_only) || tn.Serve.Tenant.inflight = 0)
        then
          let key (t : Serve.Tenant.t) =
            (t.Serve.Tenant.inflight > 0, t.Serve.Tenant.last_active,
             t.Serve.Tenant.id)
          in
          match best with
          | Some b when compare (key b) (key tn) <= 0 -> best
          | _ -> Some tn
        else best)
      None reg
  in
  let id_of = Option.map (fun (tn : Serve.Tenant.t) -> tn.Serve.Tenant.id) in
  let rng = Ccsim.Rng.create 42 in
  for step = 1 to 20_000 do
    let tn = reg.(Ccsim.Rng.int rng n) in
    let id = tn.Serve.Tenant.id in
    (match Ccsim.Rng.int rng 5 with
    | 0 ->
        tn.Serve.Tenant.root_resident <- true;
        Serve.Root_lru.add roots id
    | 1 ->
        tn.Serve.Tenant.root_resident <- false;
        Serve.Root_lru.remove roots id
    | 2 ->
        tn.Serve.Tenant.inflight <- tn.Serve.Tenant.inflight + 1;
        (* coarse clock: equal last_active values exercise the id tie-break *)
        tn.Serve.Tenant.last_active <- step / 50;
        Serve.Root_lru.update roots id
    | 3 when tn.Serve.Tenant.inflight > 0 ->
        tn.Serve.Tenant.inflight <- tn.Serve.Tenant.inflight - 1;
        Serve.Root_lru.update roots id
    | _ -> ());
    let idle_only = Ccsim.Rng.int rng 2 = 0 in
    let exclude = Ccsim.Rng.int rng (n + 1) - 1 in
    Alcotest.(check (option int))
      (Printf.sprintf "victim at step %d" step)
      (id_of (scan ~idle_only ~exclude))
      (id_of (Serve.Root_lru.victim roots ~idle_only ~exclude))
  done

(* Resource bound: 10^5 tenants cost what the live roots cost, not a scan
   of every tenant per eviction. *)
let test_100k_tenants () =
  let p =
    params ~tenants:100_000 ~requests:20_000 ~seed:9 ~churn:25 ()
  in
  let r = Serve.Loop.run p in
  checkb "roots were reclaimed" true
    (r.Serve.Report.rp_totals.Serve.Report.t_root_evictions > 0);
  checki "live entries back to zero" 0
    r.Serve.Report.rp_table.Capchecker.Table.st_live

(* -- satellite units -------------------------------------------------- *)

let test_percentile_int () =
  let xs = [ 5; 1; 9; 3; 7 ] in
  checki "p50 nearest-rank" 5 (Ccsim.Stats.percentile_int 0.5 xs);
  checki "p99 is the max here" 9 (Ccsim.Stats.percentile_int 0.99 xs);
  checki "p0 clamps to min" 1 (Ccsim.Stats.percentile_int 0.0 xs);
  (match Ccsim.Stats.percentile_int_opt 0.5 [] with
  | None -> ()
  | Some _ -> Alcotest.fail "empty sample must be None");
  checkb "raising variant raises" true
    (try
       ignore (Ccsim.Stats.percentile_int 0.5 []);
       false
     with Invalid_argument _ -> true)

(* The report's one-sort summary reads the same ranks as the shared
   nearest-rank percentile, on every sample size from 1 to 300. *)
let test_latency_summary () =
  checkb "empty is the zero row" true
    (Serve.Report.latency_summary [] = (0, 0, 0));
  let rng = Ccsim.Rng.create 5 in
  for n = 1 to 300 do
    let xs = List.init n (fun _ -> Ccsim.Rng.int rng 1000) in
    let p50, p99, max = Serve.Report.latency_summary xs in
    checki "p50" (Ccsim.Stats.percentile_int 0.5 xs) p50;
    checki "p99" (Ccsim.Stats.percentile_int 0.99 xs) p99;
    checki "max" (List.fold_left Int.max 0 xs) max
  done

let test_table_stats_counters () =
  let t = Capchecker.Table.create ~entries:2 in
  let cap = Cheri.Cap.root in
  let untagged = Cheri.Cap.clear_tag cap in
  ignore (Capchecker.Table.install t ~task:0 ~obj:0 cap);
  ignore (Capchecker.Table.install t ~task:0 ~obj:1 cap);
  let s = Capchecker.Table.stats t in
  checki "installs" 2 s.Capchecker.Table.st_installs;
  checki "live" 2 s.Capchecker.Table.st_live;
  checki "peak" 2 s.Capchecker.Table.st_peak;
  (* replace does not change occupancy *)
  ignore (Capchecker.Table.install t ~task:0 ~obj:1 cap);
  let s = Capchecker.Table.stats t in
  checki "replace counts as install" 3 s.Capchecker.Table.st_installs;
  checki "replace keeps live" 2 s.Capchecker.Table.st_live;
  (* full table -> conflict; untagged -> rejected *)
  ignore (Capchecker.Table.install t ~task:1 ~obj:0 cap);
  ignore (Capchecker.Table.install t ~task:1 ~obj:1 untagged);
  let s = Capchecker.Table.stats t in
  checki "conflict counted" 1 s.Capchecker.Table.st_conflicts;
  checki "untagged rejection counted" 1 s.Capchecker.Table.st_rejected;
  (* evictions, and the O(1) gauge agrees with a slot scan *)
  ignore (Capchecker.Table.evict t ~task:0 ~obj:0);
  ignore (Capchecker.Table.evict_task t ~task:0);
  let s = Capchecker.Table.stats t in
  checki "evictions" 2 s.Capchecker.Table.st_evictions;
  checki "live drained" 0 s.Capchecker.Table.st_live;
  let scan = ref 0 in
  Capchecker.Table.iter_live t (fun _ -> incr scan);
  checki "gauge matches slot scan" !scan (Capchecker.Table.live_count t);
  checki "peak survives drain" 2 s.Capchecker.Table.st_peak

let test_observe_table_metrics () =
  let checker = Capchecker.Checker.create ~entries:4 Capchecker.Checker.Fine in
  ignore (Capchecker.Checker.install checker ~task:1 ~obj:0 Cheri.Cap.root);
  ignore (Capchecker.Checker.install checker ~task:1 ~obj:1 Cheri.Cap.root);
  ignore (Capchecker.Checker.evict checker ~task:1 ~obj:0);
  let m = Obs.Metrics.create () in
  Capchecker.Checker.observe_table checker ~into:m;
  checki "installs surfaced" 2 (Obs.Metrics.get m "checker.table_installs");
  checki "evictions surfaced" 1 (Obs.Metrics.get m "checker.table_evictions");
  checki "live surfaced" 1 (Obs.Metrics.get m "checker.table_live");
  checki "peak surfaced" 2 (Obs.Metrics.get m "checker.table_peak")

let suite =
  [
    Alcotest.test_case "workload: same seed same schedule" `Quick
      test_workload_deterministic;
    Alcotest.test_case "workload: structure and ranges" `Quick
      test_workload_structure;
    Alcotest.test_case "admission: decision table" `Quick test_admission_decide;
    Alcotest.test_case "run: bookkeeping conservation" `Quick
      test_run_invariants;
    Alcotest.test_case "run: in-flight bound enforced" `Quick
      test_inflight_bound;
    Alcotest.test_case "churn: 1000 tenants, live back to zero" `Quick
      test_churn_1000_tenants_live_zero;
    Alcotest.test_case "report: zero-request tenants" `Quick
      test_zero_request_row;
    Alcotest.test_case "determinism: repeat seed" `Quick
      test_repeat_seed_byte_identical;
    Alcotest.test_case "determinism: jobs parity" `Quick test_jobs_parity;
    Alcotest.test_case "params: out-of-range refused" `Quick
      test_params_refused;
    Alcotest.test_case "reclaim: victim order pinned" `Quick
      test_victim_order_pinned;
    Alcotest.test_case "reclaim: indexed heap = full scan" `Quick
      test_root_lru_matches_scan;
    Alcotest.test_case "scale: 100k tenants, live back to zero" `Slow
      test_100k_tenants;
    Alcotest.test_case "stats: integer percentiles" `Quick test_percentile_int;
    Alcotest.test_case "report: one-sort latency summary" `Quick
      test_latency_summary;
    Alcotest.test_case "table: pressure counters" `Quick
      test_table_stats_counters;
    Alcotest.test_case "checker: observe_table" `Quick
      test_observe_table_metrics;
  ]
