type totals = {
  t_requests : int;
  t_admitted : int;
  t_completed : int;
  t_rejected_gone : int;
  t_rejected_inflight : int;
  t_rejected_table : int;
  t_cancelled : int;
  t_cpu_fallbacks : int;
  t_root_installs : int;
  t_root_reinstalls : int;
  t_root_evictions : int;
  t_root_stalls : int;
  t_arrived : int;
  t_departed : int;
}

type tenant_row = {
  tr_id : int;
  tr_admitted : int;
  tr_completed : int;
  tr_rejected : int;
  tr_cancelled : int;
  tr_cpu : int;
  tr_departed : bool;
  tr_epoch : int;
  tr_p50 : int;
  tr_p99 : int;
  tr_max : int;
}

type t = {
  rp_config : string;
  rp_seed : int;
  rp_tenants : int;
  rp_requests : int;
  rp_instances : int;
  rp_cc_entries : int;
  rp_gap : int;
  rp_makespan : int;
  rp_totals : totals;
  rp_table : Capchecker.Table.stats;
  rp_p50 : int;
  rp_p99 : int;
  rp_max : int;
  rp_rows : tenant_row list;
  rp_metrics : (string * int) list;
}

let latency_summary xs = Samples.summary (Samples.of_list xs)

let row_of_tenant (tn : Tenant.t) =
  let p50, p99, max_lat = Samples.summary tn.Tenant.latencies in
  {
    tr_id = tn.Tenant.id;
    tr_admitted = tn.Tenant.admitted;
    tr_completed = tn.Tenant.completed;
    tr_rejected = tn.Tenant.rejected;
    tr_cancelled = tn.Tenant.cancelled;
    tr_cpu = tn.Tenant.cpu_fallbacks;
    tr_departed = tn.Tenant.state = Tenant.Departed;
    tr_epoch = tn.Tenant.epoch;
    tr_p50 = p50;
    tr_p99 = p99;
    tr_max = max_lat;
  }

let thrash t =
  t.rp_table.Capchecker.Table.st_conflicts + t.rp_totals.t_root_evictions

let json_of_totals tt =
  Obs.Json.Obj
    [
      ("requests", Obs.Json.Int tt.t_requests);
      ("admitted", Obs.Json.Int tt.t_admitted);
      ("completed", Obs.Json.Int tt.t_completed);
      ("rejected_gone", Obs.Json.Int tt.t_rejected_gone);
      ("rejected_inflight", Obs.Json.Int tt.t_rejected_inflight);
      ("rejected_table", Obs.Json.Int tt.t_rejected_table);
      ("cancelled", Obs.Json.Int tt.t_cancelled);
      ("cpu_fallbacks", Obs.Json.Int tt.t_cpu_fallbacks);
      ("root_installs", Obs.Json.Int tt.t_root_installs);
      ("root_reinstalls", Obs.Json.Int tt.t_root_reinstalls);
      ("root_evictions", Obs.Json.Int tt.t_root_evictions);
      ("root_stalls", Obs.Json.Int tt.t_root_stalls);
      ("arrived", Obs.Json.Int tt.t_arrived);
      ("departed", Obs.Json.Int tt.t_departed);
    ]

let json_of_table (s : Capchecker.Table.stats) =
  Obs.Json.Obj
    [
      ("installs", Obs.Json.Int s.Capchecker.Table.st_installs);
      ("evictions", Obs.Json.Int s.Capchecker.Table.st_evictions);
      ("conflicts", Obs.Json.Int s.Capchecker.Table.st_conflicts);
      ("rejected", Obs.Json.Int s.Capchecker.Table.st_rejected);
      ("live", Obs.Json.Int s.Capchecker.Table.st_live);
      ("peak", Obs.Json.Int s.Capchecker.Table.st_peak);
    ]

let json_of_row r =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int r.tr_id);
      ("admitted", Obs.Json.Int r.tr_admitted);
      ("completed", Obs.Json.Int r.tr_completed);
      ("rejected", Obs.Json.Int r.tr_rejected);
      ("cancelled", Obs.Json.Int r.tr_cancelled);
      ("cpu", Obs.Json.Int r.tr_cpu);
      ("departed", Obs.Json.Bool r.tr_departed);
      ("epoch", Obs.Json.Int r.tr_epoch);
      ("p50", Obs.Json.Int r.tr_p50);
      ("p99", Obs.Json.Int r.tr_p99);
      ("max", Obs.Json.Int r.tr_max);
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "serve-report/1");
      ("config", Obs.Json.String t.rp_config);
      ("seed", Obs.Json.Int t.rp_seed);
      ("tenants", Obs.Json.Int t.rp_tenants);
      ("requests", Obs.Json.Int t.rp_requests);
      ("instances", Obs.Json.Int t.rp_instances);
      ("cc_entries", Obs.Json.Int t.rp_cc_entries);
      ("gap", Obs.Json.Int t.rp_gap);
      ("makespan", Obs.Json.Int t.rp_makespan);
      ("totals", json_of_totals t.rp_totals);
      ("table", json_of_table t.rp_table);
      ("thrash", Obs.Json.Int (thrash t));
      ( "latency",
        Obs.Json.Obj
          [
            ("p50", Obs.Json.Int t.rp_p50);
            ("p99", Obs.Json.Int t.rp_p99);
            ("max", Obs.Json.Int t.rp_max);
          ] );
      ("per_tenant", Obs.Json.List (List.map json_of_row t.rp_rows));
      ( "metrics",
        Obs.Json.Obj
          (List.map (fun (k, v) -> (k, Obs.Json.Int v)) t.rp_metrics) );
    ]

let to_string t = Obs.Json.to_string (to_json t)

let to_table ?(top = 10) t =
  let b = Buffer.create 1024 in
  let tt = t.rp_totals in
  let s = t.rp_table in
  Buffer.add_string b (Ccsim.Report.section "service report");
  Buffer.add_string b
    (Printf.sprintf
       "config %s  seed %d  tenants %d  requests %d  instances %d  entries %d\n"
       t.rp_config t.rp_seed t.rp_tenants t.rp_requests t.rp_instances
       t.rp_cc_entries);
  Buffer.add_string b
    (Printf.sprintf "gap %d cycles  makespan %d cycles\n" t.rp_gap
       t.rp_makespan);
  Buffer.add_string b
    (Printf.sprintf
       "admitted %d / %d  completed %d  rejected gone/inflight/table \
        %d/%d/%d  cancelled %d  cpu fallbacks %d\n"
       tt.t_admitted tt.t_requests tt.t_completed tt.t_rejected_gone
       tt.t_rejected_inflight tt.t_rejected_table tt.t_cancelled
       tt.t_cpu_fallbacks);
  Buffer.add_string b
    (Printf.sprintf
       "tenants arrived %d  departed %d  root installs %d (reinstalls %d)  \
        root evictions %d  stalls %d\n"
       tt.t_arrived tt.t_departed tt.t_root_installs tt.t_root_reinstalls
       tt.t_root_evictions tt.t_root_stalls);
  Buffer.add_string b
    (Printf.sprintf
       "table installs %d  evictions %d  conflicts %d  live %d  peak %d  \
        thrash %d\n"
       s.Capchecker.Table.st_installs s.Capchecker.Table.st_evictions
       s.Capchecker.Table.st_conflicts s.Capchecker.Table.st_live
       s.Capchecker.Table.st_peak (thrash t));
  Buffer.add_string b
    (Printf.sprintf "latency p50 %d  p99 %d  max %d\n" t.rp_p50 t.rp_p99
       t.rp_max);
  let ranked =
    List.stable_sort
      (fun a b ->
        match compare b.tr_p99 a.tr_p99 with
        | 0 -> compare a.tr_id b.tr_id
        | c -> c)
      t.rp_rows
  in
  let shown = List.filteri (fun i _ -> i < top) ranked in
  let header =
    [ "tenant"; "admitted"; "completed"; "rejected"; "cancelled"; "cpu";
      "epoch"; "p50"; "p99"; "max" ]
  in
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.tr_id;
          string_of_int r.tr_admitted;
          string_of_int r.tr_completed;
          string_of_int r.tr_rejected;
          string_of_int r.tr_cancelled;
          string_of_int r.tr_cpu;
          string_of_int r.tr_epoch;
          string_of_int r.tr_p50;
          string_of_int r.tr_p99;
          string_of_int r.tr_max;
        ])
      shown
  in
  Buffer.add_string b
    (Printf.sprintf "top %d tenants by p99:\n" (List.length shown));
  Buffer.add_string b (Ccsim.Report.table ~header rows);
  Buffer.contents b
