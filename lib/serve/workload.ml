type params = {
  tenants : int;
  requests : int;
  seed : int;
  mean_gap : int;
  ramp : int;
  churn_pct : int;
  mix : (string * int) list;
  scales : (int * int) list;
}

type ev =
  | Tenant_arrive of int
  | Tenant_depart of int
  | Request of { rq : int; tenant : int; bench : string; scale : int }

type timed = { at : int; ev : ev }

let default_mix = [ ("aes", 3); ("kmp", 2); ("sort_merge", 2); ("spmv_crs", 1) ]
let default_scales = [ (1, 4); (2, 2); (4, 1) ]

let ev_rank = function
  | Tenant_arrive _ -> 0
  | Request _ -> 1
  | Tenant_depart _ -> 2

let validate p =
  if p.tenants <= 0 then invalid_arg "Workload.generate: tenants must be >= 1";
  if p.requests < 0 then invalid_arg "Workload.generate: requests must be >= 0";
  if p.mean_gap < 1 then invalid_arg "Workload.generate: mean_gap must be >= 1";
  if p.churn_pct < 0 || p.churn_pct > 100 then
    invalid_arg "Workload.generate: churn_pct outside [0, 100]";
  let check_weights what = function
    | [] -> invalid_arg (Printf.sprintf "Workload.generate: empty %s" what)
    | ws ->
        if List.exists (fun (_, w) -> w <= 0) ws then
          invalid_arg
            (Printf.sprintf "Workload.generate: non-positive weight in %s" what)
  in
  check_weights "mix" p.mix;
  check_weights "scales" p.scales

let pick_weighted r items =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 items in
  let d = Ccsim.Rng.int r total in
  let rec go d = function
    | [] -> assert false
    | (x, w) :: rest -> if d < w then x else go (d - w) rest
  in
  go d items

(* A quarter of requests concentrate on the first [tenants/8] tenants: a
   skewed popularity profile so some compartments stay hot (roots resident)
   while the cold tail churns the table. *)
let heavy_tenants p = max 1 (p.tenants / 8)

(* Stable merge of two lists sorted by (at, rank), left first on ties. *)
let merge l1 l2 =
  let before a b =
    a.at < b.at || (a.at = b.at && ev_rank a.ev <= ev_rank b.ev)
  in
  let rec go acc l1 l2 =
    match (l1, l2) with
    | [], l | l, [] -> List.rev_append acc l
    | a :: t1, b :: t2 ->
        if before a b then go (a :: acc) t1 l2 else go (b :: acc) l1 t2
  in
  go [] l1 l2

let generate p =
  validate p;
  let rng = Ccsim.Rng.create p.seed in
  (* Split order is part of the schedule's definition — changing it changes
     every seed's workload, which the determinism tests would catch. *)
  let r_arrive = Ccsim.Rng.split rng in
  let r_churn = Ccsim.Rng.split rng in
  let r_req = Ccsim.Rng.split rng in
  let arrivals =
    Array.init p.tenants (fun _ ->
        if p.ramp = 0 then 0 else Ccsim.Rng.int r_arrive (p.ramp + 1))
  in
  (* Requests: open-loop arrival process, gap uniform in [1, 2*mean_gap-1]
     (mean = mean_gap); tenant, kernel and scale drawn per request. *)
  let heavy = heavy_tenants p in
  let t = ref 0 in
  let requests =
    List.init p.requests (fun rq ->
        t := !t + 1 + Ccsim.Rng.int r_req (max 1 ((2 * p.mean_gap) - 1));
        let tenant =
          if Ccsim.Rng.int r_req 4 = 0 then Ccsim.Rng.int r_req heavy
          else Ccsim.Rng.int r_req p.tenants
        in
        let bench = pick_weighted r_req p.mix in
        let scale = pick_weighted r_req p.scales in
        { at = !t; ev = Request { rq; tenant; bench; scale } })
  in
  let horizon = !t in
  let departures =
    List.filter_map
      (fun tenant ->
        if Ccsim.Rng.int r_churn 100 < p.churn_pct then
          let arrive = arrivals.(tenant) in
          let span = max 1 (horizon - arrive) in
          Some
            { at = arrive + 1 + Ccsim.Rng.int r_churn span;
              ev = Tenant_depart tenant }
        else None)
      (List.init p.tenants (fun i -> i))
  in
  let arrivals_l =
    List.init p.tenants (fun i -> { at = arrivals.(i); ev = Tenant_arrive i })
  in
  (* The requests are already in time order, and each kind has its own
     rank, so sorting the two short lists by time and merging the three
     gives the stable sort of their concatenation without sorting the
     long one. *)
  let by_at a b = Int.compare a.at b.at in
  merge
    (merge (List.stable_sort by_at arrivals_l) requests)
    (List.stable_sort by_at departures)
