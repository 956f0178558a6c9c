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

(* One request, drawn from [r] in the order that defines the schedule:
   gap, tenant (one or two draws), kernel, scale.  The gap is uniform in
   [1, 2*mean_gap-1] (mean = mean_gap): an open-loop arrival process. *)
let draw_request p ~heavy r ~rq ~after =
  let at = after + 1 + Ccsim.Rng.int r (max 1 ((2 * p.mean_gap) - 1)) in
  let tenant =
    if Ccsim.Rng.int r 4 = 0 then Ccsim.Rng.int r heavy
    else Ccsim.Rng.int r p.tenants
  in
  let bench = pick_weighted r p.mix in
  let scale = pick_weighted r p.scales in
  { at; ev = Request { rq; tenant; bench; scale } }

type stream = {
  p : params;
  heavy : int;
  r_req : Ccsim.Rng.t;
  arrivals : timed array;  (* sorted by time, tenant order on ties *)
  departures : timed array;  (* likewise *)
  mutable next_arrival : int;
  mutable next_departure : int;
  mutable drawn : int;  (* requests drawn so far *)
  mutable request : timed option;  (* the last one drawn, not yet taken *)
}

let draw_next s ~after =
  if s.drawn = s.p.requests then None
  else begin
    let rq = s.drawn in
    s.drawn <- rq + 1;
    Some (draw_request s.p ~heavy:s.heavy s.r_req ~rq ~after)
  end

let stream p =
  validate p;
  let rng = Ccsim.Rng.create p.seed in
  (* Split order is part of the schedule's definition — changing it changes
     every seed's workload, which the determinism tests would catch. *)
  let r_arrive = Ccsim.Rng.split rng in
  let r_churn = Ccsim.Rng.split rng in
  let r_req = Ccsim.Rng.split rng in
  let arrivals =
    Array.init p.tenants (fun i ->
        { at = (if p.ramp = 0 then 0 else Ccsim.Rng.int r_arrive (p.ramp + 1));
          ev = Tenant_arrive i })
  in
  let heavy = heavy_tenants p in
  (* Departures fall before the last request, so the horizon comes from a
     dry run of the request draws on a copy of their generator. *)
  let horizon =
    let r = Ccsim.Rng.copy r_req in
    let t = ref 0 in
    for rq = 0 to p.requests - 1 do
      t := (draw_request p ~heavy r ~rq ~after:!t).at
    done;
    !t
  in
  let departures =
    List.filter_map
      (fun tenant ->
        if Ccsim.Rng.int r_churn 100 < p.churn_pct then
          let arrive = arrivals.(tenant).at in
          let span = max 1 (horizon - arrive) in
          Some
            { at = arrive + 1 + Ccsim.Rng.int r_churn span;
              ev = Tenant_depart tenant }
        else None)
      (List.init p.tenants (fun i -> i))
    |> Array.of_list
  in
  let by_at a b = Int.compare a.at b.at in
  Array.stable_sort by_at arrivals;
  Array.stable_sort by_at departures;
  let s =
    { p; heavy; r_req; arrivals; departures; next_arrival = 0;
      next_departure = 0; drawn = 0; request = None }
  in
  s.request <- draw_next s ~after:0;
  s

(* The earliest head of the three time-sorted sources; on a shared cycle
   arrivals come before requests and requests before departures, which is
   the stable sort of the whole schedule by (at, rank). *)
let next s =
  let head a i = if i < Array.length a then a.(i).at else max_int in
  let arrive = head s.arrivals s.next_arrival
  and depart = head s.departures s.next_departure
  and request = match s.request with Some r -> r.at | None -> max_int in
  if s.next_arrival < Array.length s.arrivals && arrive <= request && arrive <= depart
  then begin
    s.next_arrival <- s.next_arrival + 1;
    Some s.arrivals.(s.next_arrival - 1)
  end
  else
    match s.request with
    | Some { at; _ } as taken when at <= depart ->
        s.request <- draw_next s ~after:at;
        taken
    | Some _ | None ->
        if s.next_departure < Array.length s.departures then begin
          s.next_departure <- s.next_departure + 1;
          Some s.departures.(s.next_departure - 1)
        end
        else None

let generate p =
  let s = stream p in
  let rec drain acc = match next s with Some e -> drain (e :: acc) | None -> List.rev acc in
  drain []
