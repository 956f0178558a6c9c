let buckets = 63

type hist = {
  mutable count : int;
  mutable sum : int;
  mutable max_sample : int;
  counts : int array;  (* length [buckets]; index = bit width of the sample *)
}

type t = { counters : Ccsim.Stats.t; hists : (string, hist) Hashtbl.t }

let create () = { counters = Ccsim.Stats.create (); hists = Hashtbl.create 16 }

let incr t name = Ccsim.Stats.incr t.counters name
let add t name n = Ccsim.Stats.add t.counters name n
let get t name = Ccsim.Stats.get t.counters name
let counters t = Ccsim.Stats.to_list t.counters

(* Bucket k holds values in [2^(k-1), 2^k - 1]; bucket 0 holds exactly 0. *)
let bucket_of v =
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  bits 0 v

let bucket_upper k = if k = 0 then 0 else (1 lsl k) - 1

let find_hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = { count = 0; sum = 0; max_sample = 0; counts = Array.make buckets 0 } in
      Hashtbl.add t.hists name h;
      h

let observe_hist h v =
  let v = max 0 v in
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v > h.max_sample then h.max_sample <- v;
  let b = min (buckets - 1) (bucket_of v) in
  h.counts.(b) <- h.counts.(b) + 1

let observe t name v = observe_hist (find_hist t name) v

type hist_summary = {
  count : int;
  sum : int;
  mean : float;
  max_sample : int;
}

let hist_summary t name =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h ->
      Some
        {
          count = h.count;
          sum = h.sum;
          mean = (if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count);
          max_sample = h.max_sample;
        }

let percentile t name p =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h when h.count = 0 -> None
  | Some h ->
      (* Same rank convention as Ccsim.Stats.percentile: the sample at sorted
         index [max 0 (ceil (p * n) - 1)]. *)
      let rank = max 1 (int_of_float (ceil (p *. float_of_int h.count))) in
      let rec go b seen =
        if b >= buckets then Some h.max_sample
        else
          let seen = seen + h.counts.(b) in
          if seen >= rank then Some (min (bucket_upper b) h.max_sample)
          else go (b + 1) seen
      in
      go 0 0

let histograms t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.hists [] |> List.sort String.compare

let merge_into ~dst src =
  Ccsim.Stats.merge_into ~dst:dst.counters src.counters;
  Hashtbl.iter
    (fun name (h : hist) ->
      let d = find_hist dst name in
      d.count <- d.count + h.count;
      d.sum <- d.sum + h.sum;
      if h.max_sample > d.max_sample then d.max_sample <- h.max_sample;
      Array.iteri (fun i c -> d.counts.(i) <- d.counts.(i) + c) h.counts)
    src.hists

let of_trace trace =
  let m = create () in
  let counts = Array.make Packed.tags 0 in
  let grant_wait = find_hist m "bus.grant_wait"
  and grant_beats = find_hist m "bus.grant_beats"
  and check_latency = find_hist m "checker.check_latency"
  and phase_cycles = find_hist m "task.phase_cycles" in
  Trace.iter
    (fun (ev : Event.t) ->
      let tag = Packed.tag ev.data in
      counts.(tag) <- counts.(tag) + 1;
      match ev.data with
      | Event.Bus_grant { at; granted_at; beats; _ } ->
          observe_hist grant_wait (granted_at - at);
          observe_hist grant_beats beats
      | Event.Check_ok { latency; _ } -> observe_hist check_latency latency
      | Event.Task_phase { dur; _ } -> observe_hist phase_cycles dur
      | _ -> ())
    trace;
  Array.iteri
    (fun tag n ->
      if n > 0 then
        let d = Packed.sample tag in
        add m (Event.category d ^ "." ^ Event.name d) n)
    counts;
  (* A histogram exists only if some event fed it. *)
  Hashtbl.filter_map_inplace
    (fun _ (h : hist) -> if h.count > 0 then Some h else None)
    m.hists;
  add m "trace.dropped" (Trace.dropped trace);
  m

let to_table t =
  let counter_rows =
    List.map (fun (k, v) -> [ k; string_of_int v ]) (counters t)
  in
  let hist_rows =
    List.map
      (fun name ->
        let s = Option.get (hist_summary t name) in
        let pc p =
          match percentile t name p with Some v -> string_of_int v | None -> "-"
        in
        [ name; string_of_int s.count; Ccsim.Report.fixed 1 s.mean;
          pc 0.5; pc 0.9; pc 0.99; string_of_int s.max_sample ])
      (histograms t)
  in
  let parts = ref [] in
  if counter_rows <> [] then
    parts := Ccsim.Report.table ~header:[ "Counter"; "Count" ] counter_rows :: !parts;
  if hist_rows <> [] then
    parts :=
      Ccsim.Report.table
        ~header:[ "Histogram"; "N"; "Mean"; "p50<="; "p90<="; "p99<="; "Max" ]
        hist_rows
      :: !parts;
  String.concat "\n\n" (List.rev !parts)
