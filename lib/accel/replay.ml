type result = {
  makespan : int;
  per_instance : (int * int) list;
  bus_beats : int;
  bus_errors : int;
  failed : int list;
}

type stream = {
  instance : int;
  trace : Trace.t;
  max_outstanding : int;
}

type state = {
  id : int;
  trace : Trace.t;
  n : int;
  issue : Issue.t;
  mutable next : int;
  (* [next]'s gap, op and candidate cycle ([max_int] once finished).  They
     depend on this stream's own state alone, so only a step of this stream
     moves them. *)
  mutable gap : int;
  mutable op : Trace.op;
  mutable cand : int;
}

let refresh st =
  if st.next < st.n then begin
    st.gap <- Trace.gap st.trace st.next;
    st.op <- Trace.op st.trace st.next;
    st.cand <- Issue.candidate st.issue ~gap:st.gap ~op:st.op
  end
  else st.cand <- max_int

(* The one replay scheduler.  Instances issue in global earliest-ready order
   (ties to the earlier stream). *)
let schedule fabric states =
  let unfinished =
    ref (Array.fold_left (fun acc st -> if st.n > 0 then acc + 1 else acc) 0 states)
  in
  while !unfinished > 0 do
    let best = ref 0 in
    for k = 1 to Array.length states - 1 do
      if states.(k).cand < states.(!best).cand then best := k
    done;
    let st = states.(!best) in
    let i = st.next in
    Issue.take_slot st.issue ~op:st.op;
    let grant =
      Bus.Fabric.request ~src:st.id fabric ~at:st.cand
        ~beats:(Trace.beats st.trace i) ~is_read:(st.op <> Trace.Write)
        ~extra_latency:(Trace.latency st.trace i)
    in
    (match Issue.absorb st.issue ~op:st.op grant with
    | Issue.Proceed ->
        st.next <- i + 1;
        if st.next = st.n then decr unfinished
    | Issue.Retry -> ()
    | Issue.Failed ->
        st.next <- st.n;
        decr unfinished);
    refresh st
  done

let state_of ?error_retry_limit ~start (s : stream) =
  let st =
    { id = s.instance; trace = s.trace; n = Trace.length s.trace;
      next = 0; gap = 0; op = Trace.Write; cand = max_int;
      issue =
        Issue.create ?error_retry_limit ~start ~max_outstanding:s.max_outstanding () }
  in
  refresh st;
  st

let result ~start ~bus_beats instances =
  {
    makespan =
      List.fold_left (fun acc (_, issue) -> max acc (Issue.finish issue)) start instances;
    per_instance = List.map (fun (id, issue) -> (id, Issue.finish issue)) instances;
    bus_beats;
    bus_errors = List.fold_left (fun acc (_, issue) -> acc + Issue.errors issue) 0 instances;
    failed =
      List.filter_map (fun (id, issue) -> if Issue.failed issue then Some id else None) instances;
  }

let run ?error_retry_limit fabric ~start streams =
  let states = Array.of_list (List.map (state_of ?error_retry_limit ~start) streams) in
  schedule fabric states;
  result ~start ~bus_beats:(Bus.Fabric.total_beats fabric)
    (List.map (fun st -> (st.id, st.issue)) (Array.to_list states))

(* Each stream is a cursor over its trace: the flow continues it after each
   transaction, and it submits the next from there. *)
let run_event ?error_retry_limit ~sched ~ic ~start streams =
  let instances =
    List.map
      (fun (s : stream) ->
        let issue =
          Issue.create ?error_retry_limit ~start ~max_outstanding:s.max_outstanding ()
        in
        let flow = Flow.create ~sched ~ic ~src:s.instance issue in
        (* Recorded transactions carry no addresses: each goes to the
           stream's home bank. *)
        let target = Bus.Topology.home_target ic ~src:s.instance in
        let trace = s.trace and n = Trace.length s.trace and next = ref 0 in
        let rec k () =
          let i = !next in
          if i < n && not (Issue.failed issue) then begin
            next := i + 1;
            Flow.submit flow ~k ~target ~gap:(Trace.gap trace i)
              ~op:(Trace.op trace i) ~beats:(Trace.beats trace i)
              ~latency:(Trace.latency trace i) ~then_wait:0
          end
        in
        Ccsim.Sched.at sched ~cycle:start k;
        (s.instance, issue))
      streams
  in
  Ccsim.Sched.run sched;
  result ~start ~bus_beats:(Bus.Topology.total_beats ic) instances
