type result = {
  makespan : int;
  per_instance : (int * int) list;
  bus_beats : int;
  bus_errors : int;
  failed : int list;
}

(* A solo reference run of one trace, translated to wherever a live stream
   re-enters it.  At a clean index [i] (the fabric free and every queued
   streaming read returned by the transaction's candidate cycle) the rest of
   the schedule depends on that candidate cycle alone, so a live stream
   entering [i] clean at candidate [c] finishes at [l_finish + c -
   l_clean_at.(i)], leaves the fabric busy until [l_free + c -
   l_clean_at.(i)], and moves [l_beats - l_beats_at.(i)] more beats. *)
type leaps = {
  l_bus : Bus.Params.t;
  l_limit : int;
  l_clean_at : int array;  (* reference candidate cycle; -1 if not clean *)
  l_beats_at : int array;  (* beats the reference run moved before [i] *)
  l_finish : int;
  l_free : int;
  l_beats : int;
}

type stream = {
  instance : int;
  trace : Trace.t;
  max_outstanding : int;
  leaps : leaps option;
}

type state = {
  id : int;
  trace : Trace.t;
  n : int;
  st_leaps : leaps option;
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
   (ties to the earlier stream); [observe st i cand] sees every transaction
   before it is issued or leapt, with the cycle it becomes ready ignoring the
   outstanding window. *)
let schedule ~observe fabric states =
  let unfinished =
    ref (Array.fold_left (fun acc st -> if st.n > 0 then acc + 1 else acc) 0 states)
  in
  let quiescent = Bus.Fabric.quiescent fabric in
  while !unfinished > 0 do
    let best = ref 0 in
    for k = 1 to Array.length states - 1 do
      if states.(k).cand < states.(!best).cand then best := k
    done;
    let st = states.(!best) in
    let i = st.next in
    let cand0 = Issue.ready st.issue + st.gap in
    observe st i cand0;
    (match st.st_leaps with
    | Some l
      when !unfinished = 1 && quiescent
           && l.l_clean_at.(i) >= 0
           && Bus.Fabric.busy_until fabric <= cand0
           && Issue.max_pushed st.issue <= cand0 ->
        (* Solo leap: every other stream is drained, the fabric is pure and
           this entry state is clean, so the reference run's suffix applies
           verbatim.  The window constraint cannot bind here, so the
           selection's candidate is [cand0]. *)
        let shift = cand0 - l.l_clean_at.(i) in
        Issue.leap st.issue ~finish:(l.l_finish + shift);
        Bus.Fabric.fast_forward fabric ~busy_until:(l.l_free + shift)
          ~beats:(l.l_beats - l.l_beats_at.(i));
        st.next <- st.n;
        decr unfinished;
        Obs.Counters.incr Obs.Counters.segments_replayed
    | Some _ | None -> (
        Issue.take_slot st.issue ~op:st.op;
        let grant =
          Bus.Fabric.request ~src:st.id fabric ~at:st.cand
            ~beats:(Trace.beats st.trace i) ~is_read:(st.op <> Trace.Write)
            ~extra_latency:(Trace.latency st.trace i)
        in
        match Issue.absorb st.issue ~op:st.op grant with
        | Issue.Proceed ->
            st.next <- i + 1;
            if st.next = st.n then decr unfinished
        | Issue.Retry -> ()
        | Issue.Failed ->
            st.next <- st.n;
            decr unfinished));
    refresh st
  done

let state_of ?error_retry_limit ~start (s : stream) =
  let st =
    { id = s.instance; trace = s.trace; n = Trace.length s.trace;
      st_leaps = s.leaps; next = 0; gap = 0; op = Trace.Write; cand = max_int;
      issue =
        Issue.create ?error_retry_limit ~start ~max_outstanding:s.max_outstanding () }
  in
  refresh st;
  st

let no_observe _ _ _ = ()

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
  let bus = Bus.Fabric.params fabric in
  List.iter
    (fun (s : stream) ->
      match s.leaps with
      | Some l -> assert (l.l_bus = bus && l.l_limit = max 1 s.max_outstanding)
      | None -> ())
    streams;
  let states = Array.of_list (List.map (state_of ?error_retry_limit ~start) streams) in
  schedule ~observe:no_observe fabric states;
  result ~start ~bus_beats:(Bus.Fabric.total_beats fabric)
    (List.map (fun st -> (st.id, st.issue)) (Array.to_list states))

let leap_tables bus ~max_outstanding trace =
  let n = Trace.length trace in
  let fabric = Bus.Fabric.create bus in
  let clean_at = Array.make n (-1) and beats_at = Array.make n 0 in
  let st =
    state_of ~start:0 { instance = 0; trace; max_outstanding; leaps = None }
  in
  schedule fabric [| st |] ~observe:(fun st i cand0 ->
      beats_at.(i) <- Bus.Fabric.total_beats fabric;
      if Bus.Fabric.busy_until fabric <= cand0 && Issue.max_pushed st.issue <= cand0
      then clean_at.(i) <- cand0);
  { l_bus = bus; l_limit = max 1 max_outstanding; l_clean_at = clean_at;
    l_beats_at = beats_at; l_finish = Issue.finish st.issue;
    l_free = Bus.Fabric.busy_until fabric; l_beats = Bus.Fabric.total_beats fabric }

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
        Ccsim.Sched.spawn sched ~at:start (fun () ->
            try
              Trace.iter s.trace (fun ~gap ~op ~beats ~latency ->
                  Flow.issue flow ~target ~gap ~op ~beats ~latency ~then_wait:0)
            with Flow.Failed -> ());
        (s.instance, issue))
      streams
  in
  Ccsim.Sched.run sched;
  result ~start ~bus_beats:(Bus.Topology.total_beats ic) instances
