type result = {
  makespan : int;
  per_instance : (int * int) list;
  bus_beats : int;
  bus_errors : int;
  failed : int list;
}

type stream = { instance : int; trace : Trace.t; max_outstanding : int }

type instance_state = {
  id : int;
  trace : Trace.t;  (* read through Trace.get/length: no per-instance copy *)
  n : int;
  limit : int;
  mutable next : int;
  mutable ready : int;
  outstanding : int Queue.t;  (* completion times of in-flight streaming reads *)
  mutable finish : int;
  mutable event_retries : int;  (* consecutive error responses on the current event *)
  mutable failed : bool;
}

let error_turnaround = 8
(* cycles between observing an error response and re-issuing the transaction *)

let candidate_time st =
  let ev = Trace.get st.trace st.next in
  let cand = st.ready + ev.Trace.gap in
  (* A streaming read with a full outstanding queue must wait for the oldest
     in-flight read to return. *)
  if
    ev.Trace.kind = Guard.Iface.Read && (not ev.Trace.dependent)
    && Queue.length st.outstanding >= st.limit
  then max cand (Queue.peek st.outstanding)
  else cand

let run ?(error_retry_limit = 4) fabric ~start streams =
  let errors = ref 0 in
  let states =
    List.map
      (fun s ->
        { id = s.instance; trace = s.trace; n = Trace.length s.trace;
          limit = max 1 s.max_outstanding; next = 0; ready = start;
          outstanding = Queue.create (); finish = start;
          event_retries = 0; failed = false })
      streams
  in
  let rec step () =
    (* Pick the instance whose next transaction is ready earliest. *)
    let best =
      List.fold_left
        (fun acc st ->
          if st.next >= st.n then acc
          else
            let cand = candidate_time st in
            match acc with
            | Some (_, best_cand) when best_cand <= cand -> acc
            | Some _ | None -> Some (st, cand))
        None states
    in
    match best with
    | None -> ()
    | Some (st, cand) ->
        let ev = Trace.get st.trace st.next in
        (if ev.Trace.kind = Guard.Iface.Read && (not ev.Trace.dependent)
            && Queue.length st.outstanding >= st.limit
         then ignore (Queue.pop st.outstanding));
        let is_read = ev.Trace.kind = Guard.Iface.Read in
        let grant =
          Bus.Fabric.request ~src:st.id fabric ~at:cand ~beats:ev.Trace.beats
            ~is_read ~extra_latency:ev.Trace.latency
        in
        if grant.Bus.Fabric.errored then begin
          incr errors;
          st.finish <- max st.finish grant.Bus.Fabric.completed;
          if st.event_retries >= error_retry_limit then begin
            (* Retry budget exhausted: this instance's run is lost; the
               driver decides what to do with the task. *)
            st.failed <- true;
            st.next <- st.n
          end
          else begin
            st.event_retries <- st.event_retries + 1;
            st.ready <- grant.Bus.Fabric.completed + error_turnaround
          end
        end
        else begin
          st.event_retries <- 0;
          st.next <- st.next + 1;
          match (ev.Trace.kind, ev.Trace.dependent) with
          | Guard.Iface.Write, _ ->
              (* Posted write: the instance moves on after the address phase. *)
              st.ready <- grant.Bus.Fabric.granted_at + 1;
              st.finish <- max st.finish grant.Bus.Fabric.data_done
          | Guard.Iface.Read, true ->
              st.ready <- grant.Bus.Fabric.completed;
              st.finish <- max st.finish grant.Bus.Fabric.completed
          | Guard.Iface.Read, false ->
              Queue.push grant.Bus.Fabric.completed st.outstanding;
              st.ready <- grant.Bus.Fabric.granted_at + 1;
              st.finish <- max st.finish grant.Bus.Fabric.completed
        end;
        step ()
  in
  step ();
  let makespan = List.fold_left (fun acc st -> max acc st.finish) start states in
  {
    makespan;
    per_instance = List.map (fun st -> (st.id, st.finish)) states;
    bus_beats = Bus.Fabric.total_beats fabric;
    bus_errors = !errors;
    failed = List.filter_map (fun st -> if st.failed then Some st.id else None) states;
  }

type cstream = { cinstance : int; ctrace : Trace.Compiled.t }

type cstate = {
  c_id : int;
  ct : Trace.Compiled.t;
  c_limit : int;
  mutable c_next : int;
  mutable c_ready : int;
  c_outstanding : int Queue.t;
  mutable c_max_pushed : int;
      (* largest completion ever pushed to [c_outstanding]; conservative
         witness that every still-queued read has returned by a given cycle *)
  mutable c_finish : int;
  mutable c_event_retries : int;
  mutable c_failed : bool;
}

let c_candidate_time st =
  let ct = st.ct in
  let cand = st.c_ready + ct.Trace.Compiled.c_gap.(st.c_next) in
  if
    ct.Trace.Compiled.c_kind.(st.c_next) = Trace.Compiled.k_stream_read
    && Queue.length st.c_outstanding >= st.c_limit
  then max cand (Queue.peek st.c_outstanding)
  else cand

let run_compiled ?(error_retry_limit = 4) fabric ~start streams =
  let bus = Bus.Fabric.params fabric in
  let errors = ref 0 in
  let states =
    List.map
      (fun s ->
        assert (s.ctrace.Trace.Compiled.c_bus = bus);
        { c_id = s.cinstance; ct = s.ctrace;
          c_limit = s.ctrace.Trace.Compiled.c_limit; c_next = 0;
          c_ready = start; c_outstanding = Queue.create (); c_max_pushed = 0;
          c_finish = start; c_event_retries = 0; c_failed = false })
      streams
  in
  let unfinished =
    ref
      (List.fold_left
         (fun acc st -> if st.c_next < st.ct.Trace.Compiled.c_n then acc + 1 else acc)
         0 states)
  in
  let quiescent = Bus.Fabric.quiescent fabric in
  let rec step () =
    let best =
      List.fold_left
        (fun acc st ->
          if st.c_next >= st.ct.Trace.Compiled.c_n then acc
          else
            let cand = c_candidate_time st in
            match acc with
            | Some (_, best_cand) when best_cand <= cand -> acc
            | Some _ | None -> Some (st, cand))
        None states
    in
    match best with
    | None -> ()
    | Some (st, cand) ->
        let ct = st.ct in
        let i = st.c_next in
        let kind = ct.Trace.Compiled.c_kind.(i) in
        (* Solo fast-forward: with every other stream drained, a quiescent
           fabric, and a clean entry state at a compile-clean index, the
           whole suffix timing is the precomputed deltas off [cand]. *)
        let cand0 = st.c_ready + ct.Trace.Compiled.c_gap.(i) in
        if
          !unfinished = 1 && quiescent
          && ct.Trace.Compiled.c_clean_finish.(i) >= 0
          && Bus.Fabric.busy_until fabric <= cand0
          && st.c_max_pushed <= cand0
        then begin
          (* The selection's [cand] equals [cand0] here: the queue constraint
             cannot bind when every queued completion is [<= cand0]. *)
          st.c_finish <-
            max st.c_finish (cand0 + ct.Trace.Compiled.c_clean_finish.(i));
          Bus.Fabric.fast_forward fabric
            ~busy_until:(cand0 + ct.Trace.Compiled.c_clean_free.(i))
            ~beats:ct.Trace.Compiled.c_suffix_beats.(i);
          st.c_next <- ct.Trace.Compiled.c_n;
          decr unfinished;
          Obs.Counters.incr Obs.Counters.segments_replayed;
          step ()
        end
        else begin
          (if
             kind = Trace.Compiled.k_stream_read
             && Queue.length st.c_outstanding >= st.c_limit
           then ignore (Queue.pop st.c_outstanding));
          let is_read = kind <> Trace.Compiled.k_write in
          let grant =
            Bus.Fabric.request ~src:st.c_id fabric ~at:cand
              ~beats:ct.Trace.Compiled.c_beats.(i) ~is_read
              ~extra_latency:ct.Trace.Compiled.c_latency.(i)
          in
          if grant.Bus.Fabric.errored then begin
            incr errors;
            st.c_finish <- max st.c_finish grant.Bus.Fabric.completed;
            if st.c_event_retries >= error_retry_limit then begin
              st.c_failed <- true;
              st.c_next <- ct.Trace.Compiled.c_n;
              decr unfinished
            end
            else begin
              st.c_event_retries <- st.c_event_retries + 1;
              st.c_ready <- grant.Bus.Fabric.completed + error_turnaround
            end
          end
          else begin
            st.c_event_retries <- 0;
            st.c_next <- st.c_next + 1;
            if st.c_next >= ct.Trace.Compiled.c_n then decr unfinished;
            if kind = Trace.Compiled.k_write then begin
              st.c_ready <- grant.Bus.Fabric.granted_at + 1;
              st.c_finish <- max st.c_finish grant.Bus.Fabric.data_done
            end
            else if kind = Trace.Compiled.k_dep_read then begin
              st.c_ready <- grant.Bus.Fabric.completed;
              st.c_finish <- max st.c_finish grant.Bus.Fabric.completed
            end
            else begin
              Queue.push grant.Bus.Fabric.completed st.c_outstanding;
              if grant.Bus.Fabric.completed > st.c_max_pushed then
                st.c_max_pushed <- grant.Bus.Fabric.completed;
              st.c_ready <- grant.Bus.Fabric.granted_at + 1;
              st.c_finish <- max st.c_finish grant.Bus.Fabric.completed
            end
          end;
          step ()
        end
  in
  step ();
  let makespan = List.fold_left (fun acc st -> max acc st.c_finish) start states in
  {
    makespan;
    per_instance = List.map (fun st -> (st.c_id, st.c_finish)) states;
    bus_beats = Bus.Fabric.total_beats fabric;
    bus_errors = !errors;
    failed =
      List.filter_map (fun st -> if st.c_failed then Some st.c_id else None) states;
  }

let run_event ?error_retry_limit ~sched ~ic ~start streams =
  let flows =
    List.map
      (fun s ->
        let flow =
          Flow.create ?error_retry_limit ~sched ~ic ~src:s.instance ~start
            ~max_outstanding:s.max_outstanding ()
        in
        let failed = ref false in
        Ccsim.Sched.spawn sched ~at:start (fun () ->
            try Trace.iter (Flow.issue_event flow) s.trace
            with Flow.Failed -> failed := true);
        (s.instance, flow, failed))
      streams
  in
  Ccsim.Sched.run sched;
  let makespan =
    List.fold_left (fun acc (_, flow, _) -> max acc (Flow.finish flow)) start flows
  in
  {
    makespan;
    per_instance = List.map (fun (id, flow, _) -> (id, Flow.finish flow)) flows;
    bus_beats = Bus.Topology.total_beats ic;
    bus_errors =
      List.fold_left (fun acc (_, flow, _) -> acc + Flow.errors flow) 0 flows;
    failed =
      List.filter_map
        (fun (id, _, failed) -> if !failed then Some id else None)
        flows;
  }
