type t = {
  p : Params.t;
  obs : Obs.Trace.t;
  faults : Fault.Injector.t;
  mutable free_at : int;
  mutable beats : int;
}

type grant = {
  mutable granted_at : int;
  mutable data_done : int;
  mutable completed : int;
  mutable errored : bool;
}

let grant () = { granted_at = 0; data_done = 0; completed = 0; errored = false }

let create ?(obs = Obs.Trace.null) ?(faults = Fault.Injector.none) p =
  { p; obs; faults; free_at = 0; beats = 0 }

let params t = t.p

(* The one grant formula: the burst holds the data bus for the address phase
   plus its beats; a read waits the memory latency on top and a posted
   write the write-acknowledge latency.  Injected faults: a stall delays the
   response by extra cycles; an error response completes on time but carries
   no valid data, so the requester must re-issue.  The stall is drawn before
   the error.  The result goes into [g], which the caller owns. *)
let resolve p ~obs ~faults ~src ~at ~granted_at ~beats ~is_read ~extra_latency g =
  let data_done = granted_at + p.Params.addr_phase + beats in
  let mem_latency = if is_read then p.Params.read_latency else p.Params.write_latency in
  let stall = Fault.Injector.bus_stall faults in
  let errored = Fault.Injector.bus_error faults in
  let completed = data_done + mem_latency + extra_latency + stall in
  if Obs.Trace.enabled obs then begin
    Obs.Trace.emit_at obs ~cycle:granted_at
      (Obs.Event.Bus_grant
         { source = src; beats; read = is_read; at; granted_at; data_done; completed });
    Obs.Trace.emit_at obs ~cycle:data_done (Obs.Event.Bus_beat { source = src; beats })
  end;
  g.granted_at <- granted_at;
  g.data_done <- data_done;
  g.completed <- completed;
  g.errored <- errored

let request ?(src = -1) t ~at ~beats ~is_read ~extra_latency =
  assert (beats > 0 && at >= 0);
  let g = grant () in
  resolve t.p ~obs:t.obs ~faults:t.faults ~src ~at
    ~granted_at:(Int.max at t.free_at) ~beats ~is_read ~extra_latency g;
  t.free_at <- g.data_done;
  t.beats <- t.beats + beats;
  g

let busy_until t = t.free_at
let total_beats t = t.beats

let quiescent t =
  (not (Fault.Injector.active t.faults)) && not (Obs.Trace.enabled t.obs)

let fast_forward t ~busy_until ~beats =
  assert (beats >= 0);
  t.free_at <- Int.max t.free_at busy_until;
  t.beats <- t.beats + beats

let reset t =
  t.free_at <- 0;
  t.beats <- 0
