type t = {
  p : Params.t;
  obs : Obs.Trace.t;
  faults : Fault.Injector.t;
  mutable free_at : int;
  mutable beats : int;
}

type grant = {
  granted_at : int;
  data_done : int;
  completed : int;
  errored : bool;
}

let create ?(obs = Obs.Trace.null) ?(faults = Fault.Injector.none) p =
  { p; obs; faults; free_at = 0; beats = 0 }

let params t = t.p

(* The one grant formula: the burst holds the data bus for the address phase
   plus its beats; a read waits the memory latency on top and a posted
   write the write-acknowledge latency.  Injected faults: a stall delays the
   response by extra cycles; an error response completes on time but carries
   no valid data, so the requester must re-issue.  The stall is drawn before
   the error. *)
let resolve p ~obs ~faults ~src ~at ~granted_at ~beats ~is_read ~extra_latency =
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
  { granted_at; data_done; completed; errored }

let request ?(src = -1) t ~at ~beats ~is_read ~extra_latency =
  assert (beats > 0 && at >= 0);
  let g =
    resolve t.p ~obs:t.obs ~faults:t.faults ~src ~at ~granted_at:(max at t.free_at)
      ~beats ~is_read ~extra_latency
  in
  t.free_at <- g.data_done;
  t.beats <- t.beats + beats;
  g

let busy_until t = t.free_at
let total_beats t = t.beats

let quiescent t =
  (not (Fault.Injector.active t.faults)) && not (Obs.Trace.enabled t.obs)

let fast_forward t ~busy_until ~beats =
  assert (beats >= 0);
  t.free_at <- max t.free_at busy_until;
  t.beats <- t.beats + beats

let reset t =
  t.free_at <- 0;
  t.beats <- 0
