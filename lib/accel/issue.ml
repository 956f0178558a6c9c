type t = {
  limit : int;
  retry_limit : int;
  outstanding : int Queue.t;  (* completion times of in-flight streaming reads *)
  mutable ready : int;
  mutable max_pushed : int;
  mutable finish : int;
  mutable retries : int;  (* consecutive error responses on the current transaction *)
  mutable errors : int;
  mutable failed : bool;
}

type verdict = Proceed | Retry | Failed

let error_turnaround = 8
(* cycles between observing an error response and re-issuing the transaction *)

let create ?(error_retry_limit = 4) ~start ~max_outstanding () =
  { limit = max 1 max_outstanding; retry_limit = error_retry_limit;
    outstanding = Queue.create (); ready = start; max_pushed = 0;
    finish = start; retries = 0; errors = 0; failed = false }

let window_full t (op : Trace.op) =
  op = Trace.Stream_read && Queue.length t.outstanding >= t.limit

(* A streaming read with a full outstanding window must wait for the oldest
   in-flight read to return. *)
let candidate t ~gap ~op =
  let cand = t.ready + gap in
  if window_full t op then max cand (Queue.peek t.outstanding) else cand

let take_slot t ~op = if window_full t op then ignore (Queue.pop t.outstanding)

let absorb t ~op (g : Bus.Fabric.grant) =
  if g.Bus.Fabric.errored then begin
    t.errors <- t.errors + 1;
    t.finish <- max t.finish g.Bus.Fabric.completed;
    if t.retries >= t.retry_limit then begin
      t.failed <- true;
      Failed
    end
    else begin
      t.retries <- t.retries + 1;
      t.ready <- g.Bus.Fabric.completed + error_turnaround;
      Retry
    end
  end
  else begin
    t.retries <- 0;
    (match op with
    | Trace.Write ->
        t.ready <- g.Bus.Fabric.granted_at + 1;
        t.finish <- max t.finish g.Bus.Fabric.data_done
    | Trace.Dep_read ->
        t.ready <- g.Bus.Fabric.completed;
        t.finish <- max t.finish g.Bus.Fabric.completed
    | Trace.Stream_read ->
        Queue.push g.Bus.Fabric.completed t.outstanding;
        if g.Bus.Fabric.completed > t.max_pushed then
          t.max_pushed <- g.Bus.Fabric.completed;
        t.ready <- g.Bus.Fabric.granted_at + 1;
        t.finish <- max t.finish g.Bus.Fabric.completed);
    Proceed
  end

let leap t ~finish = t.finish <- max t.finish finish

let ready t = t.ready
let max_pushed t = t.max_pushed
let finish t = t.finish
let errors t = t.errors
let failed t = t.failed
