type t = {
  limit : int;
  retry_limit : int;
  (* Completion times of in-flight streaming reads, oldest first: a ring
     of [limit] slots, which the window never exceeds. *)
  outstanding : int array;
  mutable o_head : int;
  mutable o_len : int;
  mutable ready : int;
  mutable finish : int;
  mutable retries : int;  (* consecutive error responses on the current transaction *)
  mutable errors : int;
  mutable failed : bool;
}

type verdict = Proceed | Retry | Failed

let error_turnaround = 8
(* cycles between observing an error response and re-issuing the transaction *)

let create ?(error_retry_limit = 4) ~start ~max_outstanding () =
  let limit = Int.max 1 max_outstanding in
  { limit; retry_limit = error_retry_limit;
    outstanding = Array.make limit 0; o_head = 0; o_len = 0; ready = start;
    finish = start; retries = 0; errors = 0; failed = false }

let[@inline] window_full t (op : Trace.op) =
  op = Trace.Stream_read && t.o_len >= t.limit

(* A streaming read with a full outstanding window must wait for the oldest
   in-flight read to return. *)
let[@inline] candidate t ~gap ~op =
  let cand = t.ready + gap in
  if window_full t op then Int.max cand t.outstanding.(t.o_head) else cand

let[@inline] take_slot t ~op =
  if window_full t op then begin
    t.o_head <- (if t.o_head + 1 = t.limit then 0 else t.o_head + 1);
    t.o_len <- t.o_len - 1
  end

let[@inline] push_outstanding t completed =
  let i = t.o_head + t.o_len in
  t.outstanding.(if i >= t.limit then i - t.limit else i) <- completed;
  t.o_len <- t.o_len + 1

let[@inline] absorb t ~op (g : Bus.Fabric.grant) =
  if g.Bus.Fabric.errored then begin
    t.errors <- t.errors + 1;
    t.finish <- Int.max t.finish g.Bus.Fabric.completed;
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
        t.finish <- Int.max t.finish g.Bus.Fabric.data_done
    | Trace.Dep_read ->
        t.ready <- g.Bus.Fabric.completed;
        t.finish <- Int.max t.finish g.Bus.Fabric.completed
    | Trace.Stream_read ->
        push_outstanding t g.Bus.Fabric.completed;
        t.ready <- g.Bus.Fabric.granted_at + 1;
        t.finish <- Int.max t.finish g.Bus.Fabric.completed);
    Proceed
  end

let ready t = t.ready
let finish t = t.finish
let errors t = t.errors
let failed t = t.failed
