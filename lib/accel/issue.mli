(** The per-stream DMA issue state machine: the one place the paper's
    per-transaction timing rule lives.

    One instance issues its transactions in order through the interconnect.
    A transaction becomes ready [gap] datapath cycles after the instance's
    previous activity; a streaming read additionally waits for the oldest
    in-flight read when the synthesized interface's outstanding window is
    full.  After the grant, a posted write and a streaming read let the
    instance move on after the address phase, while a dependent
    (pointer-chasing) read blocks it for the full round trip, including the
    guard's checking latency.  An injected error response is re-issued after
    {!error_turnaround} cycles; once the retry budget is spent the instance
    has failed.

    {!Replay}'s scheduler and the event core's {!Flow} both drive this one
    record, so they agree transaction for transaction.  Every
    operation is a direct call on mutable fields and allocates nothing. *)

type t

(** What the instance does after a grant. *)
type verdict =
  | Proceed  (** the transaction is done; the next may issue from {!ready} *)
  | Retry    (** an error response: re-issue the same transaction *)
  | Failed   (** the retry budget is spent: the instance's run is lost and
                 the driver decides what to do with the task *)

val error_turnaround : int
(** Cycles between observing an error response and re-issuing. *)

val create : ?error_retry_limit:int -> start:int -> max_outstanding:int -> unit -> t
(** An instance that may issue from cycle [start], with a streaming-read
    window of [max 1 max_outstanding].  An instance fails on the
    [error_retry_limit + 1]th consecutive error of one transaction (default
    4 retries). *)

val candidate : t -> gap:int -> op:Trace.op -> int
(** Peek the cycle the next transaction becomes ready to issue. *)

val take_slot : t -> op:Trace.op -> unit
(** Issue-time bookkeeping: a streaming read with a full outstanding window
    retires the oldest in-flight read from it.  Call once per request,
    right after {!candidate}. *)

val absorb : t -> op:Trace.op -> Bus.Fabric.grant -> verdict
(** Account for the grant of the transaction just requested. *)

val ready : t -> int
(** Cycle the datapath may issue its next transaction (before its gap). *)

val finish : t -> int
(** Settle cycle of the latest transaction so far ([start] before any). *)

val errors : t -> int
(** Error responses observed (including retried ones). *)

val failed : t -> bool
