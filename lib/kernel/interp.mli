(** The kernel interpreter.

    One interpreter, many machines: the [machine] record abstracts where
    buffer elements live and what executing costs.  The CPU model, the
    accelerator model and the pure reference machine all plug in here, so
    functional behaviour is identical by construction across every system
    configuration — only timing and protection differ. *)

type cost =
  | Alu      (** integer add/sub/logic/compare/shift, conversions *)
  | Imul
  | Idiv     (** integer divide and modulo *)
  | Fadd     (** FP add/sub/compare/min/max *)
  | Fmul
  | Fdiv
  | Fspec    (** sqrt, exp *)
  | Branch   (** taken control-flow decisions, loop back-edges *)
  | Sram     (** accelerator-internal scratch (BRAM) / CPU stack-array access *)

exception Aborted of string
(** Raised by a machine when the protection hardware denies an access; the
    task stops immediately (the CapChecker raises its exception flag and the
    driver will clean up). *)

exception Fuel_exhausted
(** A [While] exceeded the interpreter's iteration budget — treated as a
    kernel bug in tests. *)

type machine = {
  buffer : string -> int;
      (** a DMA buffer's handle, asked when the kernel is compiled *)
  load : int -> idx:int -> dependent:bool -> Value.t;  (** or {!pending} *)
  store : int -> idx:int -> Value.t -> bool;  (** [false]: pending *)
  copy : dst:int -> src:int -> elems:int -> bool;  (** [false]: pending *)
  tick : cost -> int -> unit;
  param : string -> Value.t;
}
(** A machine that cannot finish a [load], [store] or [copy] yet answers
    pending: the interpreter stops, and resuming it makes the same call
    again, with no tick or other call between.  The CPU model and
    {!pure_machine} never do; the accelerator model does at every DMA
    access, until the bus has carried it. *)

val pending : Value.t
(** A [load]'s pending answer, physically unique. *)

type t
(** A kernel compiled against a machine, stopped before its next step. *)

val start : ?fuel:int -> Ir.t -> machine -> t
(** Compile the kernel; nothing runs until {!resume}.  [fuel] bounds total
    [While] iterations (default 100 million).  Compilation resolves
    everything that depends only on the kernel: locals to slots of one
    frame (reading one never assigned raises
    [Value.Type_error "unbound local x"]), buffers to scratch arrays or
    machine handles, [Load]'s [dependent] flags, operators, constants and
    jump targets.  The body becomes a flat array of steps, and every
    machine [load], [store] and [copy] is a step of its own after the
    ticks and index arithmetic before it, so the stack does not grow with
    the trip count.  Nothing is cached across calls. *)

val resume : t -> bool
(** Run until the kernel finishes ([true]) or a machine call answers
    pending ([false]).  An exception from the kernel or the machine
    propagates and ends the run.

    The sequence of completed machine calls is part of the contract: every
    machine sees its [load], [store], [copy], [tick] and [param] calls in
    tree order (operands left to right, an index before a stored value, an
    operator's tick after its operands, a branch's tick before its
    condition), with the same arguments, up to and including the call that
    raises, however often it answers pending.  A [For] evaluates [lo] then
    [hi] once; its variable holds [lo] on a zero-trip loop and [max lo hi]
    afterwards, and writes to it in the body do not change the trip count.

    Scratch memories ({!Ir.t.scratch}) are handled entirely inside the
    interpreter: they are zero-initialised arrays private to the run, their
    accesses cost [Sram] ticks, and they never reach the machine's
    [load]/[store] — matching hardware, where internal BRAM traffic is
    invisible on the memory interface.  An out-of-range scratch index raises
    {!Aborted} (internal address wrap is not a DMA-visible event). *)

val run : ?fuel:int -> Ir.t -> machine -> unit
(** {!start} then {!resume} on a machine that never answers pending. *)

val pure_machine :
  bufs:(string * Value.t array) list ->
  ?params:(string * Value.t) list ->
  unit ->
  machine
(** The reference machine: buffers are plain arrays, costs are discarded,
    and a buffer's handle is its position in [bufs] (an unknown name raises
    [Invalid_argument] when the kernel is compiled).  Out-of-range indices
    raise [Invalid_argument] — the reference semantics has no out-of-bounds
    behaviour to exploit; only the hardware models do. *)

val eval_binop : Ir.binop -> Value.t -> Value.t -> Value.t
val eval_unop : Ir.unop -> Value.t -> Value.t
val cost_of_binop : Ir.binop -> cost
val cost_of_unop : Ir.unop -> cost
