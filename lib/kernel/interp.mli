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

val costs : cost array
(** Every class, in {!cost_index} order. *)

val cost_index : cost -> int
(** A class's position in a machine's [ops] array. *)

val counters : unit -> int array
(** A zeroed [ops] array: one count per class. *)

val total : int array -> int
(** The ops an [ops] array has counted, over all classes. *)

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
  param : string -> Value.t;
  ops : int array;
      (** the executed ops per cost class ({!counters}), which the
          interpreter adds to and the machine reads: at any call, they count
          every op before it in tree order *)
}
(** A machine that cannot finish a [load], [store] or [copy] yet answers
    pending: the interpreter stops, and resuming it makes the same call
    again, with no op counted or other call made between.  The CPU model
    and {!pure_machine} never do; the accelerator model does at every DMA
    access, until the bus has carried it. *)

val pending : Value.t
(** A [load]'s pending answer, physically unique. *)

type t
(** A kernel compiled against a machine, stopped before its next step. *)

val start : ?fuel:int -> Ir.t -> machine -> t
(** Compile the kernel; nothing runs until {!resume}.  [fuel] bounds total
    [While] iterations (default 100 million).

    Values are unboxed.  Every expression has a type ({!Ir.infer}; a
    parameter is an int unless it is a stored value), and compiles to a
    closure over an int or a float frame; locals live in these frames and
    scratch memories are int or float arrays.  A local has one type: a
    kernel that assigns a local values of both types is refused here with
    [Value.Type_error "local x changes type"].  An operand of the other type
    than its operator or context needs raises [Value.as_int]'s or
    [Value.as_float]'s error once its value is known, and so does a load
    or parameter whose answer is not of its buffer element's or context's
    type, as it arrives.  A [Value.t] is built only where a value
    crosses the machine boundary: a DMA store's value, which is a loaded
    element or parameter as the machine gave it, or else boxed by its type.

    Compilation resolves everything that depends only on the kernel: locals
    to frame slots (reading one never assigned raises
    [Value.Type_error "unbound local x"]; only a read that some path reaches
    unassigned pays for the check), buffers to scratch arrays or machine
    handles, [Load]'s [dependent] flags, operators, constants and jump
    targets.  The body becomes a flat array of steps, and every machine
    [load], [store] and [copy] ends a step, after the ops and index
    arithmetic before it, so the stack does not grow with the trip count.
    Nothing is cached across calls.  Raises [Invalid_argument] if the
    machine's [ops] is not one count per class. *)

val resume : t -> bool
(** Run until the kernel finishes ([true]) or a machine call answers
    pending ([false]).  An exception from the kernel or the machine
    propagates and ends the run.

    The sequence of completed machine calls is part of the contract: every
    machine sees its [load], [store], [copy] and [param] calls in tree order
    (operands left to right, an index before a stored value), with the same
    arguments, up to and including the call that raises, however often it
    answers pending.  Each executed op adds one to its class in [ops] in
    the same order (an operator after its operands, a branch before its
    condition), so the counts a call finds are those of every op before
    it.  A [For] evaluates [lo] then [hi] once; its variable holds [lo] on a
    zero-trip loop and [max lo hi] afterwards, and writes to it in the body
    do not change the trip count.

    Scratch memories ({!Ir.t.scratch}) are handled entirely inside the
    interpreter: they are zero-initialised arrays private to the run, their
    accesses count as [Sram], and they never reach the machine's
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
(** The reference machine: buffers are plain arrays, costs are counted in
    its [ops] and read by no one, and a buffer's handle is its position in
    [bufs] (an unknown name raises [Invalid_argument] when the kernel is
    compiled).  Out-of-range indices raise [Invalid_argument] — the
    reference semantics has no out-of-bounds behaviour to exploit; only the
    hardware models do. *)

val cost_of_binop : Ir.binop -> cost
val cost_of_unop : Ir.unop -> cost
