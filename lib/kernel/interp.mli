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
  load : string -> idx:int -> dependent:bool -> Value.t;
  store : string -> idx:int -> Value.t -> unit;
  copy : dst:string -> src:string -> elems:int -> unit;
  tick : cost -> int -> unit;
  param : string -> Value.t;
}

val run : ?fuel:int -> Ir.t -> machine -> unit
(** Execute the kernel body.  [fuel] bounds total [While] iterations
    (default 100 million).

    Each call first compiles the kernel to closures, then runs them.
    Compilation resolves everything that depends only on the kernel: every
    local becomes a slot of one array (reading one never assigned raises
    [Value.Type_error "unbound local x"]), every scratch buffer its array,
    every other buffer a machine call, every [Load]'s [dependent] flag and
    every operator's cost class and operation are fixed, and constants are
    allocated once.  Nothing is cached across calls.

    The sequence of machine calls is part of the contract: every machine
    sees its [load], [store], [copy], [tick] and [param] calls in tree
    order (operands left to right, an index before a stored value, an
    operator's tick after its operands, a branch's tick before its
    condition), with the same arguments, up to and including the call that
    raises.  A [For] evaluates [lo] then [hi] once; its variable holds [lo]
    on a zero-trip loop and [max lo hi] afterwards, and writes to it in the
    body do not change the trip count.

    Scratch memories ({!Ir.t.scratch}) are handled entirely inside the
    interpreter: they are zero-initialised arrays private to the run, their
    accesses cost [Sram] ticks, and they never reach the machine's
    [load]/[store] — matching hardware, where internal BRAM traffic is
    invisible on the memory interface.  An out-of-range scratch index raises
    {!Aborted} (internal address wrap is not a DMA-visible event). *)

val pure_machine :
  bufs:(string * Value.t array) list ->
  ?params:(string * Value.t) list ->
  unit ->
  machine
(** The reference machine: buffers are plain arrays, costs are discarded.
    Out-of-range indices raise [Invalid_argument] — the reference semantics
    has no out-of-bounds behaviour to exploit; only the hardware models do. *)

val eval_binop : Ir.binop -> Value.t -> Value.t -> Value.t
val eval_unop : Ir.unop -> Value.t -> Value.t
val cost_of_binop : Ir.binop -> cost
val cost_of_unop : Ir.unop -> cost
