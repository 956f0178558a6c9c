(** The CPU execution model — the Flute softcore of the prototype.

    Executes a kernel over tagged memory under a per-operation cycle cost
    model plus the data cache, in one of two ISA variants:

    - [Rv64]: the baseline RISC-V CPU.  No checking at all: an out-of-bounds
      index silently corrupts whatever it hits (bounded only by physical
      memory).
    - [Cheri_rv64]: the CHERI-extended CPU.  Every buffer argument is a
      capability derived at call time; every access is checked and a
      violation traps (raises {!Kernel.Interp.Aborted}).  Costs differ from
      the baseline in three calibrated ways: capability derivation at call
      boundaries, periodic extra cycles for capability-register traffic, and
      a 128-bit copy instruction that doubles [Memcpy] throughput — the
      effect that makes `gemm_blocked` {e faster} on the CHERI CPU (§6.3). *)

type isa = Rv64 | Cheri_rv64

type costs = {
  alu : int;
  imul : int;
  idiv : int;
  fadd : int;
  fmul : int;
  fdiv : int;
  fspec : int;
  branch : int;
}

val default_costs : costs

type config = {
  isa : isa;
  cache : Cache.config;
  costs : costs;
  cheri_reg_traffic_period : int;
      (** one extra cycle per this many memory accesses under CHERI
          (capability spill/reload pressure); ignored for [Rv64] *)
}

val config : isa -> config

type result = {
  cycles : int;
  loads : int;
  stores : int;
  cache_hits : int;
  cache_misses : int;
  trap : string option;
      (** [Some reason] when the CHERI CPU trapped on a violation; the
          baseline CPU never traps *)
}

val run :
  ?obs:Obs.Trace.t ->
  config ->
  Tagmem.Mem.t ->
  Kernel.Ir.t ->
  Memops.Layout.t ->
  ?params:(string * Kernel.Value.t) list ->
  unit ->
  result
(** Execute the kernel to completion (or trap) and account cycles: the
    interpreter's per-class op counts weighted by [costs] ([Sram] at one
    cycle), plus the cache, copy and capability-traffic cycles of every
    access.  [obs] (default {!Obs.Trace.null}) receives per-access cache
    events; the trace clock is advanced to the cycles accounted so far at
    every access, from whatever value it held at entry.  Tracing never alters
    the result. *)

val cap_setup_cycles : config -> n_bufs:int -> int
(** Call-boundary cost of deriving one bounded capability per buffer
    argument (zero for [Rv64]). *)

val init_store_cycles : config -> bytes:int -> int
(** Cost for the application to stream-initialize a buffer of [bytes]. *)

val area_luts : isa -> int
(** CPU core area (Flute ≈ 40k LUTs; the CHERI extension adds ~12%). *)
