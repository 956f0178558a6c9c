(** HLS synthesis directives — the stand-in for Vitis HLS.

    The paper generates each benchmark's accelerator with Vitis HLS; the
    resulting hardware differs in parallelism, pipelining and memory-port
    organization.  Here those differences are captured as per-kernel
    directives that the accelerator model consumes.  They are performance/area
    knobs only: the protection model never depends on them (the CapChecker
    treats the accelerator as a black box behind its memory interface). *)

type t = {
  compute_ipc : float;
      (** sustained kernel-IR operations per cycle of the synthesized
          datapath (unroll × pipelining); CPUs are ~0.3-1, accelerators
          reach hundreds *)
  max_outstanding : int;
      (** streaming read requests in flight before the FU stalls *)
  fine_ports : bool;
      (** the accelerator exposes one memory port (or hardened interface
          metadata) per object — enables the CapChecker's Fine mode *)
  area_luts : int;  (** synthesized area of one FU instance *)
}

val default : t
(** A modest pipelined accelerator: ipc 16, 8 outstanding, fine ports,
    8k LUTs. *)

val make :
  ?compute_ipc:float ->
  ?max_outstanding:int ->
  ?fine_ports:bool ->
  ?area_luts:int ->
  unit ->
  t

(** {1 Synthesis}

    [synthesize] is the stand-in for invoking Vitis HLS on (kernel source,
    directive set): it elaborates the kernel IR into a [design] — the port
    map, static datapath schedule statistics and the performance/area
    figures the system model consumes.  A design depends only on the kernel
    and the directives, never on launch parameters or system state.  The
    walk takes microseconds, so every call synthesizes afresh. *)

type design = {
  d_kernel : string;         (** kernel name *)
  d_directives : t;          (** the directive set synthesized under *)
  d_ports : int;             (** DMA-visible memory ports (= heap buffers) *)
  d_scratch_mems : int;      (** accelerator-internal BRAMs *)
  d_static_ops : int;        (** datapath operation nodes in the schedule *)
  d_loop_depth : int;        (** deepest loop nest *)
  d_buffer_bytes : int;      (** total heap-buffer footprint in bytes *)
  d_compute_ipc : float;     (** as {!field:compute_ipc} *)
  d_max_outstanding : int;   (** as {!field:max_outstanding} *)
  d_fine_ports : bool;       (** as {!field:fine_ports} *)
  d_area_luts : int;         (** as {!field:area_luts} *)
}

val synthesize : kernel:Kernel.Ir.t -> t -> design

val synthesize_uncached : kernel:Kernel.Ir.t -> t -> design
(** Alias of {!synthesize}, kept for the frozen [bench/perf] harness and
    deleted at the next benchmark revision. *)

val cache_stats : unit -> int * int
(** Always [(0, 0)]: there is no design cache.  Kept for the frozen
    [bench/perf] harness and deleted at the next benchmark revision. *)
