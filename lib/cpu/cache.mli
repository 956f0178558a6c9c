(** Direct-mapped write-allocate data cache of the CPU core.

    The accelerators in the prototype have {e no} cache (their DMA goes
    straight to the interconnect), so this model is what makes memory-bound
    kernels faster on the CPU than on the accelerator — the effect behind the
    sub-1x speedups of bfs/md_knn/stencil2d in Figure 7. *)

type config = {
  size_bytes : int;      (** total capacity (default 16 KiB) *)
  line_bytes : int;      (** line size (default 64) *)
  hit_cycles : int;      (** default 1 *)
  miss_cycles : int;     (** fill from DRAM (default 25) *)
}

val default_config : config

type t

val create : ?obs:Obs.Trace.t -> ?core:int -> config -> t
(** Raises [Invalid_argument] unless [size_bytes] and [line_bytes] are
    powers of two and the line is no larger than the cache.  [obs] (default
    {!Obs.Trace.null}) receives a [Cache_hit]/[Cache_miss] event per access,
    attributed to track [core] (default 0).  Tracing never alters the cycle
    accounting. *)

val access : t -> addr:int -> int
(** Cycles for one access at a non-negative [addr]; updates the tag array. *)

val touch_range : t -> addr:int -> size:int -> int
(** Cycles for streaming sequentially over a range (one access per line). *)

val hits : t -> int
val misses : t -> int
val reset : t -> unit
