(** Benchmark definitions: a kernel, its synthesis directives, deterministic
    input data, and the machinery to compute golden outputs.

    Input data is generated by pure hash functions of (buffer, index) so that
    every execution engine initializes identical data without sharing any
    mutable generator — the reference run and the hardware runs are then
    comparable element-for-element. *)

type t = {
  name : string;
  kernel : Kernel.Ir.t;
  directives : Hls.Directives.t;
  init : string -> int -> Kernel.Value.t;
      (** initial contents: buffer name, element index → value *)
  params : (string * Kernel.Value.t) list;
  output_bufs : string list;
      (** buffers whose final contents define functional correctness *)
  description : string;
}

val make :
  kernel:Kernel.Ir.t ->
  directives:Hls.Directives.t ->
  init:(string -> int -> Kernel.Value.t) ->
  ?params:(string * Kernel.Value.t) list ->
  output_bufs:string list ->
  description:string ->
  unit ->
  t
(** Validates the kernel ({!Kernel.Ir.validate}) — a benchmark with a broken
    kernel fails at construction, not mid-experiment. *)

val golden : t -> (string * Kernel.Value.t array) list
(** Reference execution on plain arrays: the expected final contents of every
    heap buffer.  Memoized per (name, params) in a domain-safe
    {!Ccsim.Memo}; each call returns fresh copies of the arrays. *)

val initial_array : t -> Kernel.Ir.buf_decl -> Kernel.Value.t array

(** {1 Deterministic data generators} *)

val hash_float : string -> int -> float
(** Uniform-ish in [\[0, 1)], pure in its arguments. *)

val hash_int : string -> int -> bound:int -> int
(** Uniform-ish in [\[0, bound)]. *)
