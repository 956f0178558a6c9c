type t = {
  compute_ipc : float;
  max_outstanding : int;
  fine_ports : bool;
  area_luts : int;
}

let default =
  { compute_ipc = 16.0; max_outstanding = 8; fine_ports = true; area_luts = 8_000 }

let make ?(compute_ipc = default.compute_ipc)
    ?(max_outstanding = default.max_outstanding)
    ?(fine_ports = default.fine_ports) ?(area_luts = default.area_luts) () =
  assert (compute_ipc > 0.0);
  assert (max_outstanding >= 1);
  { compute_ipc; max_outstanding; fine_ports; area_luts }

(* ------------------------------------------------------------------ *)
(* Synthesis: (kernel, directives) -> design                            *)
(* ------------------------------------------------------------------ *)

type design = {
  d_kernel : string;
  d_directives : t;
  d_ports : int;
  d_scratch_mems : int;
  d_static_ops : int;
  d_loop_depth : int;
  d_buffer_bytes : int;
  d_compute_ipc : float;
  d_max_outstanding : int;
  d_fine_ports : bool;
  d_area_luts : int;
}

(* The schedule walk: count the datapath operations each statement
   elaborates to (one per expression node, matching the interpreter's tick
   accounting) and the deepest loop nest, without executing anything.  This
   is the pure, launch-parameter-independent part of "running Vitis HLS";
   it costs microseconds, so it is not cached. *)
let rec exp_ops (e : Kernel.Ir.exp) =
  match e with
  | Kernel.Ir.Int _ | Kernel.Ir.Flt _ | Kernel.Ir.Var _ | Kernel.Ir.Param _ -> 1
  | Kernel.Ir.Load (_, idx) -> 1 + exp_ops idx
  | Kernel.Ir.Bin (_, a, b) -> 1 + exp_ops a + exp_ops b
  | Kernel.Ir.Un (_, a) -> 1 + exp_ops a

let rec stmt_ops (s : Kernel.Ir.stmt) =
  match s with
  | Kernel.Ir.Let (_, e) -> exp_ops e
  | Kernel.Ir.Store (_, idx, value) -> 1 + exp_ops idx + exp_ops value
  | Kernel.Ir.For (_, lo, hi, body) -> exp_ops lo + exp_ops hi + body_ops body
  | Kernel.Ir.While (cond, body) -> exp_ops cond + body_ops body
  | Kernel.Ir.If (cond, then_, else_) ->
      exp_ops cond + body_ops then_ + body_ops else_
  | Kernel.Ir.Memcpy { elems; _ } -> 1 + exp_ops elems

and body_ops body = List.fold_left (fun acc s -> acc + stmt_ops s) 0 body

let rec stmt_depth (s : Kernel.Ir.stmt) =
  match s with
  | Kernel.Ir.Let _ | Kernel.Ir.Store _ | Kernel.Ir.Memcpy _ -> 0
  | Kernel.Ir.For (_, _, _, body) | Kernel.Ir.While (_, body) ->
      1 + body_depth body
  | Kernel.Ir.If (_, then_, else_) -> max (body_depth then_) (body_depth else_)

and body_depth body = List.fold_left (fun acc s -> max acc (stmt_depth s)) 0 body

let synthesize ~(kernel : Kernel.Ir.t) directives =
  {
    d_kernel = kernel.Kernel.Ir.name;
    d_directives = directives;
    d_ports = List.length kernel.Kernel.Ir.bufs;
    d_scratch_mems = List.length kernel.Kernel.Ir.scratch;
    d_static_ops = body_ops kernel.Kernel.Ir.body;
    d_loop_depth = body_depth kernel.Kernel.Ir.body;
    d_buffer_bytes =
      List.fold_left
        (fun acc b -> acc + Kernel.Ir.buf_decl_bytes b)
        0 kernel.Kernel.Ir.bufs;
    d_compute_ipc = directives.compute_ipc;
    d_max_outstanding = directives.max_outstanding;
    d_fine_ports = directives.fine_ports;
    d_area_luts = directives.area_luts;
  }

(* Stand-ins kept only for the frozen bench/perf harness; deleted at the next
   benchmark revision. *)
let synthesize_uncached = synthesize
let cache_stats () = (0, 0)
