(* Recorded access scripts: the config-independent skeleton of a kernel's
   execution.

   Interpreting a kernel is the expensive half of the accelerator model —
   per-element datapath ops, functional memory effects, value arithmetic.
   But everything the *timing* layers consume is a pure function of the
   access sequence the interpretation emits: (gap, buffer, offset, size,
   kind, dependence) per transaction, plus op counts.  That sequence depends
   only on the kernel, its parameters and the synthesized directives — never
   on the protection config, the layout bases, or the guard — so it can be
   recorded once and re-derived into per-config traces ({!to_trace}) or
   driven through the live event core ({!drive_event}) without interpreting
   again.

   Exactness is the whole contract: both derivations mirror {!Engine}'s
   backend logic operation for operation — same adjudication call order
   against the same guard (so even stateful schemes like the cached
   CapChecker or the shim fleet see the identical check sequence), same
   burst-formation decisions against the per-system bus addresses, same
   counter updates on the same schedule (so a denial mid-script truncates
   checks/reads/writes/ops exactly where the interpreter would), and the
   same bus-error behaviour for accesses escaping physical memory.  The
   differential suite pins byte-for-byte equality against the interpretive
   engine. *)

type addressing = Plain | Coarse_ids | Fine_ports

type op =
  | Access of {
      a_gap : int;
      a_kind : Guard.Iface.kind;
      a_buf : int;
      a_off : int;   (* byte offset within the buffer *)
      a_size : int;
      a_dependent : bool;
      a_ops : int;   (* datapath ops executed before this access issued *)
    }
  | Copy of {
      y_gap : int;
      y_bytes : int;
      y_src : int;
      y_dst : int;
      y_ops : int;
    }

type t = {
  s_bufs : string array;  (* buffer index -> declared name *)
  s_ops : op array;
  s_total_ops : int;
}

let length s = Array.length s.s_ops
let total_ops s = s.s_total_ops

module Recorder = struct
  type t = {
    mutable r_ops : op list;  (* reversed *)
    mutable r_count : int;
    r_names : (string, int * int) Hashtbl.t;  (* name -> (index, extent) *)
    mutable r_bufs : string list;  (* reversed *)
    r_extent : string -> int;
  }

  exception Escaped

  let create ~extent =
    { r_ops = []; r_count = 0; r_names = Hashtbl.create 8; r_bufs = [];
      r_extent = extent }

  (* Index of buffer [name], after checking that [off, off + size) lies
     inside its extent. *)
  let buf_idx r name ~off ~size =
    let idx, extent =
      match Hashtbl.find_opt r.r_names name with
      | Some b -> b
      | None ->
          let b = (Hashtbl.length r.r_names, r.r_extent name) in
          Hashtbl.add r.r_names name b;
          r.r_bufs <- name :: r.r_bufs;
          b
    in
    if off < 0 || off + size > extent then raise Escaped;
    idx

  let access r ~gap ~kind ~name ~off ~size ~dependent ~ops =
    r.r_ops <-
      Access
        { a_gap = gap; a_kind = kind; a_buf = buf_idx r name ~off ~size;
          a_off = off; a_size = size; a_dependent = dependent; a_ops = ops }
      :: r.r_ops;
    r.r_count <- r.r_count + 1

  let copy r ~gap ~bytes ~src ~dst ~ops =
    r.r_ops <-
      Copy
        { y_gap = gap; y_bytes = bytes; y_src = buf_idx r src ~off:0 ~size:bytes;
          y_dst = buf_idx r dst ~off:0 ~size:bytes; y_ops = ops }
      :: r.r_ops;
    r.r_count <- r.r_count + 1

  let finalize r ~total_ops ~complete =
    if not complete then None
    else
      Some
        { s_bufs = Array.of_list (List.rev r.r_bufs);
          s_ops =
            (let arr = Array.make r.r_count (Copy { y_gap = 0; y_bytes = 0; y_src = 0; y_dst = 0; y_ops = 0 }) in
             List.iteri (fun i op -> arr.(r.r_count - 1 - i) <- op) r.r_ops;
             arr);
          s_total_ops = total_ops }
end

type adjudication =
  | Adj_live of Guard.Iface.t
  | Adj_fastpath of int
  | Adj_elide

(* Per-derivation environment: buffer bases/ids resolved once against this
   system's layout, plus the counters both derivations maintain on the
   interpreter's exact schedule. *)
type env = {
  e_base : int array;      (* plain physical base per buffer *)
  e_bus_base : int array;  (* bus-visible base (Coarse_ids composes the id) *)
  e_port : int option array;
  e_mem_size : int;
  e_source : int;
  e_adj : adjudication;
  mutable v_checks : int;
  mutable v_elided : int;
  mutable v_fastpathed : int;
  mutable v_reads : int;
  mutable v_writes : int;
  mutable v_ops : int;
  mutable v_latency : int;  (* checker latency of the last grant *)
}

exception Denied of Guard.Iface.denial

let make_env s ~mem_size ~layout ~obj_ids ~addressing ~source adj =
  let n = Array.length s.s_bufs in
  let e_base = Array.make n 0
  and e_bus_base = Array.make n 0
  and e_port = Array.make n None in
  Array.iteri
    (fun i name ->
      let b = Memops.Layout.find layout name in
      let obj_of () =
        match List.assoc_opt name obj_ids with
        | Some obj -> obj
        | None -> invalid_arg ("Accel.Engine: no object id for buffer " ^ name)
      in
      e_base.(i) <- b.Memops.Layout.base;
      (e_bus_base.(i) <-
         (match addressing with
         | Plain | Fine_ports -> b.Memops.Layout.base
         | Coarse_ids ->
             Capchecker.Checker.compose_coarse ~obj:(obj_of ())
               b.Memops.Layout.base));
      e_port.(i) <-
        (match addressing with
        | Fine_ports -> Some (obj_of ())
        | Plain | Coarse_ids -> None))
    s.s_bufs;
  { e_base; e_bus_base; e_port; e_mem_size = mem_size; e_source = source;
    e_adj = adj; v_checks = 0; v_elided = 0; v_fastpathed = 0; v_reads = 0;
    v_writes = 0; v_ops = 0; v_latency = 0 }

(* One guard decision, mirroring {!Engine}'s [adjudicate] exactly: counter
   updates first, then the outcome (a denial unwinds with counters already
   advanced, as the interpreter's would).  Returns the granted physical
   address and leaves the grant's latency in [v_latency]. *)
let adjudicate env ~buf ~addr ~plain ~size ~kind =
  match env.e_adj with
  | Adj_elide ->
      env.v_elided <- env.v_elided + 1;
      env.v_latency <- 0;
      plain
  | Adj_fastpath l ->
      env.v_checks <- env.v_checks + 1;
      env.v_fastpathed <- env.v_fastpathed + 1;
      env.v_latency <- l;
      plain
  | Adj_live guard -> (
      env.v_checks <- env.v_checks + 1;
      let req =
        { Guard.Iface.source = env.e_source; port = env.e_port.(buf); addr;
          size; kind }
      in
      match guard.Guard.Iface.check req with
      | Guard.Iface.Granted { phys; latency } ->
          env.v_latency <- latency;
          phys
      | Guard.Iface.Denied denial -> raise (Denied denial))

(* The interpreter performs the data movement after counting the access; an
   address escaping physical memory surfaces there as [Tagmem.Mem.
   Out_of_range], which {!Engine.run_core} reports as a bus-error denial.
   Mirror the check (and the exact denial text) without touching memory. *)
let bounds_check env ~phys ~size =
  if phys < 0 || size < 0 || phys + size > env.e_mem_size then
    raise
      (Denied
         { Guard.Iface.code = "bus";
           detail = Printf.sprintf "bus error at 0x%x+%d" phys size })

type derived = {
  d_trace : Trace.t;
  d_denied : Guard.Iface.denial option;
  d_checks : int;
  d_elided : int;
  d_fastpathed : int;
  d_reads : int;
  d_writes : int;
  d_ops : int;
}

let to_trace s ~bus ~mem_size ~layout ~obj_ids ~addressing ~source adj =
  let env = make_env s ~mem_size ~layout ~obj_ids ~addressing ~source adj in
  let trace = Trace.create () in
  let max_burst = bus.Bus.Params.max_burst in
  let denied =
    try
      Array.iter
        (fun op ->
          match op with
          | Access { a_gap; a_kind; a_buf; a_off; a_size; a_dependent; a_ops }
            ->
              env.v_ops <- a_ops;
              let addr = env.e_bus_base.(a_buf) + a_off in
              let plain = env.e_base.(a_buf) + a_off in
              let phys =
                adjudicate env ~buf:a_buf ~addr ~plain ~size:a_size
                  ~kind:a_kind
              in
              Trace.add_access trace ~bus ~max_burst ~gap:a_gap ~kind:a_kind
                ~addr ~size:a_size ~dependent:a_dependent
                ~latency:env.v_latency;
              (match a_kind with
              | Guard.Iface.Read -> env.v_reads <- env.v_reads + 1
              | Guard.Iface.Write -> env.v_writes <- env.v_writes + 1);
              bounds_check env ~phys ~size:a_size
          | Copy { y_gap; y_bytes; y_src; y_dst; y_ops } ->
              env.v_ops <- y_ops;
              if y_bytes > 0 then begin
                let src_phys =
                  adjudicate env ~buf:y_src ~addr:env.e_bus_base.(y_src)
                    ~plain:env.e_base.(y_src) ~size:y_bytes
                    ~kind:Guard.Iface.Read
                in
                let rd_latency = env.v_latency in
                let dst_phys =
                  adjudicate env ~buf:y_dst ~addr:env.e_bus_base.(y_dst)
                    ~plain:env.e_base.(y_dst) ~size:y_bytes
                    ~kind:Guard.Iface.Write
                in
                let wr_latency = env.v_latency in
                let beats_left = ref (Bus.Params.beats_for bus y_bytes) in
                let copy_gap = ref y_gap in
                while !beats_left > 0 do
                  let beats = min !beats_left max_burst in
                  beats_left := !beats_left - beats;
                  Trace.add trace
                    { Trace.gap = !copy_gap; kind = Guard.Iface.Read; beats;
                      dependent = false; latency = rd_latency };
                  Trace.add trace
                    { Trace.gap = 0; kind = Guard.Iface.Write; beats;
                      dependent = false; latency = wr_latency };
                  copy_gap := 0
                done;
                env.v_reads <- env.v_reads + 1;
                env.v_writes <- env.v_writes + 1;
                bounds_check env ~phys:src_phys ~size:y_bytes;
                bounds_check env ~phys:dst_phys ~size:y_bytes
              end)
        s.s_ops;
      env.v_ops <- s.s_total_ops;
      None
    with Denied denial -> Some denial
  in
  { d_trace = trace; d_denied = denied; d_checks = env.v_checks;
    d_elided = env.v_elided; d_fastpathed = env.v_fastpathed;
    d_reads = env.v_reads; d_writes = env.v_writes; d_ops = env.v_ops }

type ev_derived = {
  e_denied : Guard.Iface.denial option;
  e_checks : int;
  e_elided : int;
  e_fastpathed : int;
  e_reads : int;
  e_writes : int;
  e_ops : int;
  e_finish : int;
  e_failed : bool;
}

(* Mirror of {!Engine}'s event-backend burst state: one record per task,
   reused for every burst; [pb_live] says whether it holds one. *)
type pending = {
  mutable pb_live : bool;
  mutable pb_gap : int;
  mutable pb_kind : Guard.Iface.kind;
  mutable pb_dependent : bool;
  mutable pb_latency : int;
  mutable pb_target : int;
  mutable pb_end : int;
  mutable pb_bytes : int;
}

let drive_event s ?error_retry_limit ~sched ~ic ~start ~bus ~mem_size
    ~max_outstanding ~layout ~obj_ids ~addressing ~source adj ~on_done =
  Ccsim.Sched.spawn sched ~at:start (fun () ->
      let env = make_env s ~mem_size ~layout ~obj_ids ~addressing ~source adj in
      let flow =
        Flow.create ?error_retry_limit ~sched ~ic ~src:source ~start
          ~max_outstanding ()
      in
      let max_burst = bus.Bus.Params.max_burst in
      let p =
        { pb_live = false; pb_gap = 0; pb_kind = Guard.Iface.Read;
          pb_dependent = false; pb_latency = 0; pb_target = 0; pb_end = 0;
          pb_bytes = 0 }
      in
      let flush () =
        if p.pb_live then begin
          p.pb_live <- false;
          Flow.issue flow ~target:p.pb_target ~gap:p.pb_gap ~kind:p.pb_kind
            ~beats:(Bus.Params.beats_for bus p.pb_bytes)
            ~dependent:p.pb_dependent ~latency:p.pb_latency
        end
      in
      let step = function
        | Access { a_gap; a_kind; a_buf; a_off; a_size; a_dependent; a_ops } ->
            env.v_ops <- a_ops;
            let addr = env.e_bus_base.(a_buf) + a_off in
            let plain = env.e_base.(a_buf) + a_off in
            let phys =
              if
                p.pb_live && a_gap = 0 && (not a_dependent) && addr = p.pb_end
                && p.pb_kind = a_kind && (not p.pb_dependent)
                && Bus.Params.beats_for bus (p.pb_bytes + a_size) <= max_burst
              then begin
                let phys =
                  adjudicate env ~buf:a_buf ~addr ~plain ~size:a_size
                    ~kind:a_kind
                in
                p.pb_bytes <- p.pb_bytes + a_size;
                p.pb_end <- addr + a_size;
                phys
              end
              else begin
                flush ();
                Ccsim.Sched.wait sched a_gap;
                let phys =
                  adjudicate env ~buf:a_buf ~addr ~plain ~size:a_size
                    ~kind:a_kind
                in
                p.pb_live <- true;
                p.pb_gap <- a_gap;
                p.pb_kind <- a_kind;
                p.pb_dependent <- a_dependent;
                p.pb_latency <- env.v_latency;
                p.pb_target <- Bus.Topology.target_for ic ~addr:phys;
                p.pb_end <- addr + a_size;
                p.pb_bytes <- a_size;
                phys
              end
            in
            (match a_kind with
            | Guard.Iface.Read -> env.v_reads <- env.v_reads + 1
            | Guard.Iface.Write -> env.v_writes <- env.v_writes + 1);
            bounds_check env ~phys ~size:a_size
        | Copy { y_gap; y_bytes; y_src; y_dst; y_ops } ->
            env.v_ops <- y_ops;
            if y_bytes > 0 then begin
              flush ();
              Ccsim.Sched.wait sched y_gap;
              let src_phys =
                adjudicate env ~buf:y_src ~addr:env.e_bus_base.(y_src)
                  ~plain:env.e_base.(y_src) ~size:y_bytes
                  ~kind:Guard.Iface.Read
              in
              let rd_latency = env.v_latency in
              let dst_phys =
                adjudicate env ~buf:y_dst ~addr:env.e_bus_base.(y_dst)
                  ~plain:env.e_base.(y_dst) ~size:y_bytes
                  ~kind:Guard.Iface.Write
              in
              let wr_latency = env.v_latency in
              let beats_left = ref (Bus.Params.beats_for bus y_bytes) in
              let copy_gap = ref y_gap in
              let off = ref 0 in
              while !beats_left > 0 do
                let beats = min !beats_left max_burst in
                beats_left := !beats_left - beats;
                Flow.issue flow
                  ~target:(Bus.Topology.target_for ic ~addr:(src_phys + !off))
                  ~gap:!copy_gap ~kind:Guard.Iface.Read ~beats
                  ~dependent:false ~latency:rd_latency;
                Flow.issue flow
                  ~target:(Bus.Topology.target_for ic ~addr:(dst_phys + !off))
                  ~gap:0 ~kind:Guard.Iface.Write ~beats ~dependent:false
                  ~latency:wr_latency;
                copy_gap := 0;
                off := !off + (beats * bus.Bus.Params.beat_bytes)
              done;
              env.v_reads <- env.v_reads + 1;
              env.v_writes <- env.v_writes + 1;
              bounds_check env ~phys:src_phys ~size:y_bytes;
              bounds_check env ~phys:dst_phys ~size:y_bytes
            end
      in
      let failed = ref false in
      let denied =
        match Array.iter step s.s_ops with
        | () -> (
            env.v_ops <- s.s_total_ops;
            match flush () with
            | () -> None
            | exception Flow.Failed ->
                failed := true;
                None)
        | exception Denied denial -> (
            match flush () with
            | () -> Some denial
            | exception Flow.Failed ->
                failed := true;
                Some denial)
        | exception Flow.Failed ->
            failed := true;
            None
      in
      on_done
        { e_denied = denied; e_checks = env.v_checks; e_elided = env.v_elided;
          e_fastpathed = env.v_fastpathed; e_reads = env.v_reads;
          e_writes = env.v_writes; e_ops = env.v_ops;
          e_finish = Flow.finish flow; e_failed = !failed })
