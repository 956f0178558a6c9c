(* Quickstart: build the paper's headline system (CHERI CPU + CapChecker in
   Fine mode), offload a matrix multiply to a CHERI-unaware accelerator, and
   watch the CapChecker do its two jobs: stay out of the way of legal DMA,
   and stop an out-of-bounds access dead.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A heterogeneous system: CHERI-RV64 CPU, 8 accelerator instances,
        a 256-entry CapChecker on the DMA path. *)
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  let result = Soc.Run.run ~tasks:1 Soc.Config.ccpu_caccel bench in
  Printf.printf "offloaded %s: %d cycles (alloc %d / init %d / compute %d / teardown %d)\n"
    result.Soc.Run.benchmark result.Soc.Run.wall result.Soc.Run.phases.Soc.Run.alloc
    result.Soc.Run.phases.Soc.Run.init result.Soc.Run.phases.Soc.Run.compute
    result.Soc.Run.phases.Soc.Run.teardown;
  Printf.printf "functionally correct vs reference semantics: %b\n" result.Soc.Run.correct;
  Printf.printf "DMA transactions checked: %d, denied: %d\n\n" result.Soc.Run.checks
    (List.length result.Soc.Run.denials);

  (* 2. The same offload on the baseline CPU, for the speedup headline. *)
  let cpu = Soc.Run.run ~tasks:1 Soc.Config.cpu bench in
  Printf.printf "CPU-only compute: %d cycles -> accelerator speedup %.1fx\n\n"
    cpu.Soc.Run.phases.Soc.Run.compute
    (float_of_int cpu.Soc.Run.phases.Soc.Run.compute
    /. float_of_int result.Soc.Run.phases.Soc.Run.compute);

  (* 3. Now a buggy (or malicious) kernel: same accelerator, but one index
        runs past its buffer.  The CapChecker blocks the access, raises its
        exception flag, and the driver scrubs and reports. *)
  let open Kernel.Ir in
  let buggy =
    {
      name = "buggy_copy";
      bufs = [ buf ~writable:false "src" I64 16; buf "dst" I64 16 ];
      scratch = [];
      body =
        [
          (* off-by-4096: classic CWE-787. *)
          for_ "j" (i 0) (i 16)
            [ store "dst" (v "j" +: i 4096) (ld "src" (v "j")) ];
        ];
    }
  in
  let sys = Soc.System.create Soc.Config.ccpu_caccel in
  let driver = Option.get sys.Soc.System.driver in
  let allocated =
    match Driver.allocate driver buggy with
    | Ok a -> a
    | Error msg -> failwith msg
  in
  let outcome =
    Accel.Engine.run ~mem:sys.Soc.System.mem ~bus:sys.Soc.System.bus
      ~directives:Hls.Directives.default ~addressing:Accel.Engine.Fine_ports
      ~naive_tag_writes:false
      (Accel.Engine.Adj_live (Soc.System.guard sys)) Accel.Engine.Interpret
      {
        Accel.Engine.instance = allocated.Driver.handle.Driver.task_id;
        kernel = buggy;
        layout = allocated.Driver.handle.Driver.layout;
        params = [];
        obj_ids = allocated.Driver.handle.Driver.obj_ids;
      }
  in
  (match outcome.Accel.Engine.denied with
  | Some denial ->
      Printf.printf "buggy kernel stopped by the CapChecker: %s\n"
        denial.Guard.Iface.detail
  | None -> print_endline "!? the out-of-bounds store was not caught");
  let report =
    Driver.deallocate driver allocated.Driver.handle
      ~denied:outcome.Accel.Engine.denied
  in
  Printf.printf "driver teardown: exception_seen=%b, scrubbed %d bytes\n"
    report.Driver.exception_seen report.Driver.scrubbed_bytes
