(* lib/hls synthesis: a design is a function of the kernel IR it is given
   and the directives, nothing else. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let bench name = Machsuite.Registry.find name

let test_design_reflects_kernel () =
  let b = bench "aes" in
  let deeper =
    { b.directives with
      Hls.Directives.max_outstanding = b.directives.Hls.Directives.max_outstanding + 1 }
  in
  let d = Hls.Directives.synthesize ~kernel:b.kernel deeper in
  checki "one port per heap buffer" (List.length b.kernel.Kernel.Ir.bufs) d.Hls.Directives.d_ports;
  checki "scratch mems counted" (List.length b.kernel.Kernel.Ir.scratch) d.Hls.Directives.d_scratch_mems;
  checkb "datapath has ops" true (d.Hls.Directives.d_static_ops > 0);
  checkb "kernels have loops" true (d.Hls.Directives.d_loop_depth >= 1);
  checkb "buffers have bytes" true (d.Hls.Directives.d_buffer_bytes > 0);
  checki "area passes through" b.directives.Hls.Directives.area_luts d.Hls.Directives.d_area_luts;
  checki "outstanding passes through" (b.directives.Hls.Directives.max_outstanding + 1)
    d.Hls.Directives.d_max_outstanding

let test_same_name_own_design () =
  (* A design must come from the kernel it is given, not from an earlier
     kernel that happened to share its name. *)
  let b = bench "gemm_ncubed" in
  let k = b.kernel in
  let fewer = { k with Kernel.Ir.bufs = [ List.hd k.Kernel.Ir.bufs ] } in
  let d_all = Hls.Directives.synthesize ~kernel:k b.directives in
  let d_fewer = Hls.Directives.synthesize ~kernel:fewer b.directives in
  checki "all buffers" 3 d_all.Hls.Directives.d_ports;
  checki "one buffer" 1 d_fewer.Hls.Directives.d_ports

let suite =
  [
    ("design reflects kernel IR", `Quick, test_design_reflects_kernel);
    ("same kernel name, own design", `Quick, test_same_name_own_design);
  ]
