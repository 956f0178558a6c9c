let () =
  Alcotest.run "cheri_capchecker"
    [
      ("sim", Test_sim.suite);
      ("pool", Test_pool.suite);
      ("sched", Test_sched.suite);
      ("cheri", Test_cheri.suite);
      ("tagmem", Test_tagmem.suite);
      ("bus", Test_bus.suite);
      ("kernel", Test_kernel.suite);
      ("memops", Test_memops.suite);
      ("cpu", Test_cpu.suite);
      ("riscv", Test_riscv.suite);
      ("differential", Test_differential.suite);
      ("guard", Test_guard.suite);
      ("capchecker", Test_capchecker.suite);
      ("capchecker-cached", Test_cached.suite);
      ("capchecker-mmio", Test_mmio.suite);
      ("accel", Test_accel.suite);
      ("driver", Test_driver.suite);
      ("revoker", Test_revoker.suite);
      ("machsuite", Test_machsuite.suite);
      ("hls", Test_hls.suite);
      ("soc", Test_soc.suite);
      ("fault", Test_fault.suite);
      ("obs", Test_obs.suite);
      ("security", Test_security.suite);
      ("claims", Test_claims.suite);
      ("analysis", Test_analysis.suite);
      ("serve", Test_serve.suite);
      ("verify", Test_verify.suite);
      ("fastpath", Test_fastpath.suite);
      ("golden", Test_golden.suite);
    ]
