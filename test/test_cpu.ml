(* The CPU model: cache behaviour, cost accounting, ISA deltas (CHERI traps,
   copy width, capability traffic). *)

open Kernel.Ir

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- cache ---------------- *)

let test_cache_hit_miss () =
  let c = Cpu.Cache.create Cpu.Cache.default_config in
  let miss = Cpu.Cache.access c ~addr:0 in
  let hit = Cpu.Cache.access c ~addr:8 in
  checki "first touch misses" Cpu.Cache.default_config.miss_cycles miss;
  checki "same line hits" Cpu.Cache.default_config.hit_cycles hit;
  checki "hits" 1 (Cpu.Cache.hits c);
  checki "misses" 1 (Cpu.Cache.misses c)

let test_cache_conflict_eviction () =
  let c = Cpu.Cache.create Cpu.Cache.default_config in
  let size = Cpu.Cache.default_config.size_bytes in
  ignore (Cpu.Cache.access c ~addr:0);
  ignore (Cpu.Cache.access c ~addr:size);  (* same set, different line *)
  let again = Cpu.Cache.access c ~addr:0 in
  checki "evicted line misses again" Cpu.Cache.default_config.miss_cycles again

let test_cache_touch_range () =
  let c = Cpu.Cache.create Cpu.Cache.default_config in
  let cycles = Cpu.Cache.touch_range c ~addr:0 ~size:256 in
  (* 256 bytes = 4 lines, all cold. *)
  checki "four line fills" (4 * Cpu.Cache.default_config.miss_cycles) cycles;
  checki "zero-size range free" 0 (Cpu.Cache.touch_range c ~addr:0 ~size:0)

let test_cache_reset () =
  let c = Cpu.Cache.create Cpu.Cache.default_config in
  ignore (Cpu.Cache.access c ~addr:0);
  Cpu.Cache.reset c;
  checki "stats cleared" 0 (Cpu.Cache.misses c);
  checki "cold again" Cpu.Cache.default_config.miss_cycles (Cpu.Cache.access c ~addr:0)

let test_cache_refuses_non_powers_of_two () =
  let refused cfg =
    match Cpu.Cache.create cfg with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let d = Cpu.Cache.default_config in
  checkb "size 3000" true (refused { d with size_bytes = 3000 });
  checkb "line 48" true (refused { d with line_bytes = 48 });
  checkb "line 0" true (refused { d with line_bytes = 0 });
  checkb "line larger than the cache" true
    (refused { d with size_bytes = 32; line_bytes = 64 });
  checkb "one-line cache" false (refused { d with size_bytes = 64; line_bytes = 64 })

(* Hit/miss sequences of fixed address streams, pinned from the model when
   it divided by the line size and the line count. *)
let test_cache_sequence_pinned () =
  let seq cfg addrs =
    let c = Cpu.Cache.create cfg in
    String.concat ""
      (List.map
         (fun addr -> if Cpu.Cache.access c ~addr = cfg.Cpu.Cache.hit_cycles then "h" else "m")
         addrs)
  in
  let lcg x = (x * 1103515245 + 12345) land 0x3fffffff in
  let x = ref 7 in
  let local =
    List.init 64 (fun j ->
        x := lcg !x;
        if j mod 3 = 0 then !x land 0x3ff else (j * 4) land 0x1ff)
  in
  let small = { Cpu.Cache.size_bytes = 256; line_bytes = 16; hit_cycles = 1; miss_cycles = 9 } in
  Alcotest.(check string) "256 B cache, 16 B lines"
    "mmhmmhhhmmhhmmhmmhmhmmhhmmhhmhmhmhhhmmhmmhmhmhhhmmhmmhmhmmhhmmhm" (seq small local);
  let x = ref 12345 in
  let far =
    List.init 20_000 (fun j ->
        x := lcg !x;
        if j mod 5 = 0 then (!x lsr 4) land 0xffff else ((j * 24) + (!x land 0x3f)) land 0x7fff)
  in
  let s = seq Cpu.Cache.default_config far in
  checki "default cache hits" 10391
    (String.fold_left (fun n ch -> if ch = 'h' then n + 1 else n) 0 s);
  Alcotest.(check string) "default cache sequence digest" "13ae112cf666c6f84c0b03fc7994a498"
    (Digest.to_hex (Digest.string s))

(* ---------------- model ---------------- *)

let setup_layout kernel =
  let mem = Tagmem.Mem.create ~size:(1 lsl 20) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 20) - 4096) in
  let bindings =
    List.map
      (fun (decl : buf_decl) ->
        let bytes = Kernel.Ir.buf_decl_bytes decl in
        let align, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
        { Memops.Layout.decl; base = Tagmem.Alloc.malloc heap ~align padded })
      kernel.bufs
  in
  (mem, Memops.Layout.make bindings)

let sum_kernel =
  {
    name = "sum";
    bufs = [ buf ~writable:false "a" I64 64; buf "out" I64 1 ];
    scratch = [];
    body =
      [
        let_ "acc" (i 0);
        for_ "j" (i 0) (i 64) [ let_ "acc" (v "acc" +: ld "a" (v "j")) ];
        store "out" (i 0) (v "acc");
      ];
  }

let test_run_functional () =
  let mem, layout = setup_layout sum_kernel in
  let a = Memops.Layout.find layout "a" in
  Memops.Layout.init_buffer mem a (fun idx -> Kernel.Value.VI idx);
  let r = Cpu.Model.run (Cpu.Model.config Cpu.Model.Rv64) mem sum_kernel layout () in
  checkb "no trap" true (r.Cpu.Model.trap = None);
  let out = Memops.Layout.find layout "out" in
  checki "sum" 2016
    (Kernel.Value.as_int
       (Memops.Layout.read_elem mem Kernel.Ir.I64 ~addr:out.Memops.Layout.base));
  checki "loads" 64 r.Cpu.Model.loads;
  checki "stores" 1 r.Cpu.Model.stores;
  checkb "cycles positive" true (r.Cpu.Model.cycles > 0)

let test_cheri_run_matches_functionally () =
  let mem1, layout1 = setup_layout sum_kernel in
  let mem2, layout2 = setup_layout sum_kernel in
  List.iter
    (fun (mem, layout) ->
      Memops.Layout.init_buffer mem
        (Memops.Layout.find layout "a")
        (fun idx -> Kernel.Value.VI (idx * 3)))
    [ (mem1, layout1); (mem2, layout2) ];
  let r1 = Cpu.Model.run (Cpu.Model.config Cpu.Model.Rv64) mem1 sum_kernel layout1 () in
  let r2 =
    Cpu.Model.run (Cpu.Model.config Cpu.Model.Cheri_rv64) mem2 sum_kernel layout2 ()
  in
  checkb "both clean" true (r1.Cpu.Model.trap = None && r2.Cpu.Model.trap = None);
  let read layout mem =
    let out = Memops.Layout.find layout "out" in
    Kernel.Value.as_int
      (Memops.Layout.read_elem mem Kernel.Ir.I64 ~addr:out.Memops.Layout.base)
  in
  checki "same result" (read layout1 mem1) (read layout2 mem2);
  checkb "cheri costs a little more" true (r2.Cpu.Model.cycles >= r1.Cpu.Model.cycles)

let oob_kernel =
  {
    name = "oob";
    bufs = [ buf "a" I64 8; buf "out" I64 1 ];
    scratch = [];
    body = [ store "out" (i 0) (ld "a" (i 200)) ];
  }

let test_cheri_traps_on_oob () =
  let mem, layout = setup_layout oob_kernel in
  let r = Cpu.Model.run (Cpu.Model.config Cpu.Model.Cheri_rv64) mem oob_kernel layout () in
  checkb "trapped" true (r.Cpu.Model.trap <> None)

let test_rv64_does_not_trap_on_oob () =
  (* The unprotected CPU silently reads whatever is there — that is the
     baseline's weakness, and the model must reproduce it. *)
  let mem, layout = setup_layout oob_kernel in
  let r = Cpu.Model.run (Cpu.Model.config Cpu.Model.Rv64) mem oob_kernel layout () in
  checkb "no trap" true (r.Cpu.Model.trap = None)

let test_cheri_traps_on_readonly_write () =
  let k =
    {
      name = "wro";
      bufs = [ buf ~writable:false "a" I64 8; buf "out" I64 1 ];
      scratch = [];
      (* Validation would reject a direct store; the attack path is memcpy
         semantics via an aliased kernel, so here we bypass validation and
         interpret directly (the CPU doesn't run the validator). *)
      body = [ Store ("a", i 0, i 1) ];
    }
  in
  let mem, layout = setup_layout k in
  let r = Cpu.Model.run (Cpu.Model.config Cpu.Model.Cheri_rv64) mem k layout () in
  checkb "trapped on read-only store" true (r.Cpu.Model.trap <> None)

let copy_kernel n =
  {
    name = "copy";
    bufs = [ buf ~writable:false "src" I64 n; buf "dst" I64 n ];
    scratch = [];
    body = [ memcpy ~dst:"dst" ~src:"src" ~elems:(i n) ];
  }

let test_cheri_copies_faster () =
  let k = copy_kernel 512 in
  let mem1, layout1 = setup_layout k in
  let mem2, layout2 = setup_layout k in
  let r1 = Cpu.Model.run (Cpu.Model.config Cpu.Model.Rv64) mem1 k layout1 () in
  let r2 = Cpu.Model.run (Cpu.Model.config Cpu.Model.Cheri_rv64) mem2 k layout2 () in
  checkb "128-bit copies beat 64-bit" true (r2.Cpu.Model.cycles < r1.Cpu.Model.cycles)

let test_cap_setup_cycles () =
  checki "rv64 free" 0
    (Cpu.Model.cap_setup_cycles (Cpu.Model.config Cpu.Model.Rv64) ~n_bufs:5);
  checkb "cheri pays per buffer" true
    (Cpu.Model.cap_setup_cycles (Cpu.Model.config Cpu.Model.Cheri_rv64) ~n_bufs:5 > 0)

let test_area () =
  checkb "cheri extension costs area" true
    (Cpu.Model.area_luts Cpu.Model.Cheri_rv64 > Cpu.Model.area_luts Cpu.Model.Rv64)

let suite =
  [
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache conflict", `Quick, test_cache_conflict_eviction);
    ("cache touch_range", `Quick, test_cache_touch_range);
    ("cache reset", `Quick, test_cache_reset);
    ("cache refuses non-powers of two", `Quick, test_cache_refuses_non_powers_of_two);
    ("cache hit/miss sequence pinned", `Quick, test_cache_sequence_pinned);
    ("functional run", `Quick, test_run_functional);
    ("cheri functional parity", `Quick, test_cheri_run_matches_functionally);
    ("cheri traps on OOB", `Quick, test_cheri_traps_on_oob);
    ("rv64 silent on OOB", `Quick, test_rv64_does_not_trap_on_oob);
    ("cheri traps on RO write", `Quick, test_cheri_traps_on_readonly_write);
    ("cheri memcpy faster", `Quick, test_cheri_copies_faster);
    ("cap setup cycles", `Quick, test_cap_setup_cycles);
    ("area", `Quick, test_area);
  ]
