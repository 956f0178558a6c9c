(* The static footprint analysis: interval arithmetic, verdicts on crafted
   kernels, verdicts over the whole MachSuite registry, the differential
   property (proven ⇒ no dynamic denial; violation witness ⇒ reproducible
   denial), and the proven-task check-elision path. *)

open Kernel.Ir
module I = Analysis.Interval

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- intervals ---------------- *)

let ieq msg a b = checkb msg true (I.equal a b)

let test_interval_arith () =
  ieq "add" (I.make 3 12) (I.add (I.make 1 4) (I.make 2 8));
  ieq "sub" (I.make (-7) 2) (I.sub (I.make 1 4) (I.make 2 8));
  ieq "neg" (I.make (-4) (-1)) (I.neg (I.make 1 4));
  ieq "mul corners" (I.make (-8) 12)
    (I.mul (I.make (-2) 3) (I.make 1 4));
  ieq "mul negatives" (I.make 2 20) (I.mul (I.make (-5) (-1)) (I.make (-4) (-2)));
  checkb "unbounded add stays unbounded" true
    (not (I.is_bounded (I.add I.top (I.const 1))));
  ieq "const" (I.make 7 7) (I.const 7);
  (* literal-extreme endpoints are exact bounds, not infinity sentinels:
     negating/multiplying them must keep the true value inside *)
  checkb "neg const max_int keeps -max_int" true
    (I.mem (-max_int) (I.neg (I.const max_int)));
  checkb "neg const min_int covers +overflow" true
    ((I.neg (I.const min_int)).I.hi = max_int);
  checkb "sub near max_int keeps -1" true
    (I.mem (-1) (I.sub (I.const (max_int - 1)) (I.const max_int)));
  checkb "mul const max_int by -1 keeps -max_int" true
    (I.mem (-max_int) (I.mul (I.const max_int) (I.const (-1))))

let test_interval_lattice () =
  ieq "join" (I.make 0 9) (I.join (I.make 0 3) (I.make 5 9));
  (match I.meet (I.make 0 5) (I.make 3 9) with
  | Some m -> ieq "meet" (I.make 3 5) m
  | None -> Alcotest.fail "meet nonempty");
  checkb "meet empty" true (I.meet (I.make 0 2) (I.make 5 9) = None);
  checkb "mem" true (I.mem 4 (I.make 0 5));
  checkb "not mem" false (I.mem 6 (I.make 0 5));
  checkb "subset" true (I.subset (I.make 1 3) (I.make 0 5));
  let w = I.widen (I.make 0 4) (I.make 0 5) in
  checkb "widen blows moving hi" true (w.I.hi = max_int && w.I.lo = 0);
  ieq "widen stable" (I.make 0 4) (I.widen (I.make 0 4) (I.make 1 4))

(* ---------------- interval soundness at the 63-bit extremes ----------------

   The domain's contract: endpoints [min_int]/[max_int] are infinity
   sentinels and endpoint arithmetic saturates toward them, over-approximating
   the {e wrap-free} concrete semantics the interpreter is specified with.
   So the property is stated against extended integers: a concrete result
   that mathematically overflows 63 bits must land in an interval whose
   matching endpoint is the infinity sentinel.  Plain [a + b ∈ add A B] with
   native ints would be both unsound to check (the concrete side wraps) and
   miss exactly the corner this guards. *)

type ext = Num of int | Pos_over | Neg_over

let ext_add a b =
  if b > 0 && a > max_int - b then Pos_over
  else if b < 0 && a < min_int - b then Neg_over
  else Num (a + b)

let ext_neg a = if a = min_int then Pos_over else Num (-a)

let ext_sub a b = match ext_neg b with
  | Num nb -> ext_add a nb
  | Pos_over (* b = min_int *) ->
      (* a - min_int = a + (max_int + 1) *)
      if a >= 0 then Pos_over else Num (a + max_int + 1)
  | Neg_over -> assert false

let ext_mul a b =
  if a = 0 || b = 0 then Num 0
  else if a = -1 then ext_neg b
  else if b = -1 then ext_neg a
  else
    let p = a * b in
    if p / a = b && (p <> min_int || (a < 0) <> (b < 0)) then Num p
    else if a > 0 = (b > 0) then Pos_over
    else Neg_over

(* membership under the sentinel reading: lo = min_int means unbounded
   below, hi = max_int unbounded above *)
let ext_mem e (iv : I.t) =
  match e with
  | Num v -> I.mem v iv
  | Pos_over -> iv.I.hi = max_int
  | Neg_over -> iv.I.lo = min_int

let extreme_endpoint =
  QCheck.Gen.frequency
    [ ( 3,
        QCheck.Gen.oneofl
          [ min_int; min_int + 1; min_int + 2; min_int / 2; -1000000; -7; -2;
            -1; 0; 1; 2; 7; 1000000; max_int / 2; max_int - 2; max_int - 1;
            max_int ] );
      (1, QCheck.Gen.int) ]

let interval_arb =
  (* degenerate extreme-point intervals get extra weight: [const max_int]
     times [const (-1)] is precisely the corner class worth hammering *)
  QCheck.make ~print:I.to_string
    (QCheck.Gen.oneof
       [ QCheck.Gen.map2 (fun a b -> I.make a b) extreme_endpoint
           extreme_endpoint;
         QCheck.Gen.map I.const extreme_endpoint ])

(* concrete witnesses of an interval: its corners and a few interior points *)
let samples (iv : I.t) =
  List.filter
    (fun v -> I.mem v iv)
    [ iv.I.lo; iv.I.hi; 0; 1; -1; min_int; max_int;
      (if iv.I.lo < max_int then iv.I.lo + 1 else iv.I.lo);
      (if iv.I.hi > min_int then iv.I.hi - 1 else iv.I.hi) ]

let forall_pairs a b f =
  List.for_all (fun x -> List.for_all (fun y -> f x y) (samples b)) (samples a)

let prop_binop name abstract concrete =
  QCheck.Test.make ~count:2000 ~name
    QCheck.(pair interval_arb interval_arb)
    (fun (a, b) ->
      forall_pairs a b (fun x y -> ext_mem (concrete x y) (abstract a b)))

let prop_add_sound =
  prop_binop "interval add sound at 63-bit extremes" I.add ext_add

let prop_sub_sound =
  prop_binop "interval sub sound at 63-bit extremes" I.sub ext_sub

let prop_mul_sound =
  prop_binop "interval mul sound at 63-bit extremes" I.mul ext_mul

let prop_neg_sound =
  QCheck.Test.make ~count:2000 ~name:"interval neg sound at 63-bit extremes"
    interval_arb
    (fun a ->
      List.for_all (fun x -> ext_mem (ext_neg x) (I.neg a)) (samples a))

let prop_join_meet_sound =
  QCheck.Test.make ~count:2000 ~name:"join/meet sound on sampled members"
    QCheck.(pair interval_arb interval_arb)
    (fun (a, b) ->
      let j = I.join a b in
      List.for_all (fun v -> I.mem v j) (samples a)
      && List.for_all (fun v -> I.mem v j) (samples b)
      &&
      let common = List.filter (fun v -> I.mem v b) (samples a) in
      match I.meet a b with
      | Some m -> List.for_all (fun v -> I.mem v m) common
      | None -> common = [])

let prop_widen_covers =
  QCheck.Test.make ~count:2000 ~name:"widen covers both arguments"
    QCheck.(pair interval_arb interval_arb)
    (fun (old, next) ->
      let w = I.widen old next in
      I.subset old w && I.subset next w)

let interval_qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_add_sound; prop_sub_sound; prop_mul_sound; prop_neg_sound;
      prop_join_meet_sound; prop_widen_covers ]

(* ---------------- crafted kernels ---------------- *)

let simple name ?(bufs = [ buf "out" I64 8 ]) ?(scratch = []) body =
  { name; bufs; scratch; body }

let verdict_of report name =
  let b = List.find (fun b -> b.Analysis.buf = name) report.Analysis.bufs in
  b.Analysis.verdict

let test_streaming_proven () =
  let k =
    simple "stream"
      [ for_ "j" (i 0) (i 8) [ store "out" (v "j") (v "j" *: i 2) ] ]
  in
  let r = Analysis.analyze k in
  checkb "proven" true (Analysis.proven r);
  (match verdict_of r "out" with
  | Analysis.Proven_in_bounds -> ()
  | v -> Alcotest.failf "expected proven, got %s" (Analysis.verdict_to_string v))

let test_oob_yields_witness () =
  let k = simple "oob" [ store "out" (i 16) (i 1) ] in
  let r = Analysis.analyze k in
  checkb "not proven" false (Analysis.proven r);
  match verdict_of r "out" with
  | Analysis.Possible_violation w ->
      checki "witness index" 16 w.Analysis.w_index;
      checki "witness len" 8 w.Analysis.w_len;
      checkb "witness kind" true (w.Analysis.w_kind = Analysis.Write)
  | v -> Alcotest.failf "expected violation, got %s" (Analysis.verdict_to_string v)

let test_readonly_write_flagged () =
  let k =
    simple "ro" ~bufs:[ buf ~writable:false "out" I64 8 ]
      [ store "out" (i 0) (i 1) ]
  in
  let r = Analysis.analyze k in
  checkb "not proven" false (Analysis.proven r);
  (match verdict_of r "out" with
  | Analysis.Possible_violation w ->
      checkb "write witness" true (w.Analysis.w_kind = Analysis.Write)
  | v -> Alcotest.failf "expected violation, got %s" (Analysis.verdict_to_string v));
  checkb "validate lint surfaced too" true (r.Analysis.lint <> [])

let test_data_dependent_unknown () =
  let k =
    simple "chase"
      ~bufs:[ buf ~writable:false "idx" I64 8; buf "out" I64 8 ]
      [ for_ "j" (i 0) (i 8) [ store "out" (ld "idx" (v "j")) (i 1) ] ]
  in
  let r = Analysis.analyze k in
  checkb "not proven" false (Analysis.proven r);
  match verdict_of r "out" with
  | Analysis.Unknown _ -> ()
  | v -> Alcotest.failf "expected unknown, got %s" (Analysis.verdict_to_string v)

let test_param_constraint_decides () =
  let k = simple "par" [ store "out" (p "n") (i 1) ] in
  let constrained =
    Analysis.analyze ~params:[ ("n", I.make 0 7) ] k
  in
  checkb "proven under range" true (Analysis.proven constrained);
  let free = Analysis.analyze k in
  checkb "unconstrained is not proven" false (Analysis.proven free)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go j = j + n <= m && (String.sub s j n = sub || go (j + 1)) in
  n = 0 || go 0

let test_lint_unbound_var () =
  let k = simple "unbound" [ store "out" (i 0) (v "nope") ] in
  let r = Analysis.analyze k in
  checkb "lint fires and names the variable" true
    (List.exists (contains ~sub:"nope") r.Analysis.lint)

let test_lint_degenerate_loop () =
  let k =
    simple "degenerate" [ for_ "j" (i 10) (i 2) [ store "out" (i 0) (i 1) ] ]
  in
  let r = Analysis.analyze k in
  checkb "degenerate loop linted" true (r.Analysis.lint <> [])

(* ---------------- the whole registry ---------------- *)

let streaming =
  [ "aes"; "backprop"; "fft_strided"; "fft_transpose"; "gemm_blocked";
    "gemm_ncubed"; "kmp"; "spmv_ellpack"; "stencil2d"; "stencil3d"; "viterbi" ]

let registry_report (b : Machsuite.Bench_def.t) =
  Analysis.analyze ~params:(Analysis.param_ranges b.params) b.kernel

let test_registry_all_verdicts () =
  List.iter
    (fun (b : Machsuite.Bench_def.t) ->
      let r = registry_report b in
      checki (b.name ^ " verdict per heap buffer")
        (List.length b.kernel.bufs) (List.length r.Analysis.bufs);
      checkb (b.name ^ " lint clean") true (r.Analysis.lint = []);
      (* No shipped kernel may carry a bounded out-of-bounds footprint. *)
      List.iter
        (fun br ->
          match br.Analysis.verdict with
          | Analysis.Possible_violation w ->
              Alcotest.failf "%s.%s: unexpected violation at %s" b.name
                br.Analysis.buf w.Analysis.w_site
          | Analysis.Proven_in_bounds | Analysis.Unknown _ -> ())
        r.Analysis.bufs)
    Machsuite.Registry.all

let test_registry_streaming_proven () =
  List.iter
    (fun name ->
      let b = Machsuite.Registry.find name in
      checkb (name ^ " proven") true (Analysis.proven (registry_report b)))
    streaming

let test_registry_pointer_chasing_unknown () =
  List.iter
    (fun name ->
      let b = Machsuite.Registry.find name in
      checkb (name ^ " honestly unknown") false
        (Analysis.proven (registry_report b)))
    [ "bfs_bulk"; "bfs_queue"; "md_knn"; "spmv_crs"; "sort_radix" ]

(* ---------------- differential property ---------------- *)

(* Deterministic per-(benchmark, seed, param) draw from the declared range
   [1, max 1 (2n)] — the same family [Analysis.param_ranges] promises. *)
let draw_params (b : Machsuite.Bench_def.t) ~seed =
  List.map
    (fun (name, v) ->
      match (v : Kernel.Value.t) with
      | Kernel.Value.VF _ -> (name, v)
      | Kernel.Value.VI n ->
          let bound = max 1 (2 * n) in
          let h = Hashtbl.hash (b.name, seed, name) in
          (name, Kernel.Value.VI (1 + (h mod bound))))
    b.params

let has_int_params (b : Machsuite.Bench_def.t) =
  List.exists
    (fun (_, v) -> match (v : Kernel.Value.t) with VI _ -> true | VF _ -> false)
    b.params

let test_differential_proven_implies_no_denial () =
  (* Golden outputs are memoized per benchmark name; prime the cache with the
     default parameters so runs under randomized parameters cannot poison it
     for later tests.  (Functional comparison under randomized parameters is
     not part of this property — only the absence of dynamic denials is.) *)
  List.iter
    (fun b -> ignore (Machsuite.Bench_def.golden b))
    Machsuite.Registry.all;
  List.iter
    (fun (b : Machsuite.Bench_def.t) ->
      let seeds = if has_int_params b then [ 1; 2; 3 ] else [ 1 ] in
      List.iter
        (fun seed ->
          let params = draw_params b ~seed in
          let r =
            Analysis.analyze ~params:(Analysis.param_intervals params) b.kernel
          in
          if Analysis.proven r then begin
            let bench = { b with Machsuite.Bench_def.params } in
            (* Elide_differential additionally raises inside the run if a
               statically proven task is ever dynamically denied. *)
            let res =
              Soc.Run.run ~tasks:1 ~elide:Soc.Run.Elide_differential
                Soc.Config.ccpu_caccel bench
            in
            checkb
              (Printf.sprintf "%s seed %d: proven => no denial" b.name seed)
              true
              (res.Soc.Run.denials = [])
          end)
        seeds)
    Machsuite.Registry.all

(* Replaying a violation witness must reproduce a dynamic denial (not a bus
   error): the analysis and the CapChecker disagree on no kernel. *)
let witness_kernels =
  [
    simple "oob_write" [ store "out" (i 16) (i 1) ];
    simple "oob_read"
      ~bufs:[ buf ~writable:false "src" I64 8; buf "out" I64 8 ]
      [ store "out" (i 0) (ld "src" (i 16)) ];
  ]

let test_witness_replay_reproduces_denial () =
  List.iter
    (fun kernel ->
      let r = Analysis.analyze kernel in
      let w =
        match
          List.find_map
            (fun b ->
              match b.Analysis.verdict with
              | Analysis.Possible_violation w -> Some w
              | _ -> None)
            r.Analysis.bufs
        with
        | Some w -> w
        | None -> Alcotest.failf "%s: no witness produced" kernel.name
      in
      checkb "witness is out of bounds" true (w.Analysis.w_index >= w.Analysis.w_len);
      let mem = Tagmem.Mem.create ~size:(1 lsl 20) in
      let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 20) - 4096) in
      let checker = Capchecker.Checker.create Capchecker.Checker.Fine in
      let backend = Driver.Backend.Capchecker checker in
      let driver =
        Driver.create ~mem ~heap ~backend ~bus:Bus.Params.default ~n_instances:1 ()
      in
      let a =
        match Driver.allocate driver kernel with
        | Ok a -> a
        | Error msg -> Alcotest.failf "allocate: %s" msg
      in
      let outcome =
        Accel.Engine.run ~mem ~bus:Bus.Params.default
          ~directives:Hls.Directives.default
          ~addressing:(Driver.Backend.addressing backend)
          ~naive_tag_writes:false
          (Accel.Engine.Adj_live (Driver.Backend.guard_of backend))
          Accel.Engine.Interpret
          {
            Accel.Engine.instance = a.Driver.handle.Driver.task_id;
            kernel;
            layout = a.Driver.handle.Driver.layout;
            params = [];
            obj_ids = a.Driver.handle.Driver.obj_ids;
          }
      in
      match outcome.Accel.Engine.denied with
      | Some d ->
          checkb
            (kernel.name ^ ": checker denial, not a bus error")
            true
            (d.Guard.Iface.code <> "bus")
      | None -> Alcotest.failf "%s: witness did not reproduce a denial" kernel.name)
    witness_kernels

(* A read-only-write witness replays against the RO capability the driver
   would install: the CapChecker denies the store. *)
let test_readonly_witness_replay () =
  let kernel =
    simple "ro_store" ~bufs:[ buf ~writable:false "out" I64 8 ]
      [ store "out" (i 0) (i 1) ]
  in
  (match verdict_of (Analysis.analyze kernel) "out" with
  | Analysis.Possible_violation _ -> ()
  | v -> Alcotest.failf "expected violation, got %s" (Analysis.verdict_to_string v));
  let mem = Tagmem.Mem.create ~size:(1 lsl 20) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 20) - 4096) in
  let base = Tagmem.Alloc.malloc heap ~align:64 64 in
  let checker = Capchecker.Checker.create Capchecker.Checker.Fine in
  let cap = Result.get_ok (Cheri.Cap.set_bounds_exact Cheri.Cap.root ~base ~length:64) in
  let cap = Result.get_ok (Cheri.Cap.with_perms cap Cheri.Perms.data_ro) in
  (match Capchecker.Checker.install checker ~task:0 ~obj:0 cap with
  | Capchecker.Table.Installed _ -> ()
  | Capchecker.Table.Table_full | Capchecker.Table.Rejected_untagged ->
      Alcotest.fail "install");
  let layout =
    Memops.Layout.make [ { Memops.Layout.decl = List.hd kernel.bufs; base } ]
  in
  let outcome =
    Accel.Engine.run ~mem ~bus:Bus.Params.default
      ~directives:Hls.Directives.default ~addressing:Accel.Engine.Fine_ports
      ~naive_tag_writes:false
      (Accel.Engine.Adj_live (Capchecker.Checker.as_guard checker))
      Accel.Engine.Interpret
      { Accel.Engine.instance = 0; kernel; layout; params = [];
        obj_ids = [ ("out", 0) ] }
  in
  checkb "store through RO capability denied" true
    (outcome.Accel.Engine.denied <> None)

(* ---------------- check elision ---------------- *)

let test_elision_equivalence_on_proven () =
  let bench = Machsuite.Registry.find "aes" in
  let off = Soc.Run.run ~tasks:2 Soc.Config.ccpu_caccel bench in
  let on =
    Soc.Run.run ~tasks:2 ~elide:Soc.Run.Elide_on Soc.Config.ccpu_caccel bench
  in
  checkb "guarded correct" true off.Soc.Run.correct;
  checkb "elided correct" true on.Soc.Run.correct;
  checkb "no denials" true (on.Soc.Run.denials = []);
  checki "every check elided" off.Soc.Run.checks on.Soc.Run.elided_checks;
  checki "no residual checks" 0 on.Soc.Run.checks;
  checkb "elision never slower" true (on.Soc.Run.wall <= off.Soc.Run.wall);
  checki "guarded run elides nothing" 0 off.Soc.Run.elided_checks

let test_elision_adaptive_on_unknown () =
  let bench = Machsuite.Registry.find "spmv_crs" in
  let on =
    Soc.Run.run ~tasks:1 ~elide:Soc.Run.Elide_on Soc.Config.ccpu_caccel bench
  in
  checkb "correct" true on.Soc.Run.correct;
  checki "unproven task stays fully guarded" 0 on.Soc.Run.elided_checks;
  checkb "checks still adjudicated" true (on.Soc.Run.checks > 0)

let test_elision_needs_capable_backend () =
  let bench = Machsuite.Registry.find "aes" in
  let on =
    Soc.Run.run ~tasks:1 ~elide:Soc.Run.Elide_on Soc.Config.ccpu_accel bench
  in
  checkb "correct" true on.Soc.Run.correct;
  checki "unprotected backend never elides" 0 on.Soc.Run.elided_checks

let test_elision_emits_event () =
  let bench = Machsuite.Registry.find "aes" in
  let obs = Obs.Trace.create () in
  let r =
    Soc.Run.run ~tasks:1 ~obs ~elide:Soc.Run.Elide_on Soc.Config.ccpu_caccel
      bench
  in
  checkb "correct" true r.Soc.Run.correct;
  let counted =
    List.fold_left
      (fun acc (e : Obs.Event.t) ->
        match e.Obs.Event.data with
        | Obs.Event.Check_elided { count; _ } -> acc + count
        | _ -> acc)
      0 (Obs.Trace.events obs)
  in
  checkb "Check_elided event counts the skipped checks" true (counted > 0);
  checki "event total matches result" r.Soc.Run.elided_checks counted

let suite =
  [
    ("interval arithmetic", `Quick, test_interval_arith);
    ("interval lattice", `Quick, test_interval_lattice);
    ("streaming kernel proven", `Quick, test_streaming_proven);
    ("oob yields witness", `Quick, test_oob_yields_witness);
    ("read-only write flagged", `Quick, test_readonly_write_flagged);
    ("data-dependent index unknown", `Quick, test_data_dependent_unknown);
    ("param constraint decides", `Quick, test_param_constraint_decides);
    ("lint unbound var", `Quick, test_lint_unbound_var);
    ("lint degenerate loop", `Quick, test_lint_degenerate_loop);
    ("registry: every kernel verdicted", `Quick, test_registry_all_verdicts);
    ("registry: streaming proven", `Quick, test_registry_streaming_proven);
    ("registry: pointer chasing unknown", `Quick,
     test_registry_pointer_chasing_unknown);
    ("differential: proven => no denial", `Slow,
     test_differential_proven_implies_no_denial);
    ("differential: witness replays to denial", `Quick,
     test_witness_replay_reproduces_denial);
    ("differential: read-only witness replays", `Quick,
     test_readonly_witness_replay);
    ("elision equivalence on proven", `Quick, test_elision_equivalence_on_proven);
    ("elision adaptive on unknown", `Quick, test_elision_adaptive_on_unknown);
    ("elision needs capable backend", `Quick, test_elision_needs_capable_backend);
    ("elision emits event", `Quick, test_elision_emits_event);
  ]
  @ interval_qsuite
