(* The kernel IR and its interpreter: validation, expression semantics,
   control flow, scratch memories, memcpy lowering, cost accounting and the
   dependent-load classifier. *)

open Kernel
open Kernel.Ir

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let run_pure ?params kernel bufs =
  let arrays =
    List.map
      (fun (d : buf_decl) ->
        ( d.buf_name,
          match List.assoc_opt d.buf_name bufs with
          | Some a -> a
          | None ->
              Array.make d.len
                (if elem_is_float d.elem then Value.VF 0.0 else Value.VI 0) ))
      kernel.bufs
  in
  let m = Interp.pure_machine ~bufs:arrays ?params () in
  Interp.run kernel m;
  arrays

let simple name ?(bufs = [ buf "out" I64 8 ]) ?(scratch = []) body =
  { name; bufs; scratch; body }

(* ---------------- validation ---------------- *)

let test_validate_ok () =
  let k = simple "ok" [ store "out" (i 0) (i 1) ] in
  checkb "valid" true (Ir.validate k = Ok ())

let test_validate_unknown_buffer () =
  let k = simple "bad" [ store "nope" (i 0) (i 1) ] in
  checkb "invalid" true (Result.is_error (Ir.validate k))

let test_validate_readonly_store () =
  let k =
    simple "ro" ~bufs:[ buf ~writable:false "out" I64 8 ] [ store "out" (i 0) (i 1) ]
  in
  checkb "invalid" true (Result.is_error (Ir.validate k))

let test_validate_duplicate_names () =
  let k = simple "dup" ~bufs:[ buf "x" I64 1; buf "x" I32 1 ] [] in
  checkb "invalid" true (Result.is_error (Ir.validate k))

let test_validate_scratch_buf_collision () =
  let k = simple "col" ~bufs:[ buf "x" I64 1 ] ~scratch:[ buf "x" I64 1 ] [] in
  checkb "invalid" true (Result.is_error (Ir.validate k))

let test_validate_memcpy_type_mismatch () =
  let k =
    simple "mc" ~bufs:[ buf "a" I64 4; buf "b" F32 4 ]
      [ memcpy ~dst:"a" ~src:"b" ~elems:(i 4) ]
  in
  checkb "invalid" true (Result.is_error (Ir.validate k))

let test_validate_scratch_store_ok () =
  let k =
    simple "ss" ~scratch:[ buf "tmp" I64 4 ] [ store "tmp" (i 0) (i 1) ]
  in
  checkb "scratch writable" true (Ir.validate k = Ok ())

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go j = j + n <= m && (String.sub s j n = sub || go (j + 1)) in
  n = 0 || go 0

let error_of k =
  match Ir.validate k with
  | Error msg -> msg
  | Ok () -> Alcotest.fail "expected a validation error"

let test_validate_messages_name_buffer_and_statement () =
  let ro =
    simple "ro" ~bufs:[ buf ~writable:false "out" I64 8 ]
      [ store "out" (i 3) (i 1) ]
  in
  let msg = error_of ro in
  checkb "names the buffer" true (contains ~sub:"read-only buffer out" msg);
  checkb "names the statement" true (contains ~sub:"out[3] <- 1" msg);
  let mc_ro =
    simple "mc_ro" ~bufs:[ buf ~writable:false "dst" I64 4; buf "src" I64 4 ]
      [ memcpy ~dst:"dst" ~src:"src" ~elems:(i 4) ]
  in
  let msg = error_of mc_ro in
  checkb "memcpy names buffer" true (contains ~sub:"read-only buffer dst" msg);
  checkb "memcpy names statement" true (contains ~sub:"memcpy dst <- src" msg)

let test_validate_memcpy_mismatch_names_types () =
  let k =
    simple "mc" ~bufs:[ buf "a" I64 4; buf "b" F32 4 ]
      [ memcpy ~dst:"a" ~src:"b" ~elems:(i 4) ]
  in
  let msg = error_of k in
  checkb "names both buffers and types" true
    (contains ~sub:"a is i64" msg && contains ~sub:"b is f32" msg);
  checkb "names the statement" true (contains ~sub:"memcpy a <- b" msg)

(* ---------------- semantics ---------------- *)

let test_int_ops () =
  let k =
    simple "ints"
      [
        store "out" (i 0) ((i 7 *: i 6) +: i 2);
        store "out" (i 1) (i 17 %: i 5);
        store "out" (i 2) (shl (i 3) (i 4));
        store "out" (i 3) (imin (i 9) (i 4));
        store "out" (i 4) (bxor (i 0xF0) (i 0xFF));
        store "out" (i 5) (i 10 -: i 25);
        store "out" (i 6) (shr (i (-16)) (i 2));
        store "out" (i 7) ((i 3 <: i 4) &&: (i 1 =: i 1));
      ]
  in
  let out = List.assoc "out" (run_pure k []) in
  let expect = [| 44; 2; 48; 4; 0x0F; -15; -4; 1 |] in
  Array.iteri (fun idx e -> checki "slot" e (Value.as_int out.(idx))) expect

let test_float_ops () =
  let k =
    simple "floats" ~bufs:[ buf "out" F64 6 ]
      [
        store "out" (i 0) (f 1.5 +.: f 2.25);
        store "out" (i 1) (f 3.0 *.: f 0.5);
        store "out" (i 2) (fsqrt (f 16.0));
        store "out" (i 3) (fmax (f 2.0) (f (-3.0)));
        store "out" (i 4) (i2f (i 42));
        store "out" (i 5) (fabs_ (f (-7.5)));
      ]
  in
  let out = List.assoc "out" (run_pure k []) in
  List.iteri
    (fun idx e -> checkf "slot" e (Value.as_float out.(idx)))
    [ 3.75; 1.5; 4.0; 2.0; 42.0; 7.5 ]

let test_for_loop () =
  let k =
    simple "sum"
      [
        let_ "acc" (i 0);
        for_ "j" (i 0) (i 10) [ let_ "acc" (v "acc" +: v "j") ];
        store "out" (i 0) (v "acc");
      ]
  in
  let out = List.assoc "out" (run_pure k []) in
  checki "sum 0..9" 45 (Value.as_int out.(0))

let test_for_empty_range () =
  let k =
    simple "empty"
      [
        let_ "acc" (i 99);
        for_ "j" (i 5) (i 5) [ let_ "acc" (i 0) ];
        store "out" (i 0) (v "acc");
      ]
  in
  checki "body never ran" 99 (Value.as_int (List.assoc "out" (run_pure k [])).(0))

let test_while_loop () =
  let k =
    simple "collatz"
      [
        let_ "n" (i 27);
        let_ "steps" (i 0);
        while_ (v "n" >: i 1)
          [
            if_ ((v "n" %: i 2) =: i 0)
              [ let_ "n" (v "n" /: i 2) ]
              [ let_ "n" ((v "n" *: i 3) +: i 1) ];
            let_ "steps" (v "steps" +: i 1);
          ];
        store "out" (i 0) (v "steps");
      ]
  in
  checki "collatz(27)" 111 (Value.as_int (List.assoc "out" (run_pure k [])).(0))

let test_fuel_exhaustion () =
  let k = simple "spin" [ while_ (i 1) [ let_ "x" (i 0) ] ] in
  try
    ignore (run_pure k []);
    Alcotest.fail "expected fuel exhaustion"
  with Interp.Fuel_exhausted -> ()

let test_params () =
  let k = simple "param" [ store "out" (i 0) (p "n" *: i 2) ] in
  let out = Array.make 8 (Value.VI 0) in
  let m = Interp.pure_machine ~bufs:[ ("out", out) ] ~params:[ ("n", Value.VI 21) ] () in
  Interp.run k m;
  checki "param used" 42 (Value.as_int out.(0))

let test_scratch_isolated_and_zeroed () =
  let k =
    simple "scratch" ~scratch:[ buf "tmp" I64 4 ]
      [
        store "out" (i 0) (ld "tmp" (i 2));  (* scratch starts zeroed *)
        store "tmp" (i 1) (i 5);
        store "out" (i 1) (ld "tmp" (i 1));
      ]
  in
  let out = List.assoc "out" (run_pure k []) in
  checki "zero init" 0 (Value.as_int out.(0));
  checki "scratch rw" 5 (Value.as_int out.(1))

let test_scratch_oob_aborts () =
  let k =
    simple "oob" ~scratch:[ buf "tmp" I64 4 ] [ store "out" (i 0) (ld "tmp" (i 9)) ]
  in
  try
    ignore (run_pure k []);
    Alcotest.fail "scratch OOB not caught"
  with Interp.Aborted _ -> ()

let test_memcpy_buffer_to_buffer () =
  let k =
    simple "copy" ~bufs:[ buf "src" I64 4; buf "out" I64 4 ]
      [ memcpy ~dst:"out" ~src:"src" ~elems:(i 4) ]
  in
  let src = Array.init 4 (fun j -> Value.VI (j * 11)) in
  let out = List.assoc "out" (run_pure k [ ("src", src) ]) in
  Array.iteri (fun j e -> checki "copied" (Value.as_int src.(j)) (Value.as_int e))
    out

let test_memcpy_through_scratch () =
  let k =
    simple "stage" ~bufs:[ buf "src" I64 4; buf "out" I64 4 ]
      ~scratch:[ buf "tmp" I64 4 ]
      [
        memcpy ~dst:"tmp" ~src:"src" ~elems:(i 4);
        store "tmp" (i 0) (ld "tmp" (i 0) +: i 1);
        memcpy ~dst:"out" ~src:"tmp" ~elems:(i 4);
      ]
  in
  let src = Array.init 4 (fun j -> Value.VI j) in
  let out = List.assoc "out" (run_pure k [ ("src", src) ]) in
  checki "staged and modified" 1 (Value.as_int out.(0));
  checki "rest copied" 3 (Value.as_int out.(3))

let test_division_by_zero_aborts () =
  let k = simple "div0" [ store "out" (i 0) (i 1 /: i 0) ] in
  try
    ignore (run_pure k []);
    Alcotest.fail "division by zero not caught"
  with Interp.Aborted _ -> ()

let test_contains_load () =
  checkb "plain index" false (contains_load (v "j" +: i 4));
  checkb "loaded index" true (contains_load (ld "a" (i 0) +: i 4));
  checkb "nested" true (contains_load (Un (Neg, Bin (Add, i 1, ld "a" (i 0)))))

let test_dependent_flag_passed () =
  let seen = ref [] in
  let k =
    simple "dep" ~bufs:[ buf "a" I64 8; buf "out" I64 8 ]
      [ store "out" (i 0) (ld "a" (ld "a" (i 0))); store "out" (i 1) (ld "a" (i 1)) ]
  in
  let arrays = [ ("a", Array.make 8 (Value.VI 0)); ("out", Array.make 8 (Value.VI 0)) ] in
  let pure = Interp.pure_machine ~bufs:arrays () in
  let m =
    { pure with
      Interp.load =
        (fun name ~idx ~dependent ->
          seen := dependent :: !seen;
          pure.Interp.load name ~idx ~dependent) }
  in
  Interp.run k m;
  (* Loads observed (reverse order): a[1] streaming, a[a[0]] dependent,
     a[0] streaming. *)
  Alcotest.(check (list bool)) "dependence" [ false; true; false ] !seen

let test_cost_classes () =
  checkb "mul is imul" true (Interp.cost_of_binop Mul = Interp.Imul);
  checkb "mod is idiv" true (Interp.cost_of_binop Mod = Interp.Idiv);
  checkb "fmul" true (Interp.cost_of_binop Fmul = Interp.Fmul);
  checkb "compare is alu" true (Interp.cost_of_binop Lt = Interp.Alu);
  checkb "fsqrt is special" true (Interp.cost_of_unop Fsqrt = Interp.Fspec)

let count (ops : int array) c = ops.(Interp.cost_index c)

let test_tick_counts () =
  let k =
    simple "ticks"
      [ let_ "x" ((i 1 +: i 2) *: i 3); for_ "j" (i 0) (i 4) [ let_ "y" (v "j") ] ]
  in
  let m = Interp.pure_machine ~bufs:[ ("out", Array.make 8 (Value.VI 0)) ] () in
  Interp.run k m;
  checki "one add" 1 (count m.ops Interp.Alu);
  checki "one mul" 1 (count m.ops Interp.Imul);
  checki "four back-edges" 4 (count m.ops Interp.Branch);
  checki "nothing else" 6 (Interp.total m.ops)

let test_unbound_var_message () =
  let k = simple "unbound" [ store "out" (i 0) (v "x") ] in
  match run_pure k [] with
  | _ -> Alcotest.fail "expected a type error"
  | exception Value.Type_error msg ->
      Alcotest.(check string) "message" "unbound local x" msg

let test_for_body_assigns_loop_var () =
  let k =
    simple "reassign"
      [
        let_ "trips" (i 0);
        for_ "j" (i 0) (i 4)
          [ store "out" (v "j") (v "j"); let_ "j" (v "j" +: i 10);
            let_ "trips" (v "trips" +: i 1) ];
        store "out" (i 4) (v "trips");
        store "out" (i 5) (v "j");
        for_ "z" (i 7) (i 3) [ let_ "trips" (i 0) ];
        store "out" (i 6) (v "z");
      ]
  in
  let out = List.assoc "out" (run_pure k []) in
  Alcotest.(check (list int)) "each trip sees its own index, trips and final values"
    [ 0; 1; 2; 3; 4; 4; 7 ]
    (List.init 7 (fun j -> Value.as_int out.(j)))

let test_fuel_exhaustion_ticks () =
  let bodies = ref 0 in
  let k = simple "spin" [ while_ (i 1) [ store "out" (i 0) (i 0) ] ] in
  let pure = Interp.pure_machine ~bufs:[ ("out", Array.make 8 (Value.VI 0)) ] () in
  let m =
    { pure with
      Interp.store =
        (fun name ~idx x ->
          incr bodies;
          checki "condition counts at a body's store" !bodies (count pure.ops Interp.Branch);
          pure.store name ~idx x) }
  in
  (match Interp.run ~fuel:5 k m with
  | () -> Alcotest.fail "expected fuel exhaustion"
  | exception Interp.Fuel_exhausted -> ());
  checki "condition counts" 5 (count pure.ops Interp.Branch);
  checki "bodies run" 4 !bodies

(* ---------------- call sequence ---------------- *)

(* The interpreter's observable behaviour is the exact sequence of machine
   callbacks it makes, and the ops it has counted by each of them.  Every
   registry benchmark runs on a machine that records each call (kind,
   buffer, index, dependent flag, value) with the per-class op counts it
   finds, around [pure_machine]; the digest over all of them and over each
   bench's final counts pins the order and arguments of every load, store,
   copy and param, and every op count at each.  The value was computed by
   summing a per-op cost callback, independently of the counts. *)
let call_sequence_golden = "7b00a14840df0fcf"

(* A 63-bit multiply-xorshift hash folded over every recorded field: cheap
   enough for the ~25 M fields of the registry, and any change in the
   order or value of a field moves it. *)
let hash h n =
  let x = (!h + n) * 0x5bd1e9955bd1e995 in
  h := x lxor (x lsr 29)

let hash_counts h (ops : int array) = Array.iter (hash h) ops

let recording_machine h (pure : Interp.machine) =
  let int = hash h in
  let str s = int (Hashtbl.hash s) in
  let at_call () = hash_counts h pure.ops in
  (* Calls name buffers by handle; the digest hashes their names. *)
  let names = Hashtbl.create 8 in
  let buf b = str (Hashtbl.find names b) in
  let value : Value.t -> unit = function
    | VI n -> int 1; int n
    | VF x ->
        let bits = Int64.bits_of_float x in
        int 2; int (Int64.to_int bits); int (Int64.to_int (Int64.shift_right_logical bits 32))
  in
  {
    Interp.buffer =
      (fun name ->
        let b = pure.buffer name in
        Hashtbl.replace names b name;
        b);
    load =
      (fun b ~idx ~dependent ->
        int (Char.code 'L'); buf b; int idx; int (Bool.to_int dependent); at_call ();
        let x = pure.load b ~idx ~dependent in
        value x;
        x);
    store =
      (fun b ~idx x ->
        int (Char.code 'S'); buf b; int idx; value x; at_call ();
        pure.store b ~idx x);
    copy =
      (fun ~dst ~src ~elems ->
        int (Char.code 'C'); buf dst; buf src; int elems; at_call ();
        pure.copy ~dst ~src ~elems);
    param =
      (fun name ->
        int (Char.code 'P'); str name; at_call ();
        let x = pure.param name in
        value x;
        x);
    ops = pure.ops;
  }

(* A bench's end: its final counts. *)
let record_end h (m : Interp.machine) =
  hash h (Char.code 'E');
  hash_counts h m.ops

let bench_bufs (bd : Machsuite.Bench_def.t) =
  List.map
    (fun (d : buf_decl) -> (d.buf_name, Machsuite.Bench_def.initial_array bd d))
    bd.kernel.bufs

(* [pure_machine] over a registry bench's initial buffers and params. *)
let bench_machine (bd : Machsuite.Bench_def.t) =
  Interp.pure_machine ~bufs:(bench_bufs bd) ~params:bd.params ()

(* The accelerator model's shape: every load, store and copy answers
   pending on its first try and reaches [m] on its retry, which must be the
   same call.  [stops] counts the pending answers. *)
let pending_machine stops (m : Interp.machine) =
  let first = ref None in
  let call key ~retry =
    match !first with
    | None ->
        first := Some key;
        incr stops;
        false
    | Some k ->
        if k <> key then Alcotest.fail "a retry is not the call that answered pending";
        first := None;
        retry ()
  in
  { m with
    Interp.load =
      (fun b ~idx ~dependent ->
        let value = ref Interp.pending in
        ignore
          (call ('L', b, idx, Bool.to_int dependent) ~retry:(fun () ->
               value := m.load b ~idx ~dependent;
               true));
        !value);
    store = (fun b ~idx x -> call ('S', b, idx, 0) ~retry:(fun () -> m.store b ~idx x));
    copy =
      (fun ~dst ~src ~elems ->
        call ('C', dst, src, elems) ~retry:(fun () -> m.copy ~dst ~src ~elems)) }

let test_call_sequence_digest () =
  let h = ref 0 in
  List.iter
    (fun (bd : Machsuite.Bench_def.t) ->
      let m = bench_machine bd in
      Interp.run bd.kernel (recording_machine h m);
      record_end h m)
    Machsuite.Registry.all;
  checki "every registry bench" 19 (List.length Machsuite.Registry.all);
  Alcotest.(check string) "call-sequence digest" call_sequence_golden
    (Printf.sprintf "%016x" !h)

(* Every registry bench on [pending_machine], resumed from a queue until it
   finishes: the same callbacks in the same order (the pinned digest), and
   the same final buffers as a run on [pure_machine] that never stops. *)
let test_pending_at_every_access () =
  let h = ref 0 and stops = ref 0 and accesses = ref 0 in
  let queue = Queue.create () in
  List.iter
    (fun (bd : Machsuite.Bench_def.t) ->
      let bufs = bench_bufs bd in
      let m = Interp.pure_machine ~bufs ~params:bd.params () in
      Queue.add (Interp.start bd.kernel (pending_machine stops (recording_machine h m))) queue;
      while not (Queue.is_empty queue) do
        let k = Queue.pop queue in
        if not (Interp.resume k) then Queue.add k queue
      done;
      record_end h m;
      let reference = bench_bufs bd in
      let pure = Interp.pure_machine ~bufs:reference ~params:bd.params () in
      Interp.run bd.kernel
        { pure with
          Interp.load = (fun b ~idx ~dependent -> incr accesses; pure.load b ~idx ~dependent);
          store = (fun b ~idx x -> incr accesses; pure.store b ~idx x);
          copy = (fun ~dst ~src ~elems -> incr accesses; pure.copy ~dst ~src ~elems) };
      List.iter2
        (fun (name, got) (_, want) ->
          checkb (bd.name ^ ": " ^ name ^ " as on pure_machine") true
            (Array.for_all2 Value.equal got want))
        bufs reference)
    Machsuite.Registry.all;
  checki "every access stopped once" !accesses !stops;
  Alcotest.(check string) "call-sequence digest" call_sequence_golden
    (Printf.sprintf "%016x" !h)

(* A loop whose condition loads a DMA buffer: a scan to a zero sentinel.
   Every trip must count the condition's branch before its load at the
   current index, and its compare after it, on a machine that never stops
   and on one that stops at every access. *)
let test_while_condition_loads () =
  let k =
    simple "scan" ~bufs:[ buf ~writable:false "a" I64 6; buf "out" I64 2 ]
      [
        let_ "j" (i 0);
        let_ "sum" (i 0);
        while_ (ld "a" (v "j") <>: i 0)
          [ let_ "sum" (v "sum" +: ld "a" (v "j")); let_ "j" (v "j" +: i 1) ];
        store "out" (i 0) (v "j");
        store "out" (i 1) (v "sum");
      ]
  in
  (* A call, with the branches and ALU ops counted before it. *)
  let at s branches alu = Printf.sprintf "%s b%d a%d" s branches alu in
  let expected =
    List.concat_map
      (fun j ->
        let load = Printf.sprintf "La%d" j in
        [ at load (j + 1) (3 * j); at load (j + 1) ((3 * j) + 1) ])
      [ 0; 1; 2 ]
    @ [ at "La3" 4 9; at "Sout0=3" 4 10; at "Sout1=15" 4 10 ]
  in
  let run stopping =
    let log = ref [] in
    let arrays =
      [ ("a", Array.map (fun x -> Value.VI x) [| 5; 3; 7; 0; 9; 1 |]);
        ("out", Array.make 2 (Value.VI 0)) ]
    in
    let pure = Interp.pure_machine ~bufs:arrays () in
    let say s =
      log := at s (count pure.ops Interp.Branch) (count pure.ops Interp.Alu) :: !log
    in
    let name b = fst (List.nth arrays b) in
    let logged =
      { pure with
        Interp.load =
          (fun b ~idx ~dependent ->
            say (Printf.sprintf "L%s%d" (name b) idx);
            pure.load b ~idx ~dependent);
        store =
          (fun b ~idx x ->
            say (Printf.sprintf "S%s%d=%d" (name b) idx (Value.as_int x));
            pure.store b ~idx x) }
    in
    let stops = ref 0 in
    (if stopping then begin
       let t = Interp.start k (pending_machine stops logged) in
       while not (Interp.resume t) do () done
     end
     else Interp.run k logged);
    Alcotest.(check (list string))
      (Printf.sprintf "callbacks (stopping %b)" stopping) expected (List.rev !log);
    Alcotest.(check (list int))
      (Printf.sprintf "final j and sum (stopping %b)" stopping) [ 3; 15 ]
      (Array.to_list (Array.map Value.as_int (List.assoc "out" arrays)));
    checki "one stop per access" (if stopping then 9 else 0) !stops;
    checki "ops in all" 14 (Interp.total pure.ops)
  in
  run false;
  run true

(* Allocation budget: the interpreter resolves locals, buffers and costs
   before it runs and computes on unboxed ints and floats, so an executed
   op allocates only where a value crosses the machine boundary: a stored
   value, which a boxed evaluator paid on every op (2-4 words an op on
   these kernels). *)
let test_allocation_budget () =
  List.iter
    (fun name ->
      let bd = Machsuite.Registry.find name in
      let m = bench_machine bd in
      let before = Gc.minor_words () in
      Interp.run bd.kernel m;
      let per_op = (Gc.minor_words () -. before) /. float_of_int (Interp.total m.ops) in
      if per_op > 0.5 then
        Alcotest.failf "%s: %.2f minor words per executed op (budget 0.5)" name per_op)
    [ "gemm_ncubed"; "kmp"; "aes"; "nw" ]

let prop_interp_deterministic =
  QCheck.Test.make ~count:100 ~name:"interpretation is deterministic"
    QCheck.(small_list (int_bound 1000))
    (fun xs ->
      let n = max 1 (List.length xs) in
      let k =
        simple "det" ~bufs:[ buf "a" I64 n; buf "out" I64 n ]
          [
            for_ "j" (i 0) (i n)
              [ store "out" (v "j") ((ld "a" (v "j") *: i 3) +: v "j") ];
          ]
      in
      let a () = Array.of_list (List.map (fun x -> Value.VI x) (if xs = [] then [0] else xs)) in
      let r1 = List.assoc "out" (run_pure k [ ("a", a ()) ]) in
      let r2 = List.assoc "out" (run_pure k [ ("a", a ()) ]) in
      r1 = r2)

(* ---------------- reference evaluator ---------------- *)

(* A boxed tree-walking evaluator: the semantics the compiled interpreter
   must reproduce on a machine of plain arrays (final buffers, the
   exception, the per-class op counts), counting each op where it is
   evaluated. *)
let reference (k : Ir.t) bufs =
  let ops = Interp.counters () in
  let tick c = ops.(Interp.cost_index c) <- ops.(Interp.cost_index c) + 1 in
  let vi n = Value.VI n and vf x = Value.VF x and bit b = Value.VI (Bool.to_int b) in
  let env = Hashtbl.create 8 in
  let zero (d : buf_decl) = if elem_is_float d.elem then vf 0.0 else vi 0 in
  let scratch =
    List.map (fun (d : buf_decl) -> (d.buf_name, Array.make d.len (zero d))) k.scratch
  in
  let internal b = List.mem_assoc b scratch in
  let array b = if internal b then List.assoc b scratch else List.assoc b bufs in
  let element b j =
    if internal b && (j < 0 || j >= Array.length (array b)) then
      raise (Interp.Aborted (Printf.sprintf "scratch %s index %d out of bounds" b j))
  in
  let access b j =
    if internal b then tick Interp.Sram;
    element b j
  in
  let int_op op (x : int) y =
    let div what f =
      if y = 0 then raise (Interp.Aborted ("integer " ^ what ^ " by zero")) else f x y
    in
    match (op : binop) with
    | Add -> vi (x + y) | Sub -> vi (x - y) | Mul -> vi (x * y)
    | Div -> vi (div "division" ( / )) | Mod -> vi (div "modulo" ( mod ))
    | Band -> vi (x land y) | Bor -> vi (x lor y) | Bxor -> vi (x lxor y)
    | Shl -> vi (x lsl y) | Shr -> vi (x asr y)
    | Imin -> vi (min x y) | Imax -> vi (max x y)
    | Lt -> bit (x < y) | Le -> bit (x <= y) | Gt -> bit (x > y) | Ge -> bit (x >= y)
    | Eq -> bit (x = y) | Ne -> bit (x <> y)
    | _ -> assert false
  in
  let float_op op (x : float) y =
    match (op : binop) with
    | Fadd -> vf (x +. y) | Fsub -> vf (x -. y) | Fmul -> vf (x *. y) | Fdiv -> vf (x /. y)
    | Fmin -> vf (Float.min x y) | Fmax -> vf (Float.max x y)
    | Flt -> bit (x < y) | Fle -> bit (x <= y) | Fgt -> bit (x > y) | Fge -> bit (x >= y)
    | _ -> assert false
  in
  let rec exp : exp -> Value.t = function
    | Int n -> vi n
    | Flt x -> vf x
    | Var x -> (
        match Hashtbl.find_opt env x with
        | Some value -> value
        | None -> raise (Value.Type_error ("unbound local " ^ x)))
    | Param _ -> assert false
    | Load (b, j) ->
        let j = Value.as_int (exp j) in
        access b j;
        (array b).(j)
    | Bin (op, x, y) -> (
        let a = exp x in
        let b = exp y in
        tick (Interp.cost_of_binop op);
        match fst (binop_ty op) with
        | TI -> int_op op (Value.as_int a) (Value.as_int b)
        | TF -> float_op op (Value.as_float a) (Value.as_float b))
    | Un (op, x) -> (
        let a = exp x in
        tick (Interp.cost_of_unop op);
        let f = Value.as_float and i = Value.as_int in
        match op with
        | Neg -> vi (-i a) | Bnot -> vi (lnot (i a))
        | I2f -> vf (float_of_int (i a)) | F2i -> vi (int_of_float (f a))
        | Fneg -> vf (-.f a) | Fabs -> vf (Float.abs (f a))
        | Fsqrt -> vf (sqrt (f a)) | Fexp -> vf (Float.exp (f a)))
  in
  let rec stmt : stmt -> unit = function
    | Let (x, e) -> Hashtbl.replace env x (exp e)
    | Store (b, j, e) ->
        let j = Value.as_int (exp j) in
        let value = exp e in
        access b j;
        (array b).(j) <- value
    | For (x, lo, hi, body) ->
        let lo = Value.as_int (exp lo) in
        let hi = Value.as_int (exp hi) in
        let rec trip j =
          Hashtbl.replace env x (vi j);
          if j < hi then begin
            tick Interp.Branch;
            List.iter stmt body;
            trip (j + 1)
          end
        in
        trip lo
    | While (c, body) as loop ->
        tick Interp.Branch;
        if Value.truthy (exp c) then begin
          List.iter stmt body;
          stmt loop
        end
    | If (c, a, b) ->
        tick Interp.Branch;
        List.iter stmt (if Value.truthy (exp c) then a else b)
    | Memcpy { dst; src; elems } ->
        let n = Value.as_int (exp elems) in
        if n < 0 then raise (Interp.Aborted "memcpy with negative length");
        let sides = List.length (List.filter internal [ dst; src ]) in
        if sides = 0 then Array.blit (array src) 0 (array dst) 0 n
        else begin
          ops.(Interp.cost_index Sram) <- ops.(Interp.cost_index Sram) + (sides * n);
          for j = 0 to n - 1 do
            element src j;
            element dst j;
            (array dst).(j) <- (array src).(j)
          done
        end
  in
  let outcome =
    match List.iter stmt k.body with () -> "ok" | exception e -> Printexc.to_string e
  in
  (outcome, ops)

(* Random well-typed kernels: int locals x y, float locals u w, loop
   variables and while counters by nesting; DMA buffers a b (i64) and f
   (f64), scratch s t (i64) and g (f64) whose indices may run out of
   bounds; division by zero and negative copy lengths occur. *)
let gen_kernel =
  let open QCheck.Gen in
  let masked mask e = Bin (Band, e, Int mask) in
  (* A scratch index: now and then one past the end of the 8 elements. *)
  let scratch_mask = frequency [ (8, return 7); (1, return 15) ] in
  let bin ops a b = map3 (fun op a b -> Bin (op, a, b)) (oneofl ops) a b in
  let un ops a = map2 (fun op a -> Un (op, a)) (oneofl ops) a in
  let load bufs mask idx = map3 (fun b m e -> Load (b, masked m e)) (oneofl bufs) mask idx in
  let rec iexp vars n =
    let leaf =
      oneof [ map (fun n -> Int n) (int_range (-3) 9); map (fun x -> Var x) (oneofl vars) ]
    in
    if n <= 0 then leaf
    else
      let sub = iexp vars (n / 2) and fsub = fexp vars (n / 2) in
      frequency
        [ (2, leaf);
          (4, bin [ Add; Sub; Mul; Div; Mod; Band; Bor; Bxor; Lt; Le; Gt; Ge; Eq; Ne;
                    Imin; Imax ] sub sub);
          (1, bin [ Shl; Shr ] sub (map (masked 7) sub));
          (1, load [ "a"; "b" ] (return 7) sub);
          (1, load [ "s"; "t" ] scratch_mask sub);
          (1, un [ Neg; Bnot ] sub);
          (1, un [ F2i ] fsub);
          (1, bin [ Flt; Fle; Fgt; Fge ] fsub fsub) ]
  and fexp vars n =
    let leaf =
      oneof
        [ map (fun x -> Flt (float_of_int x /. 4.)) (int_range (-8) 8);
          oneofl [ Var "u"; Var "w" ] ]
    in
    if n <= 0 then leaf
    else
      let sub = fexp vars (n / 2) and isub = iexp vars (n / 2) in
      frequency
        [ (2, leaf);
          (3, bin [ Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax ] sub sub);
          (1, load [ "f" ] (return 7) isub);
          (1, load [ "g" ] scratch_mask isub);
          (1, un [ I2f ] isub);
          (1, un [ Fneg; Fabs; Fsqrt ] sub) ]
  in
  (* [depth] counts the enclosing loops, whose variables are in scope;
     [level] every enclosing body, which names a while loop's counter. *)
  let rec stmts ~depth ~level n =
    let vars = [ "x"; "y" ] @ List.init depth (fun d -> Printf.sprintf "i%d" d) in
    let ie = iexp vars 4 and fe = fexp vars 4 in
    let body ~depth =
      if n <= 0 then return []
      else
        list_size (int_range 1 3) (stmts ~depth ~level:(level + 1) (n - 1)) >|= List.concat
    in
    let store bufs mask value =
      map3 (fun b (m, j) e -> [ Store (b, masked m j, e) ]) (oneofl bufs) (pair mask ie) value
    in
    let copy =
      oneofl [ ("a", "b"); ("s", "a"); ("a", "s"); ("s", "t"); ("g", "f"); ("f", "g") ]
    in
    let counter = Printf.sprintf "c%d" level in
    frequency
      [ (3, map2 (fun x e -> [ Let (x, e) ]) (oneofl [ "x"; "y" ]) ie);
        (2, map2 (fun x e -> [ Let (x, e) ]) (oneofl [ "u"; "w" ]) fe);
        (2, store [ "a"; "b" ] (return 7) ie);
        (1, store [ "f" ] (return 7) fe);
        (1, store [ "s"; "t" ] scratch_mask ie);
        (1, store [ "g" ] scratch_mask fe);
        (1, map2 (fun (dst, src) e ->
                [ Memcpy { dst; src; elems = Bin (Sub, masked 7 e, Int 1) } ])
              copy ie);
        ( (if n > 0 then 2 else 0),
          map3 (fun lo hi body ->
              [ For (Printf.sprintf "i%d" depth, Int lo, masked 7 hi, body) ])
            (int_range (-1) 2) ie (body ~depth:(depth + 1)) );
        ( (if n > 0 then 2 else 0),
          map3 (fun c a b -> [ If (c, a, b) ]) ie (body ~depth) (body ~depth) );
        ( (if n > 0 then 1 else 0),
          map2 (fun trips body ->
              [ Let (counter, Int 0);
                While (Bin (Lt, Var counter, Int trips),
                       body @ [ Let (counter, Bin (Add, Var counter, Int 1)) ]) ])
            (int_range 0 3) (body ~depth) ) ]
  in
  let init =
    [ Let ("x", Int 2); Let ("y", Int (-1)); Let ("u", Flt 0.5); Let ("w", Flt (-1.5)) ]
  in
  map
    (fun body ->
      { name = "random";
        bufs = [ buf "a" I64 8; buf "b" I64 8; buf "f" F64 8 ];
        scratch = [ buf "s" I64 8; buf "t" I64 8; buf "g" F64 8 ];
        body = init @ List.concat body })
    (list_size (int_range 2 8) (stmts ~depth:0 ~level:0 2))

let prop_reference =
  QCheck.Test.make ~count:500 ~name:"interpreter == reference evaluator"
    (QCheck.make ~print:Ir.to_string gen_kernel)
    (fun k ->
      let bufs () =
        [ ("a", Array.init 8 (fun j -> Value.VI ((3 * j) - 5)));
          ("b", Array.init 8 (fun j -> Value.VI (j * j)));
          ("f", Array.init 8 (fun j -> Value.VF ((float_of_int j *. 0.75) -. 2.0))) ]
      in
      let mine = bufs () and theirs = bufs () in
      let m = Interp.pure_machine ~bufs:mine () in
      let got =
        match Interp.run k m with () -> "ok" | exception e -> Printexc.to_string e
      in
      let want, ops = reference k theirs in
      if got <> want then QCheck.Test.fail_reportf "outcome %s, reference %s" got want;
      if m.ops <> ops then QCheck.Test.fail_report "op counts differ";
      List.for_all2 (fun (_, x) (_, y) -> Array.for_all2 Value.equal x y) mine theirs)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_interp_deterministic; prop_reference ]

let suite =
  [
    ("validate ok", `Quick, test_validate_ok);
    ("validate unknown buffer", `Quick, test_validate_unknown_buffer);
    ("validate read-only store", `Quick, test_validate_readonly_store);
    ("validate duplicate names", `Quick, test_validate_duplicate_names);
    ("validate scratch collision", `Quick, test_validate_scratch_buf_collision);
    ("validate memcpy types", `Quick, test_validate_memcpy_type_mismatch);
    ("validate messages name buffer and statement", `Quick,
     test_validate_messages_name_buffer_and_statement);
    ("validate memcpy mismatch names types", `Quick,
     test_validate_memcpy_mismatch_names_types);
    ("validate scratch store", `Quick, test_validate_scratch_store_ok);
    ("integer ops", `Quick, test_int_ops);
    ("float ops", `Quick, test_float_ops);
    ("for loop", `Quick, test_for_loop);
    ("for empty range", `Quick, test_for_empty_range);
    ("while loop", `Quick, test_while_loop);
    ("fuel exhaustion", `Quick, test_fuel_exhaustion);
    ("params", `Quick, test_params);
    ("scratch zeroed and isolated", `Quick, test_scratch_isolated_and_zeroed);
    ("scratch OOB aborts", `Quick, test_scratch_oob_aborts);
    ("memcpy buffer/buffer", `Quick, test_memcpy_buffer_to_buffer);
    ("memcpy through scratch", `Quick, test_memcpy_through_scratch);
    ("division by zero", `Quick, test_division_by_zero_aborts);
    ("contains_load", `Quick, test_contains_load);
    ("dependent flag", `Quick, test_dependent_flag_passed);
    ("cost classes", `Quick, test_cost_classes);
    ("tick counts", `Quick, test_tick_counts);
    ("unbound var message", `Quick, test_unbound_var_message);
    ("for body assigns loop var", `Quick, test_for_body_assigns_loop_var);
    ("fuel exhaustion ticks", `Quick, test_fuel_exhaustion_ticks);
    ("call-sequence digest", `Quick, test_call_sequence_digest);
    ("pending at every access", `Quick, test_pending_at_every_access);
    ("while condition loads dma", `Quick, test_while_condition_loads);
    ("allocation budget", `Quick, test_allocation_budget);
  ]
  @ qsuite
