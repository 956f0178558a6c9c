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

let test_tick_counts () =
  let ticks = Hashtbl.create 8 in
  let k =
    simple "ticks"
      [ let_ "x" ((i 1 +: i 2) *: i 3); for_ "j" (i 0) (i 4) [ let_ "y" (v "j") ] ]
  in
  let pure = Interp.pure_machine ~bufs:[ ("out", Array.make 8 (Value.VI 0)) ] () in
  let m =
    { pure with
      Interp.tick =
        (fun c n ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt ticks c) in
          Hashtbl.replace ticks c (cur + n)) }
  in
  Interp.run k m;
  checki "one add" 1 (Option.value ~default:0 (Hashtbl.find_opt ticks Interp.Alu));
  checki "one mul" 1 (Option.value ~default:0 (Hashtbl.find_opt ticks Interp.Imul));
  checki "four back-edges" 4
    (Option.value ~default:0 (Hashtbl.find_opt ticks Interp.Branch))

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
  let branches = ref 0 and bodies = ref 0 in
  let k = simple "spin" [ while_ (i 1) [ store "out" (i 0) (i 0) ] ] in
  let pure = Interp.pure_machine ~bufs:[ ("out", Array.make 8 (Value.VI 0)) ] () in
  let m =
    { pure with
      Interp.tick = (fun c _ -> if c = Interp.Branch then incr branches);
      store = (fun name ~idx x -> incr bodies; pure.store name ~idx x) }
  in
  (match Interp.run ~fuel:5 k m with
  | () -> Alcotest.fail "expected fuel exhaustion"
  | exception Interp.Fuel_exhausted -> ());
  checki "condition ticks" 5 !branches;
  checki "bodies run" 4 !bodies

(* ---------------- call sequence ---------------- *)

(* The interpreter's observable behaviour is the exact sequence of machine
   callbacks it makes.  Every registry benchmark runs on a machine that
   records each call (kind, buffer, index, dependent flag, value, cost class
   and count) around [pure_machine]; the digest over all of them pins the
   order and arguments of every load, store, copy, tick and param. *)
let call_sequence_golden = "75a5a0e560f55e85"

let cost_tag : Interp.cost -> char = function
  | Alu -> 'a' | Imul -> 'm' | Idiv -> 'd' | Fadd -> 'F' | Fmul -> 'M'
  | Fdiv -> 'D' | Fspec -> 's' | Branch -> 'b' | Sram -> 'r'

(* A 63-bit multiply-xorshift hash folded over every recorded field: cheap
   enough for the ~25 M callbacks of the registry, and any change in the
   order or value of a field moves it. *)
let recording_machine h (pure : Interp.machine) =
  let int n =
    let x = (!h + n) * 0x5bd1e9955bd1e995 in
    h := x lxor (x lsr 29)
  in
  let str s = int (Hashtbl.hash s) in
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
        int (Char.code 'L'); buf b; int idx; int (Bool.to_int dependent);
        let x = pure.load b ~idx ~dependent in
        value x;
        x);
    store =
      (fun b ~idx x ->
        int (Char.code 'S'); buf b; int idx; value x;
        pure.store b ~idx x);
    copy =
      (fun ~dst ~src ~elems ->
        int (Char.code 'C'); buf dst; buf src; int elems;
        pure.copy ~dst ~src ~elems);
    tick = (fun c n -> int (Char.code 'T'); int (Char.code (cost_tag c)); int n);
    param =
      (fun name ->
        int (Char.code 'P'); str name;
        let x = pure.param name in
        value x;
        x);
  }

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
      Interp.run bd.kernel (recording_machine h (bench_machine bd)))
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
   Every trip must run the condition's branch tick and its load at the
   current index, on a machine that never stops and on one that stops at
   every access. *)
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
  let trip j = [ "Tb"; Printf.sprintf "La%d" j; "Ta" ] in
  let expected =
    List.concat_map (fun j -> trip j @ [ Printf.sprintf "La%d" j; "Ta"; "Ta" ]) [ 0; 1; 2 ]
    @ trip 3 @ [ "Sout0=3"; "Sout1=15" ]
  in
  let run stopping =
    let log = ref [] in
    let say s = log := s :: !log in
    let arrays =
      [ ("a", Array.map (fun x -> Value.VI x) [| 5; 3; 7; 0; 9; 1 |]);
        ("out", Array.make 2 (Value.VI 0)) ]
    in
    let pure = Interp.pure_machine ~bufs:arrays () in
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
            pure.store b ~idx x);
        tick = (fun c _ -> say (Printf.sprintf "T%c" (cost_tag c))) }
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
    checki "one stop per access" (if stopping then 9 else 0) !stops
  in
  run false;
  run true

(* Allocation budget: the interpreter resolves locals, buffers and costs
   before it runs, so an executed op (one machine callback) allocates little
   more than the values it computes.  Per-node name hashing costs ~3.5-4
   minor words per op on these kernels. *)
let test_allocation_budget () =
  List.iter
    (fun name ->
      let bd = Machsuite.Registry.find name in
      let pure = bench_machine bd in
      let ops = ref 0 in
      let m =
        {
          Interp.buffer = pure.buffer;
          load = (fun b ~idx ~dependent -> incr ops; pure.load b ~idx ~dependent);
          store = (fun b ~idx x -> incr ops; pure.store b ~idx x);
          copy = (fun ~dst ~src ~elems -> incr ops; pure.copy ~dst ~src ~elems);
          tick = (fun _ _ -> incr ops);
          param = (fun p -> incr ops; pure.param p);
        }
      in
      let before = Gc.minor_words () in
      Interp.run bd.kernel m;
      let per_op = (Gc.minor_words () -. before) /. float_of_int !ops in
      if per_op > 3.0 then
        Alcotest.failf "%s: %.2f minor words per executed op (budget 3.0)" name
          per_op)
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

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_interp_deterministic ]

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
