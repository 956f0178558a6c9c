type cost = Alu | Imul | Idiv | Fadd | Fmul | Fdiv | Fspec | Branch | Sram

let costs = [| Alu; Imul; Idiv; Fadd; Fmul; Fdiv; Fspec; Branch; Sram |]

let cost_index = function
  | Alu -> 0 | Imul -> 1 | Idiv -> 2 | Fadd -> 3 | Fmul -> 4 | Fdiv -> 5
  | Fspec -> 6 | Branch -> 7 | Sram -> 8

let counters () = Array.make (Array.length costs) 0
let total ops = Array.fold_left ( + ) 0 ops

exception Aborted of string
exception Fuel_exhausted

type machine = {
  buffer : string -> int;
  load : int -> idx:int -> dependent:bool -> Value.t;
  store : int -> idx:int -> Value.t -> bool;
  copy : dst:int -> src:int -> elems:int -> bool;
  param : string -> Value.t;
  ops : int array;
}

(* Physically unique: no kernel value is ever mistaken for it. *)
let pending : Value.t = Value.VI (Sys.opaque_identity 0)

let cost_of_binop : Ir.binop -> cost = function
  | Add | Sub | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne | Imin | Imax -> Alu
  | Mul -> Imul
  | Div | Mod -> Idiv
  | Fadd | Fsub | Flt | Fle | Fgt | Fge | Fmin | Fmax -> Fadd
  | Fmul -> Fmul
  | Fdiv -> Fdiv

let cost_of_unop : Ir.unop -> cost = function
  | Neg | Bnot | I2f | F2i -> Alu
  | Fneg | Fabs -> Fadd
  | Fsqrt | Fexp -> Fspec

(* The operators on unboxed operands.  Each is inlined into a node's
   closure, so its operands and result never leave registers; [Ir.binop_ty]
   says which table an operator belongs to. *)
let[@inline] int_binop (op : Ir.binop) a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise (Aborted "integer division by zero") else a / b
  | Mod -> if b = 0 then raise (Aborted "integer modulo by zero") else a mod b
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Shl -> a lsl b
  | Shr -> a asr b
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | Imin -> if a <= b then a else b
  | Imax -> if a >= b then a else b
  | Fadd | Fsub | Fmul | Fdiv | Flt | Fle | Fgt | Fge | Fmin | Fmax -> assert false

let[@inline] float_binop (op : Ir.binop) (a : float) (b : float) =
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Fmin -> Float.min a b
  | Fmax -> Float.max a b
  | _ -> assert false

let[@inline] float_compare (op : Ir.binop) (a : float) (b : float) =
  match op with
  | Flt -> if a < b then 1 else 0
  | Fle -> if a <= b then 1 else 0
  | Fgt -> if a > b then 1 else 0
  | Fge -> if a >= b then 1 else 0
  | _ -> assert false

let[@inline] float_unop (op : Ir.unop) (a : float) =
  match op with
  | Fneg -> -.a
  | Fabs -> Float.abs a
  | Fsqrt -> sqrt a
  | Fexp -> exp a
  | _ -> assert false

(* A scratch memory holds its element type unboxed. *)
type scratch = Ints of int array | Floats of float array

let out_of_bounds name idx =
  raise (Aborted (Printf.sprintf "scratch %s index %d out of bounds" name idx))

let scratch_length = function Ints a -> Array.length a | Floats a -> Array.length a

let scratch_get name sc idx : Value.t =
  if idx < 0 || idx >= scratch_length sc then out_of_bounds name idx;
  match sc with
  | Ints a -> Value.of_int (Array.unsafe_get a idx)
  | Floats a -> VF (Array.unsafe_get a idx)

let scratch_set name sc idx (value : Value.t) =
  if idx < 0 || idx >= scratch_length sc then out_of_bounds name idx;
  match sc with
  | Ints a -> Array.unsafe_set a idx (Value.as_int value)
  | Floats a -> Array.unsafe_set a idx (Value.as_float value)

let scratch_copy ~dst d ~src s idx =
  match (s, d) with
  | Ints a, Ints b ->
      if idx < 0 || idx >= Array.length a then out_of_bounds src idx;
      if idx >= Array.length b then out_of_bounds dst idx;
      Array.unsafe_set b idx (Array.unsafe_get a idx)
  | Floats a, Floats b ->
      if idx < 0 || idx >= Array.length a then out_of_bounds src idx;
      if idx >= Array.length b then out_of_bounds dst idx;
      Array.unsafe_set b idx (Array.unsafe_get a idx)
  | _ -> scratch_set dst d idx (scratch_get src s idx)

(* A compiled kernel: a flat array of steps.  A step runs straight-line
   code and returns the index of the next step, [finished], or [stopped pc]
   when the machine call of step [pc] answered pending; resuming runs step
   [pc] again. *)
type t = {
  steps : (unit -> int) array;
  last : int;  (* the step that answers [finished] *)
  mutable pc : int;
}

let finished = -1
let stopped pc = -2 - pc

(* What a site's steps hand each other: a machine call's operands and
   answer, a loop's counter and bound. *)
type cell = { mutable value : Value.t; mutable n : int; mutable hi : int }

(* A compiled operand.  [Slot] is a frame slot whose read has no effect: a
   constant, a local that is assigned wherever it is read, a machine call's
   answer.  Code has effects (counts, calls, errors) and runs where the
   operand is evaluated; float code leaves its value in its slot. *)
type int_operand = Islot of int | Icode of (unit -> int)
type float_operand = Fslot of int | Fcode of (unit -> unit) * int

module Names = Set.Make (String)

type local = { ty : Ir.ty; slot : int; flag : int  (* -1: always assigned first *) }

(* A buffer's element type; a name the kernel does not declare is refused
   by the machine when it is compiled. *)
let elem_of (k : Ir.t) b =
  match List.find_opt (fun (d : Ir.buf_decl) -> d.buf_name = b) (k.bufs @ k.scratch) with
  | Some d -> d.elem
  | None -> I64

(* The kernel's locals: one type each, a slot in that type's frame, and a
   flag for those that some read may find unassigned.  [nodes] counts the
   expression nodes, which bounds the frame slots the compiler adds. *)
let locals (k : Ir.t) =
  let types = Hashtbl.create 16 and aliases = ref [] and names = ref [] in
  let unsure = Hashtbl.create 8 and nodes = ref 0 in
  let name x = if not (List.mem x !names) then names := x :: !names in
  let bind x ty =
    match Hashtbl.find_opt types x with
    | Some ty' when ty' <> ty -> raise (Value.Type_error ("local " ^ x ^ " changes type"))
    | Some _ -> ()
    | None -> Hashtbl.add types x ty
  in
  (* [assigned]: the locals every path has written by this point. *)
  let rec exp assigned (e : Ir.exp) =
    incr nodes;
    match e with
    | Var x ->
        name x;
        if not (Names.mem x assigned) then Hashtbl.replace unsure x ()
    | Int _ | Flt _ | Param _ -> ()
    | Load (_, e) | Un (_, e) -> exp assigned e
    | Bin (_, a, b) ->
        exp assigned a;
        exp assigned b
  in
  let rec stmt assigned (s : Ir.stmt) =
    match s with
    | Let (x, e) ->
        exp assigned e;
        name x;
        (match e with
        | Var y -> aliases := (x, y) :: !aliases
        | e ->
            bind x
              (Ir.infer ~local:(fun _ -> assert false) ~param:(fun _ -> Ir.TI)
                 ~elem:(elem_of k) e));
        Names.add x assigned
    | Store (_, idx, value) ->
        exp assigned idx;
        exp assigned value;
        assigned
    | For (v, lo, hi, body) ->
        exp assigned lo;
        exp assigned hi;
        name v;
        bind v TI;
        let assigned = Names.add v assigned in
        ignore (block assigned body : Names.t);
        assigned
    | While (c, body) ->
        exp assigned c;
        ignore (block assigned body : Names.t);
        assigned
    | If (c, a, b) ->
        exp assigned c;
        Names.inter (block assigned a) (block assigned b)
    | Memcpy { elems; _ } ->
        exp assigned elems;
        assigned
  and block assigned = List.fold_left stmt assigned in
  ignore (block Names.empty k.body : Names.t);
  (* [x := y] takes [y]'s type; a local never typed is an int. *)
  let rec settle () =
    let progress =
      List.fold_left
        (fun progress (x, y) ->
          match (Hashtbl.find_opt types y, Hashtbl.mem types x) with
          | Some ty, typed ->
              bind x ty;
              progress || not typed
          | None, _ -> progress)
        false !aliases
    in
    if progress then settle ()
  in
  settle ();
  let counts = [| 0; 0 |] and flags = ref 0 in
  let table = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let ty = Option.value ~default:Ir.TI (Hashtbl.find_opt types x) in
      let i = match ty with TI -> 0 | TF -> 1 in
      let flag = if Hashtbl.mem unsure x then (incr flags; !flags - 1) else -1 in
      Hashtbl.add table x { ty; slot = counts.(i); flag };
      counts.(i) <- counts.(i) + 1)
    (List.rev !names);
  (table, counts.(0), counts.(1), !flags, !nodes)

(* Everything that depends only on the kernel is decided here, once; every
   machine callback happens at run time, in tree order. *)
let start ?(fuel = 100_000_000) (k : Ir.t) m =
  if Array.length m.ops <> Array.length costs then
    invalid_arg "Kernel.Interp.start: the machine's ops array is not one count per cost";
  let table, n_ints, n_floats, n_flags, nodes = locals k in
  let local x = Hashtbl.find table x in
  (* Locals first; each node adds at most one slot to each frame after
     them, and the closures index the frames unchecked. *)
  let ints = Array.make (n_ints + nodes) 0 in
  let floats = Array.make (n_floats + nodes) 0.0 in
  let next_int = ref n_ints and next_float = ref n_floats in
  let slot next frame =
    assert (!next < frame);
    incr next;
    !next - 1
  in
  let int_slot () = slot next_int (Array.length ints) in
  let float_slot () = slot next_float (Array.length floats) in
  let assigned = Bytes.make n_flags '\000' in
  let[@inline] mark flag = if flag >= 0 then Bytes.unsafe_set assigned flag '\001' in
  let bound x flag () =
    if Bytes.unsafe_get assigned flag = '\000' then
      raise (Value.Type_error ("unbound local " ^ x))
  in
  let ops = m.ops in
  let k_branch = cost_index Branch and k_sram = cost_index Sram in
  let[@inline] count k = Array.unsafe_set ops k (Array.unsafe_get ops k + 1) in
  let scratch : (string, scratch) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Ir.buf_decl) ->
      Hashtbl.add scratch b.buf_name
        (if Ir.elem_is_float b.elem then Floats (Array.make b.len 0.0)
         else Ints (Array.make b.len 0)))
    k.scratch;
  let fuel_left = ref fuel in
  let code = ref [||] and here = ref 0 in
  let push step =
    if !here = Array.length !code then begin
      let grown = Array.make (2 * Int.max 32 !here) step in
      Array.blit !code 0 grown 0 !here;
      code := grown
    end;
    !code.(!here) <- step;
    incr here
  in
  (* Straight-line code not yet in a step: the next step runs it first, so
     a step is a basic block that ends in a call, a branch or a jump. *)
  let actions = ref [] in
  let act f = actions := f :: !actions in
  let emit tail =
    push
      (match List.rev !actions with
      | [] -> tail
      | [ a ] ->
          fun () ->
            a ();
            tail ()
      | acts ->
          let acts = Array.of_list acts in
          fun () ->
            for j = 0 to Array.length acts - 1 do
              (Array.unsafe_get acts j) ()
            done;
            tail ());
    actions := []
  in
  let flush () =
    if !actions <> [] then begin
      let pc = !here in
      emit (fun () -> pc + 1)
    end
  in
  (* A jump target starts a step of its own. *)
  let label () = ref (-1) in
  let place l =
    flush ();
    l := !here
  in
  let cell () = { value = pending; n = 0; hi = 0 } in
  (* A machine call: the code before it, then the call, in one step; a stop
     resumes at a second step that repeats only the call. *)
  let call attempt =
    let pc = !here in
    let retry () = if attempt () then pc + 2 else stopped (pc + 1) in
    emit retry;
    push retry
  in
  let dma b = not (Hashtbl.mem scratch b) in
  let rec calls : Ir.exp -> bool = function
    | Int _ | Flt _ | Var _ | Param _ -> false
    | Load (b, idx) -> dma b || calls idx
    | Bin (_, x, y) -> calls x || calls y
    | Un (_, x) -> calls x
  in
  let ty_of = Ir.infer ~local:(fun x -> (local x).ty) ~param:(fun _ -> Ir.TI) ~elem:(elem_of k) in
  let int_code = function
    | Islot s -> fun () -> Array.unsafe_get ints s
    | Icode f -> f
  in
  let float_run = function Fslot _ -> ignore | Fcode (f, _) -> f in
  let float_at = function Fslot s | Fcode (_, s) -> s in
  (* The operand of the other type, where an operator or a context fixes
     it: [Value.as_int]'s or [Value.as_float]'s error once its value is
     known. *)
  let int_from_float x =
    let run = float_run x and s = float_at x in
    Icode
      (fun () ->
        run ();
        Value.as_int (VF (Array.unsafe_get floats s)))
  in
  let float_from_int x =
    let f = int_code x in
    Fcode ((fun () -> ignore (Value.as_float (VI (f ())) : float)), float_slot ())
  in
  (* When [later] code calls the machine, [x]'s code runs before that call,
     so its effects keep their order; a slot needs nothing. *)
  let hold_int later x =
    match x with
    | Icode f when later ->
        let s = int_slot () in
        act (fun () -> Array.unsafe_set ints s (f ()));
        Islot s
    | Islot _ | Icode _ -> x
  in
  let hold_float later x =
    match x with
    | Fcode (f, s) when later ->
        act f;
        Fslot s
    | Fslot _ | Fcode _ -> x
  in
  (* A DMA load: its call's steps, and the cell that keeps the answer. *)
  let rec dma_load b idx_exp unbox =
    let idx = int_of idx_exp in
    let h = m.buffer b and dependent = Ir.contains_load idx_exp and c = cell () in
    let answer () =
      let value = m.load h ~idx:c.n ~dependent in
      value != pending
      && begin
           c.value <- value;
           unbox value;
           true
         end
    in
    (match idx with
    | Islot s ->
        call (fun () ->
            c.n <- Array.unsafe_get ints s;
            answer ())
    | Icode f ->
        act (fun () -> c.n <- f ());
        call answer);
    c
  (* [int_of e] and [float_of e] emit the steps of [e]'s machine calls and
     return an operand for the rest, evaluated after them. *)
  and int_of (e : Ir.exp) : int_operand =
    match e with
    | Param name -> Icode (fun () -> Value.as_int (m.param name))
    | _ when ty_of e = TF -> int_from_float (float_of e)
    | Int n ->
        let s = int_slot () in
        ints.(s) <- n;
        Islot s
    | Var x ->
        let l = local x in
        if l.flag < 0 then Islot l.slot
        else
          let check = bound x l.flag and s = l.slot in
          Icode
            (fun () ->
              check ();
              Array.unsafe_get ints s)
    | Load (b, idx_exp) -> (
        match Hashtbl.find_opt scratch b with
        | Some (Ints a) ->
            let idx = int_code (int_of idx_exp) in
            Icode
              (fun () ->
                let i = idx () in
                count k_sram;
                if i < 0 || i >= Array.length a then out_of_bounds b i;
                Array.unsafe_get a i)
        | Some (Floats _) -> assert false
        | None ->
            let s = int_slot () in
            ignore (dma_load b idx_exp (fun v -> Array.unsafe_set ints s (Value.as_int v)) : cell);
            Islot s)
    | Bin (op, x, y) -> (
        let c = cost_index (cost_of_binop op) in
        match fst (Ir.binop_ty op) with
        | TI -> (
            let x = hold_int (calls y) (int_of x) in
            match (x, int_of y) with
            | Islot a, Islot b ->
                Icode
                  (fun () ->
                    count c;
                    int_binop op (Array.unsafe_get ints a) (Array.unsafe_get ints b))
            | Islot a, Icode g ->
                Icode
                  (fun () ->
                    let b = g () in
                    count c;
                    int_binop op (Array.unsafe_get ints a) b)
            | Icode f, Islot b ->
                Icode
                  (fun () ->
                    let a = f () in
                    count c;
                    int_binop op a (Array.unsafe_get ints b))
            | Icode f, Icode g ->
                Icode
                  (fun () ->
                    let a = f () in
                    let b = g () in
                    count c;
                    int_binop op a b))
        | TF -> (
            let x = hold_float (calls y) (float_of x) in
            let y = float_of y in
            let a = float_at x and b = float_at y in
            match (x, y) with
            | Fslot _, Fslot _ ->
                Icode
                  (fun () ->
                    count c;
                    float_compare op (Array.unsafe_get floats a) (Array.unsafe_get floats b))
            | _ ->
                let f = float_run x and g = float_run y in
                Icode
                  (fun () ->
                    f ();
                    g ();
                    count c;
                    float_compare op (Array.unsafe_get floats a) (Array.unsafe_get floats b))))
    | Un (op, x) -> (
        let c = cost_index (cost_of_unop op) in
        match op with
        | F2i ->
            let x = float_of x in
            let f = float_run x and a = float_at x in
            Icode
              (fun () ->
                f ();
                count c;
                int_of_float (Array.unsafe_get floats a))
        | _ ->
            let f = int_code (int_of x) in
            let neg = op = Neg in
            Icode
              (fun () ->
                let a = f () in
                count c;
                if neg then -a else lnot a))
    | Flt _ -> assert false
  and float_of (e : Ir.exp) : float_operand =
    match e with
    | Param name ->
        let s = float_slot () in
        Fcode ((fun () -> Array.unsafe_set floats s (Value.as_float (m.param name))), s)
    | _ when ty_of e = TI -> float_from_int (int_of e)
    | Flt x ->
        let s = float_slot () in
        floats.(s) <- x;
        Fslot s
    | Var x ->
        let l = local x in
        if l.flag < 0 then Fslot l.slot else Fcode (bound x l.flag, l.slot)
    | Load (b, idx_exp) -> (
        let s = float_slot () in
        match Hashtbl.find_opt scratch b with
        | Some (Floats a) ->
            let idx = int_code (int_of idx_exp) in
            Fcode
              ( (fun () ->
                  let i = idx () in
                  count k_sram;
                  if i < 0 || i >= Array.length a then out_of_bounds b i;
                  Array.unsafe_set floats s (Array.unsafe_get a i)),
                s )
        | Some (Ints _) -> assert false
        | None ->
            ignore
              (dma_load b idx_exp (fun v -> Array.unsafe_set floats s (Value.as_float v))
                : cell);
            Fslot s)
    | Bin (op, x, y) -> (
        let c = cost_index (cost_of_binop op) and s = float_slot () in
        let x = hold_float (calls y) (float_of x) in
        let y = float_of y in
        let a = float_at x and b = float_at y in
        match (x, y) with
        | Fslot _, Fslot _ ->
            Fcode
              ( (fun () ->
                  count c;
                  Array.unsafe_set floats s
                    (float_binop op (Array.unsafe_get floats a) (Array.unsafe_get floats b))),
                s )
        | _ ->
            let f = float_run x and g = float_run y in
            Fcode
              ( (fun () ->
                  f ();
                  g ();
                  count c;
                  Array.unsafe_set floats s
                    (float_binop op (Array.unsafe_get floats a) (Array.unsafe_get floats b))),
                s ))
    | Un (op, x) -> (
        let c = cost_index (cost_of_unop op) and s = float_slot () in
        match op with
        | I2f ->
            let f = int_code (int_of x) in
            Fcode
              ( (fun () ->
                  let a = f () in
                  count c;
                  Array.unsafe_set floats s (float_of_int a)),
                s )
        | _ ->
            let x = float_of x in
            let f = float_run x and a = float_at x in
            Fcode
              ( (fun () ->
                  f ();
                  count c;
                  Array.unsafe_set floats s (float_unop op (Array.unsafe_get floats a))),
                s ))
    | Int _ -> assert false
  in
  (* A stored value crosses the machine boundary boxed: a parameter or a
     loaded element as the machine gave it, anything else by its type. *)
  let boxed (e : Ir.exp) : unit -> Value.t =
    match e with
    | Param name -> fun () -> m.param name
    | Load (b, idx_exp) when dma b ->
        let c = dma_load b idx_exp (fun _ -> ()) in
        fun () -> c.value
    | _ -> (
        match ty_of e with
        | TI ->
            let f = int_code (int_of e) in
            fun () -> Value.of_int (f ())
        | TF ->
            let x = float_of e in
            let f = float_run x and s = float_at x in
            fun () ->
              f ();
              VF (Array.unsafe_get floats s))
  in
  (* A branch's count, then its condition: true goes on to the next step,
     false to [no]. *)
  let branch ~fueled cond no =
    let counted = calls cond in
    if counted then act (fun () -> count k_branch);
    let cond = int_code (int_of cond) in
    let pc = !here in
    emit (fun () ->
        if not counted then count k_branch;
        if cond () <> 0 then begin
          if fueled then begin
            decr fuel_left;
            if !fuel_left <= 0 then raise Fuel_exhausted
          end;
          pc + 1
        end
        else !no)
  in
  let rec stmt (s : Ir.stmt) =
    match s with
    | Let (x, e) -> (
        let l = local x in
        let s = l.slot and flag = l.flag in
        match l.ty with
        | TI ->
            let v = int_code (int_of e) in
            act (fun () ->
                Array.unsafe_set ints s (v ());
                mark flag)
        | TF ->
            let x = float_of e in
            let f = float_run x and a = float_at x in
            act (fun () ->
                f ();
                Array.unsafe_set floats s (Array.unsafe_get floats a);
                mark flag))
    | Store (b, idx_exp, value_exp) -> (
        let idx = int_code (hold_int (calls value_exp) (int_of idx_exp)) in
        match Hashtbl.find_opt scratch b with
        | Some (Ints a) ->
            let value = int_code (int_of value_exp) in
            act (fun () ->
                let i = idx () in
                let v = value () in
                count k_sram;
                if i < 0 || i >= Array.length a then out_of_bounds b i;
                Array.unsafe_set a i v)
        | Some (Floats a) ->
            let x = float_of value_exp in
            let f = float_run x and s = float_at x in
            act (fun () ->
                let i = idx () in
                f ();
                count k_sram;
                if i < 0 || i >= Array.length a then out_of_bounds b i;
                Array.unsafe_set a i (Array.unsafe_get floats s))
        | None ->
            let value = boxed value_exp in
            let h = m.buffer b and c = cell () in
            act (fun () ->
                c.n <- idx ();
                c.value <- value ());
            call (fun () -> m.store h ~idx:c.n c.value))
    | For (var, lo_exp, hi_exp, body) ->
        (* C semantics: the variable is assigned [lo] even for a zero-trip
           loop and holds [max lo hi] afterwards; writes to it from the body
           do not affect the trip count, which the loop's cell keeps. *)
        let lo = int_code (hold_int (calls hi_exp) (int_of lo_exp)) in
        let hi = int_code (int_of hi_exp) in
        let l = local var in
        let s = l.slot and flag = l.flag in
        let c = cell () and exit = label () and head = !here in
        let enter j =
          Array.unsafe_set ints s j;
          mark flag;
          if j < c.hi then begin
            c.n <- j;
            count k_branch;
            head + 1
          end
          else !exit
        in
        emit (fun () ->
            let lo = lo () in
            c.hi <- hi ();
            enter lo);
        block body;
        emit (fun () -> enter (c.n + 1));
        place exit
    | While (cond, body) ->
        let exit = label () and top = label () in
        place top;
        branch ~fueled:true cond exit;
        block body;
        emit (fun () -> !top);
        place exit
    | If (cond, then_, else_) ->
        let else_l = label () in
        branch ~fueled:false cond else_l;
        block then_;
        if else_ = [] then place else_l
        else begin
          let end_l = label () in
          emit (fun () -> !end_l);
          place else_l;
          block else_;
          place end_l
        end
    | Memcpy { dst; src; elems } -> (
        let elems = int_code (int_of elems) and c = cell () in
        let length () =
          let n = elems () in
          if n < 0 then raise (Aborted "memcpy with negative length");
          n
        in
        (* Copies touching scratch lower to element transfers: one side is a
           DMA stream, the other is internal BRAM.  Each element is one run
           of the loop's step, so a stop repeats only its call. *)
        let elements move =
          act (fun () ->
              c.hi <- length ();
              c.n <- 0;
              Array.unsafe_set ops k_sram (Array.unsafe_get ops k_sram + c.hi));
          flush ();
          let pc = !here in
          push (fun () ->
              if c.n = c.hi then pc + 1
              else if move c.n then begin
                c.n <- c.n + 1;
                pc
              end
              else stopped pc)
        in
        match (Hashtbl.find_opt scratch dst, Hashtbl.find_opt scratch src) with
        | None, None ->
            let dst = m.buffer dst and src = m.buffer src in
            act (fun () -> c.n <- length ());
            call (fun () -> m.copy ~dst ~src ~elems:c.n)
        | Some d, Some sa ->
            act (fun () ->
                let n = length () in
                Array.unsafe_set ops k_sram (Array.unsafe_get ops k_sram + (2 * n));
                for idx = 0 to n - 1 do
                  scratch_copy ~dst d ~src sa idx
                done)
        | Some d, None ->
            let h = m.buffer src in
            elements (fun idx ->
                let value = m.load h ~idx ~dependent:false in
                value != pending
                && begin
                     scratch_set dst d idx value;
                     true
                   end)
        | None, Some sa ->
            let h = m.buffer dst in
            elements (fun idx -> m.store h ~idx (scratch_get src sa idx)))
  and block stmts = List.iter stmt stmts in
  block k.body;
  flush ();
  let last = !here in
  push (fun () -> finished);
  { steps = !code; last; pc = 0 }

let resume t =
  let steps = t.steps in
  let pc = ref t.pc in
  while !pc >= 0 do
    pc := (Array.unsafe_get steps !pc) ()
  done;
  t.pc <- (if !pc = finished then t.last else -2 - !pc);
  !pc = finished

let run ?fuel k m =
  if not (resume (start ?fuel k m)) then
    invalid_arg "Kernel.Interp.run: a machine call answered pending"

let pure_machine ~bufs ?(params = []) () =
  let arrays = Array.of_list (List.map snd bufs) in
  {
    buffer =
      (fun name ->
        match List.find_index (fun (b, _) -> b = name) bufs with
        | Some h -> h
        | None -> invalid_arg ("pure_machine: unknown buffer " ^ name));
    load = (fun b ~idx ~dependent:_ -> arrays.(b).(idx));
    store =
      (fun b ~idx value ->
        arrays.(b).(idx) <- value;
        true);
    copy =
      (fun ~dst ~src ~elems ->
        Array.blit arrays.(src) 0 arrays.(dst) 0 elems;
        true);
    param =
      (fun name ->
        match List.assoc_opt name params with
        | Some value -> value
        | None -> invalid_arg ("pure_machine: unknown param " ^ name));
    ops = counters ();
  }
