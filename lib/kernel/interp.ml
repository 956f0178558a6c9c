type cost = Alu | Imul | Idiv | Fadd | Fmul | Fdiv | Fspec | Branch | Sram

exception Aborted of string
exception Fuel_exhausted

type machine = {
  buffer : string -> int;
  load : int -> idx:int -> dependent:bool -> Value.t;
  store : int -> idx:int -> Value.t -> bool;
  copy : dst:int -> src:int -> elems:int -> bool;
  tick : cost -> int -> unit;
  param : string -> Value.t;
}

(* Physically unique, like [unbound] below: no kernel value is ever
   mistaken for it. *)
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

let bool_val b = Value.VI (if b then 1 else 0)

(* Both operator tables return the operation as a closure, so a compiled
   node picks its operation once instead of matching on every evaluation. *)
let eval_binop : Ir.binop -> Value.t -> Value.t -> Value.t =
  let open Value in
  function
  | Add -> fun a b -> VI (as_int a + as_int b)
  | Sub -> fun a b -> VI (as_int a - as_int b)
  | Mul -> fun a b -> VI (as_int a * as_int b)
  | Div ->
      fun a b ->
        let d = as_int b in
        if d = 0 then raise (Aborted "integer division by zero") else VI (as_int a / d)
  | Mod ->
      fun a b ->
        let d = as_int b in
        if d = 0 then raise (Aborted "integer modulo by zero") else VI (as_int a mod d)
  | Band -> fun a b -> VI (as_int a land as_int b)
  | Bor -> fun a b -> VI (as_int a lor as_int b)
  | Bxor -> fun a b -> VI (as_int a lxor as_int b)
  | Shl -> fun a b -> VI (as_int a lsl as_int b)
  | Shr -> fun a b -> VI (as_int a asr as_int b)
  | Lt -> fun a b -> bool_val (as_int a < as_int b)
  | Le -> fun a b -> bool_val (as_int a <= as_int b)
  | Gt -> fun a b -> bool_val (as_int a > as_int b)
  | Ge -> fun a b -> bool_val (as_int a >= as_int b)
  | Eq -> fun a b -> bool_val (as_int a = as_int b)
  | Ne -> fun a b -> bool_val (as_int a <> as_int b)
  | Imin -> fun a b -> VI (Int.min (as_int a) (as_int b))
  | Imax -> fun a b -> VI (Int.max (as_int a) (as_int b))
  | Fadd -> fun a b -> VF (as_float a +. as_float b)
  | Fsub -> fun a b -> VF (as_float a -. as_float b)
  | Fmul -> fun a b -> VF (as_float a *. as_float b)
  | Fdiv -> fun a b -> VF (as_float a /. as_float b)
  | Flt -> fun a b -> bool_val (as_float a < as_float b)
  | Fle -> fun a b -> bool_val (as_float a <= as_float b)
  | Fgt -> fun a b -> bool_val (as_float a > as_float b)
  | Fge -> fun a b -> bool_val (as_float a >= as_float b)
  | Fmin -> fun a b -> VF (Float.min (as_float a) (as_float b))
  | Fmax -> fun a b -> VF (Float.max (as_float a) (as_float b))

let eval_unop : Ir.unop -> Value.t -> Value.t =
  let open Value in
  function
  | Neg -> fun a -> VI (-as_int a)
  | Bnot -> fun a -> VI (lnot (as_int a))
  | Fneg -> fun a -> VF (-.as_float a)
  | Fabs -> fun a -> VF (Float.abs (as_float a))
  | Fsqrt -> fun a -> VF (sqrt (as_float a))
  | Fexp -> fun a -> VF (exp (as_float a))
  | I2f -> fun a -> VF (float_of_int (as_int a))
  | F2i -> fun a -> VI (int_of_float (as_float a))

(* The value of a local that has not been assigned yet: physically unique,
   so no kernel value is ever mistaken for it. *)
let unbound : Value.t = Value.VI (Sys.opaque_identity 0)

let scratch_get name a idx =
  if idx < 0 || idx >= Array.length a then
    raise (Aborted (Printf.sprintf "scratch %s index %d out of bounds" name idx))
  else Array.unsafe_get a idx

let scratch_set name a idx value =
  if idx < 0 || idx >= Array.length a then
    raise (Aborted (Printf.sprintf "scratch %s index %d out of bounds" name idx))
  else Array.unsafe_set a idx value

(* A compiled kernel: a flat array of steps over one frame of locals.  A
   step runs straight-line code and returns the index of the next step,
   [finished], or [stopped pc] when the machine call of step [pc] answered
   pending; resuming runs step [pc] again. *)
type t = {
  steps : (Value.t array -> int) array;
  frame : Value.t array;
  last : int;  (* the step that answers [finished] *)
  mutable pc : int;
}

let finished = -1
let stopped pc = -2 - pc

(* What a site's steps hand each other: a machine call's operands and
   answer, a loop's counter and bound. *)
type cell = { mutable value : Value.t; mutable n : int; mutable hi : int }

(* Everything that depends only on the kernel is decided here, once; every
   machine callback happens at run time, in tree order. *)
let start ?(fuel = 100_000_000) (k : Ir.t) m =
  let slots : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let slot name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slots in
        Hashtbl.add slots name s;
        s
  in
  let scratch : (string, Value.t array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Ir.buf_decl) ->
      let zero = if Ir.elem_is_float b.elem then Value.VF 0.0 else Value.VI 0 in
      Hashtbl.add scratch b.buf_name (Array.make b.len zero))
    k.scratch;
  let tick = m.tick and fuel_left = ref fuel in
  let code = ref [||] and here = ref 0 in
  let emit step =
    if !here = Array.length !code then begin
      let grown = Array.make (2 * Int.max 32 !here) step in
      Array.blit !code 0 grown 0 !here;
      code := grown
    end;
    !code.(!here) <- step;
    incr here
  in
  (* A jump target is placed once the step it names is emitted. *)
  let label () = ref (-1) in
  let place l = l := !here in
  let cell () = { value = unbound; n = 0; hi = 0 } in
  let step act =
    let pc = !here in
    emit (fun env ->
        act env;
        pc + 1)
  in
  (* A machine call: a step that evaluates its operands into the site's
     cell, then the call's own step, which a stop repeats. *)
  let call operands attempt =
    step operands;
    let pc = !here in
    emit (fun _ -> if attempt () then pc + 1 else stopped pc)
  in
  let dma b = not (Hashtbl.mem scratch b) in
  let rec calls : Ir.exp -> bool = function
    | Int _ | Flt _ | Var _ | Param _ -> false
    | Load (b, idx) -> dma b || calls idx
    | Bin (_, x, y) -> calls x || calls y
    | Un (_, x) -> calls x
  in
  (* [exp e] emits the steps of [e]'s machine calls and returns a reader of
     the rest, evaluated after them. *)
  let rec exp (e : Ir.exp) : Value.t array -> Value.t =
    match e with
    | Int n ->
        let value = Value.VI n in
        fun _ -> value
    | Flt x ->
        let value = Value.VF x in
        fun _ -> value
    | Var name ->
        let s = slot name in
        fun env ->
          let value = env.(s) in
          if value == unbound then raise (Value.Type_error ("unbound local " ^ name))
          else value
    | Param name -> fun _ -> m.param name
    | Load (b, idx_exp) -> (
        let idx_of = exp idx_exp in
        match Hashtbl.find_opt scratch b with
        | Some a ->
            fun env ->
              let idx = Value.as_int (idx_of env) in
              tick Sram 1;
              scratch_get b a idx
        | None ->
            let h = m.buffer b and dependent = Ir.contains_load idx_exp and c = cell () in
            call
              (fun env -> c.n <- Value.as_int (idx_of env))
              (fun () ->
                c.value <- m.load h ~idx:c.n ~dependent;
                c.value != pending);
            fun _ -> c.value)
    | Bin (op, x, y) ->
        let f = eval_binop op and cost = cost_of_binop op in
        let x, y = pair x y in
        fun env ->
          let a = x env in
          let b = y env in
          tick cost 1;
          f a b
    | Un (op, x) ->
        let f = eval_unop op and cost = cost_of_unop op and x = exp x in
        fun env ->
          let a = x env in
          tick cost 1;
          f a
  (* Readers of [x] then [y].  When [y] calls the machine, [x] is held in a
     step of its own before [y]'s steps, unless it is a constant or a
     call's answer, which no later step changes. *)
  and pair x_exp y_exp =
    let x = exp x_exp in
    let stable = match x_exp with Int _ | Flt _ -> true | Load (b, _) -> dma b | _ -> false in
    if stable || not (calls y_exp) then (x, exp y_exp)
    else begin
      let c = cell () in
      step (fun env -> c.value <- x env);
      (fun _ -> c.value), exp y_exp
    end
  in
  (* A branch's tick, then its condition: true goes on to the next step,
     false to [no].  Returns the step a loop's back edge re-enters at. *)
  let branch ~fueled cond no =
    let ticked = calls cond and top = !here in
    if ticked then step (fun _ -> tick Branch 1);
    let cond = exp cond in
    let pc = !here in
    emit (fun env ->
        if not ticked then tick Branch 1;
        if Value.truthy (cond env) then begin
          if fueled then begin
            decr fuel_left;
            if !fuel_left <= 0 then raise Fuel_exhausted
          end;
          pc + 1
        end
        else !no);
    top
  in
  let rec stmt (s : Ir.stmt) =
    match s with
    | Let (name, e) ->
        let e = exp e in
        let s = slot name and pc = !here in
        emit (fun env ->
            env.(s) <- e env;
            pc + 1)
    | Store (b, idx_exp, value_exp) -> (
        let idx_of, value_of = pair idx_exp value_exp in
        match Hashtbl.find_opt scratch b with
        | Some a ->
            step (fun env ->
                let idx = Value.as_int (idx_of env) in
                let value = value_of env in
                tick Sram 1;
                scratch_set b a idx value)
        | None ->
            let h = m.buffer b and c = cell () in
            call
              (fun env ->
                c.n <- Value.as_int (idx_of env);
                c.value <- value_of env)
              (fun () -> m.store h ~idx:c.n c.value))
    | For (var, lo_exp, hi_exp, body) ->
        (* C semantics: the variable is assigned [lo] even for a zero-trip
           loop and holds [max lo hi] afterwards; writes to it from the body
           do not affect the trip count, which the loop's cell keeps. *)
        let lo_of, hi_of = pair lo_exp hi_exp in
        let s = slot var and c = cell () and exit = label () and head = !here in
        let enter env j =
          env.(s) <- Value.VI j;
          if j < c.hi then begin
            c.n <- j;
            tick Branch 1;
            head + 1
          end
          else !exit
        in
        emit (fun env ->
            let lo = Value.as_int (lo_of env) in
            c.hi <- Value.as_int (hi_of env);
            enter env lo);
        block body;
        emit (fun env -> enter env (c.n + 1));
        place exit
    | While (cond, body) ->
        let exit = label () in
        let top = branch ~fueled:true cond exit in
        block body;
        emit (fun _ -> top);
        place exit
    | If (cond, then_, else_) ->
        let else_l = label () in
        ignore (branch ~fueled:false cond else_l : int);
        block then_;
        if else_ = [] then place else_l
        else begin
          let end_l = label () in
          emit (fun _ -> !end_l);
          place else_l;
          block else_;
          place end_l
        end
    | Memcpy { dst; src; elems } -> (
        let elems = exp elems and c = cell () in
        let length env =
          let n = Value.as_int (elems env) in
          if n < 0 then raise (Aborted "memcpy with negative length");
          n
        in
        (* Copies touching scratch lower to element transfers: one side is a
           DMA stream, the other is internal BRAM.  Each element is one run
           of the loop's step, so a stop repeats only its call. *)
        let elements ticks move =
          step (fun env ->
              c.hi <- length env;
              c.n <- 0;
              tick Sram (ticks * c.hi));
          let pc = !here in
          emit (fun _ ->
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
            call (fun env -> c.n <- length env) (fun () -> m.copy ~dst ~src ~elems:c.n)
        | Some d, Some sa ->
            elements 2 (fun idx ->
                scratch_set dst d idx (scratch_get src sa idx);
                true)
        | Some d, None ->
            let h = m.buffer src in
            elements 1 (fun idx ->
                let value = m.load h ~idx ~dependent:false in
                value != pending
                && begin
                     scratch_set dst d idx value;
                     true
                   end)
        | None, Some sa ->
            let h = m.buffer dst in
            elements 1 (fun idx -> m.store h ~idx (scratch_get src sa idx)))
  and block stmts = List.iter stmt stmts in
  block k.body;
  let last = !here in
  emit (fun _ -> finished);
  { steps = !code;
    frame = Array.make (Hashtbl.length slots) unbound;
    last;
    pc = 0 }

let resume t =
  let steps = t.steps and frame = t.frame in
  let pc = ref t.pc in
  while !pc >= 0 do
    pc := (Array.unsafe_get steps !pc) frame
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
    tick = (fun _ _ -> ());
    param =
      (fun name ->
        match List.assoc_opt name params with
        | Some value -> value
        | None -> invalid_arg ("pure_machine: unknown param " ^ name));
  }
