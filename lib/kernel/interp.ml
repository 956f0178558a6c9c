type cost = Alu | Imul | Idiv | Fadd | Fmul | Fdiv | Fspec | Branch | Sram

exception Aborted of string
exception Fuel_exhausted

type machine = {
  load : string -> idx:int -> dependent:bool -> Value.t;
  store : string -> idx:int -> Value.t -> unit;
  copy : dst:string -> src:string -> elems:int -> unit;
  tick : cost -> int -> unit;
  param : string -> Value.t;
}

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

let zero_of elem : Value.t =
  if Ir.elem_is_float elem then Value.VF 0.0 else Value.VI 0

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

(* [run] compiles the kernel to closures over one array of local slots, then
   runs them.  Everything that depends only on the kernel — slot numbers,
   scratch arrays, dependent flags, cost classes, constants — is decided
   here, once; every machine callback happens at run time, in tree order. *)
let run ?(fuel = 100_000_000) (k : Ir.t) m =
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
      Hashtbl.add scratch b.buf_name (Array.make b.len (zero_of b.elem)))
    k.scratch;
  let tick = m.tick in
  let fuel_left = ref fuel in
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
            let dependent = Ir.contains_load idx_exp in
            fun env -> m.load b ~idx:(Value.as_int (idx_of env)) ~dependent)
    | Bin (op, x, y) ->
        let f = eval_binop op and cost = cost_of_binop op in
        let x = exp x and y = exp y in
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
  in
  let rec stmt (s : Ir.stmt) : Value.t array -> unit =
    match s with
    | Let (name, e) ->
        let s = slot name and e = exp e in
        fun env -> env.(s) <- e env
    | Store (b, idx_exp, value_exp) -> (
        let idx_of = exp idx_exp and value_of = exp value_exp in
        match Hashtbl.find_opt scratch b with
        | Some a ->
            fun env ->
              let idx = Value.as_int (idx_of env) in
              let value = value_of env in
              tick Sram 1;
              scratch_set b a idx value
        | None ->
            fun env ->
              let idx = Value.as_int (idx_of env) in
              m.store b ~idx (value_of env))
    | For (var, lo_exp, hi_exp, body) ->
        let s = slot var and lo_of = exp lo_exp and hi_of = exp hi_exp in
        let body = block body in
        fun env ->
          let lo = Value.as_int (lo_of env) in
          let hi = Value.as_int (hi_of env) in
          (* C semantics: the variable is assigned [lo] even for a zero-trip
             loop and holds [hi] afterwards; writes to it from the body do
             not affect the trip count. *)
          env.(s) <- Value.VI lo;
          for j = lo to hi - 1 do
            env.(s) <- Value.VI j;
            tick Branch 1;
            body env
          done;
          env.(s) <- Value.VI (Int.max lo hi)
    | While (cond, body) ->
        let cond = exp cond and body = block body in
        fun env ->
          tick Branch 1;
          while Value.truthy (cond env) do
            decr fuel_left;
            if !fuel_left <= 0 then raise Fuel_exhausted;
            body env;
            tick Branch 1
          done
    | If (cond, then_, else_) ->
        let cond = exp cond and then_ = block then_ and else_ = block else_ in
        fun env ->
          tick Branch 1;
          if Value.truthy (cond env) then then_ env else else_ env
    | Memcpy { dst; src; elems } -> (
        let elems = exp elems in
        let length env =
          let n = Value.as_int (elems env) in
          if n < 0 then raise (Aborted "memcpy with negative length");
          n
        in
        (* Copies touching scratch lower to element transfers: one side is a
           DMA stream, the other is internal BRAM. *)
        match (Hashtbl.find_opt scratch dst, Hashtbl.find_opt scratch src) with
        | None, None -> fun env -> m.copy ~dst ~src ~elems:(length env)
        | Some d, Some sa ->
            fun env ->
              let n = length env in
              tick Sram (2 * n);
              for idx = 0 to n - 1 do
                scratch_set dst d idx (scratch_get src sa idx)
              done
        | Some d, None ->
            fun env ->
              let n = length env in
              tick Sram n;
              for idx = 0 to n - 1 do
                scratch_set dst d idx (m.load src ~idx ~dependent:false)
              done
        | None, Some sa ->
            fun env ->
              let n = length env in
              tick Sram n;
              for idx = 0 to n - 1 do
                m.store dst ~idx (scratch_get src sa idx)
              done)
  and block stmts =
    match Array.of_list (List.map stmt stmts) with
    | [| s |] -> s
    | body ->
        fun env ->
          for j = 0 to Array.length body - 1 do
            (Array.unsafe_get body j) env
          done
  in
  let body = block k.body in
  body (Array.make (Hashtbl.length slots) unbound)

let pure_machine ~bufs ?(params = []) () =
  let arr name =
    match List.assoc name bufs with
    | a -> a
    | exception Not_found -> invalid_arg ("pure_machine: unknown buffer " ^ name)
  in
  {
    load = (fun b ~idx ~dependent:_ -> (arr b).(idx));
    store = (fun b ~idx value -> (arr b).(idx) <- value);
    copy =
      (fun ~dst ~src ~elems ->
        Array.blit (arr src) 0 (arr dst) 0 elems);
    tick = (fun _ _ -> ());
    param =
      (fun name ->
        match List.assoc_opt name params with
        | Some value -> value
        | None -> invalid_arg ("pure_machine: unknown param " ^ name));
  }
