type target = Rv64_target | Purecap_target

exception Codegen_error of string

type program = {
  insns : Insn.t array;
  scratch_bytes : int;
  scratch_offsets : (string * int) list;
  buffer_cregs : (string * int) list;
}

let scratch_creg = 9
let addr_creg = 2
let first_buffer_creg = 10

let fail fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Assembler with label back-patching                                   *)
(* ------------------------------------------------------------------ *)

module Asm = struct
  type t = {
    mutable code : Insn.t array;
    mutable len : int;
    mutable labels : int array;   (* label id -> instruction index, -1 pending *)
    mutable n_labels : int;
    mutable fixups : (int * int) list;  (* (instruction index, label id) *)
  }

  let create () =
    { code = Array.make 256 Insn.Halt; len = 0; labels = Array.make 64 (-1);
      n_labels = 0; fixups = [] }

  let emit a insn =
    if a.len = Array.length a.code then begin
      let bigger = Array.make (2 * a.len) Insn.Halt in
      Array.blit a.code 0 bigger 0 a.len;
      a.code <- bigger
    end;
    a.code.(a.len) <- insn;
    a.len <- a.len + 1

  let new_label a =
    if a.n_labels = Array.length a.labels then begin
      let bigger = Array.make (2 * a.n_labels) (-1) in
      Array.blit a.labels 0 bigger 0 a.n_labels;
      a.labels <- bigger
    end;
    let id = a.n_labels in
    a.n_labels <- id + 1;
    id

  let place a id = a.labels.(id) <- a.len

  (* Branch to a label: emitted with the label id as target, recorded for
     patching. *)
  let branch a mk id =
    a.fixups <- (a.len, id) :: a.fixups;
    emit a (mk id)

  let finalize a =
    List.iter
      (fun (pos, id) ->
        let target = a.labels.(id) in
        if target < 0 then fail "unplaced label %d" id;
        a.code.(pos) <-
          (match a.code.(pos) with
          | Insn.Beq (x, y, _) -> Insn.Beq (x, y, target)
          | Insn.Bne (x, y, _) -> Insn.Bne (x, y, target)
          | Insn.Blt (x, y, _) -> Insn.Blt (x, y, target)
          | Insn.Bge (x, y, _) -> Insn.Bge (x, y, target)
          | Insn.Jal _ -> Insn.Jal target
          | other ->
              fail "fixup on non-branch %s" (Insn.to_string other)))
      a.fixups;
    Array.sub a.code 0 a.len
end

(* ------------------------------------------------------------------ *)
(* Register pools                                                       *)
(* ------------------------------------------------------------------ *)

type pool = { mutable free : int list; what : string }

let make_pool what lo hi = { free = List.init (hi - lo + 1) (fun k -> lo + k); what }

let take pool =
  match pool.free with
  | r :: rest ->
      pool.free <- rest;
      r
  | [] -> fail "out of %s registers (kernel too complex for the fixed ABI)" pool.what

let give pool r = pool.free <- r :: pool.free

(* ------------------------------------------------------------------ *)
(* The compiler                                                         *)
(* ------------------------------------------------------------------ *)

type env = {
  target : target;
  asm : Asm.t;
  layout : Memops.Layout.t;
  kernel : Kernel.Ir.t;
  params : (string * Kernel.Value.t) list;
  scratch_base : int;
  scratch_offsets : (string, int) Hashtbl.t;
  locals : (string, Kernel.Ir.ty * int) Hashtbl.t;
  itemps : pool;
  ftemps : pool;
  ilocals : pool;
  flocals : pool;
  buffer_creg : (string, int) Hashtbl.t;
}

let is_scratch env name = Hashtbl.mem env.scratch_offsets name

let scratch_decl env name =
  List.find (fun (d : Kernel.Ir.buf_decl) -> d.buf_name = name) env.kernel.scratch

let buf_decl env name =
  if is_scratch env name then scratch_decl env name
  else (Memops.Layout.find env.layout name).Memops.Layout.decl

(* Static type of an expression; locals must already be bound. *)
let infer env =
  Kernel.Ir.infer
    ~local:(fun name ->
      match Hashtbl.find_opt env.locals name with
      | Some (ty, _) -> ty
      | None -> fail "unbound local %s" name)
    ~param:(fun name ->
      match List.assoc_opt name env.params with
      | Some (Kernel.Value.VI _) -> Kernel.Ir.TI
      | Some (Kernel.Value.VF _) -> TF
      | None -> fail "unknown param %s" name)
    ~elem:(fun b -> (buf_decl env b).elem)

(* Heap element width/type as seen by memory instructions. *)
let heap_access env name =
  let decl = (Memops.Layout.find env.layout name).Memops.Layout.decl in
  match decl.Kernel.Ir.elem with
  | Kernel.Ir.U8 -> `Int (Insn.B, 1)
  | Kernel.Ir.I32 -> `Int (Insn.W, 4)
  | Kernel.Ir.I64 -> `Int (Insn.D, 8)
  | Kernel.Ir.F32 -> `Float (Insn.FW, 4)
  | Kernel.Ir.F64 -> `Float (Insn.FD, 8)

let scratch_access env name =
  let decl = scratch_decl env name in
  if Kernel.Ir.elem_is_float decl.Kernel.Ir.elem then `Float (Insn.FD, 8)
  else `Int (Insn.D, 8)

(* Multiply an index register by a (power-of-two or general) width into a
   fresh temp; consumes nothing. *)
let scale_index env ~idx ~width =
  let a = env.asm in
  let d = take env.itemps in
  (match width with
  | 1 -> Asm.emit a (Insn.Add (d, 0, idx))
  | 2 | 4 | 8 | 16 ->
      let sh =
        match width with 2 -> 1 | 4 -> 2 | 8 -> 3 | _ -> 4
      in
      Asm.emit a (Insn.Li (1, sh));
      Asm.emit a (Insn.Sll (d, idx, 1))
  | w ->
      Asm.emit a (Insn.Li (1, w));
      Asm.emit a (Insn.Mul (d, idx, 1)));
  d

(* Produce, in x-register form, the byte offset of element [idx_reg] of
   buffer/scratch [name]; returns (offset_reg, access descriptor,
   base source). *)
type base_src =
  | Base_const of int      (* rv64: absolute base address *)
  | Base_creg of int       (* purecap: capability register *)

let address_of env name ~idx_reg =
  let access, width, base =
    if is_scratch env name then begin
      let access = scratch_access env name in
      let arena_off = Hashtbl.find env.scratch_offsets name in
      (* In purecap the arena capability's cursor sits at the arena base, so
         the element offset carries the per-scratch arena offset. *)
      let base =
        match env.target with
        | Rv64_target -> (Base_const (env.scratch_base + arena_off), 0)
        | Purecap_target -> (Base_creg scratch_creg, arena_off)
      in
      (access, 8, base)
    end
    else begin
      let access = heap_access env name in
      let width = match access with `Int (_, w) | `Float (_, w) -> w in
      let base =
        match env.target with
        | Rv64_target ->
            Base_const (Memops.Layout.find env.layout name).Memops.Layout.base
        | Purecap_target -> Base_creg (Hashtbl.find env.buffer_creg name)
      in
      (access, width, (base, 0))
    end
  in
  let off = scale_index env ~idx:idx_reg ~width in
  (off, access, base)

(* Emit the load of [name].[idx_reg]; frees idx_reg; returns a fresh
   destination register of the element's class. *)
let emit_load env name ~idx_reg =
  let a = env.asm in
  let off, access, (base, base_extra) = address_of env name ~idx_reg in
  give env.itemps idx_reg;
  (* The base lives in the load's immediate: a real compiler materializes
     each buffer base once in a register; folding it here keeps the dynamic
     instruction count comparable to compiled code without modelling
     register-resident globals. *)
  let result =
    match base with
    | Base_const addr_base -> (
        match access with
        | `Int (w, _) ->
            let d = take env.itemps in
            Asm.emit a (Insn.Lx (w, d, off, addr_base + base_extra));
            `I d
        | `Float (w, _) ->
            let d = take env.ftemps in
            Asm.emit a (Insn.Flx (w, d, off, addr_base + base_extra));
            `F d)
    | Base_creg c -> (
        Asm.emit a (Insn.Cincoffset (addr_creg, c, off));
        match access with
        | `Int (w, _) ->
            let d = take env.itemps in
            Asm.emit a (Insn.Clx (w, d, addr_creg, base_extra));
            `I d
        | `Float (w, _) ->
            let d = take env.ftemps in
            Asm.emit a (Insn.Cflx (w, d, addr_creg, base_extra));
            `F d)
  in
  give env.itemps off;
  result

(* Emit the store of an evaluated value register; frees idx_reg and the
   value register if it is a temp (caller passes ownership). *)
let emit_store env name ~idx_reg ~value =
  let a = env.asm in
  let off, access, (base, base_extra) = address_of env name ~idx_reg in
  give env.itemps idx_reg;
  (match (base, access, value) with
  | Base_const addr_base, `Int (w, _), `I s ->
      Asm.emit a (Insn.Sx (w, s, off, addr_base + base_extra))
  | Base_const addr_base, `Float (w, _), `F s ->
      Asm.emit a (Insn.Fsx (w, s, off, addr_base + base_extra))
  | Base_creg c, `Int (w, _), `I s ->
      Asm.emit a (Insn.Cincoffset (addr_creg, c, off));
      Asm.emit a (Insn.Csx (w, s, addr_creg, base_extra))
  | Base_creg c, `Float (w, _), `F s ->
      Asm.emit a (Insn.Cincoffset (addr_creg, c, off));
      Asm.emit a (Insn.Cfsx (w, s, addr_creg, base_extra))
  | _, `Int _, `F _ | _, `Float _, `I _ ->
      fail "type mismatch storing to %s" name);
  give env.itemps off

let free_value env = function
  | `I r -> give env.itemps r
  | `F r -> give env.ftemps r

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)
(* ------------------------------------------------------------------ *)

let rec eval env (e : Kernel.Ir.exp) =
  let a = env.asm in
  match e with
  | Int n ->
      let d = take env.itemps in
      Asm.emit a (Insn.Li (d, n));
      `I d
  | Flt x ->
      let d = take env.ftemps in
      Asm.emit a (Insn.Fli (d, x));
      `F d
  | Param name -> (
      match List.assoc_opt name env.params with
      | Some (Kernel.Value.VI n) ->
          let d = take env.itemps in
          Asm.emit a (Insn.Li (d, n));
          `I d
      | Some (Kernel.Value.VF x) ->
          let d = take env.ftemps in
          Asm.emit a (Insn.Fli (d, x));
          `F d
      | None -> fail "unknown param %s" name)
  | Var name -> (
      (* Copy into a temp so the caller can consume it uniformly. *)
      match Hashtbl.find_opt env.locals name with
      | Some (TI, r) ->
          let d = take env.itemps in
          Asm.emit a (Insn.Add (d, 0, r));
          `I d
      | Some (TF, r) ->
          let d = take env.ftemps in
          Asm.emit a (Insn.Fmv (d, r));
          `F d
      | None -> fail "unbound local %s" name)
  | Load (name, idx_exp) -> (
      match eval env idx_exp with
      | `I idx_reg -> emit_load env name ~idx_reg
      | `F _ -> fail "float index into %s" name)
  | Bin (op, lhs, rhs) -> eval_binop env op lhs rhs
  | Un (op, arg) -> eval_unop env op arg

and eval_int env e =
  match eval env e with
  | `I r -> r
  | `F _ -> fail "expected an integer expression"

and eval_float env e =
  match eval env e with
  | `F r -> r
  | `I _ -> fail "expected a float expression"

and eval_binop env (op : Kernel.Ir.binop) lhs rhs =
  let a = env.asm in
  let int3 mk =
    let ra = eval_int env lhs in
    let rb = eval_int env rhs in
    let d = take env.itemps in
    mk d ra rb;
    give env.itemps ra;
    give env.itemps rb;
    `I d
  in
  let flt3 mk =
    let ra = eval_float env lhs in
    let rb = eval_float env rhs in
    let d = take env.ftemps in
    Asm.emit a (mk d ra rb);
    give env.ftemps ra;
    give env.ftemps rb;
    `F d
  in
  let fcmp mk =
    let ra = eval_float env lhs in
    let rb = eval_float env rhs in
    let d = take env.itemps in
    Asm.emit a (mk d ra rb);
    give env.ftemps ra;
    give env.ftemps rb;
    `I d
  in
  let not_into d =
    (* d := 1 - d, for boolean results *)
    Asm.emit a (Insn.Li (1, 1));
    Asm.emit a (Insn.Sub (d, 1, d))
  in
  match op with
  | Add -> int3 (fun d x y -> Asm.emit a (Insn.Add (d, x, y)))
  | Sub -> int3 (fun d x y -> Asm.emit a (Insn.Sub (d, x, y)))
  | Mul -> int3 (fun d x y -> Asm.emit a (Insn.Mul (d, x, y)))
  | Div -> int3 (fun d x y -> Asm.emit a (Insn.Div (d, x, y)))
  | Mod -> int3 (fun d x y -> Asm.emit a (Insn.Rem (d, x, y)))
  | Band -> int3 (fun d x y -> Asm.emit a (Insn.And (d, x, y)))
  | Bor -> int3 (fun d x y -> Asm.emit a (Insn.Or (d, x, y)))
  | Bxor -> int3 (fun d x y -> Asm.emit a (Insn.Xor (d, x, y)))
  | Shl -> int3 (fun d x y -> Asm.emit a (Insn.Sll (d, x, y)))
  | Shr -> int3 (fun d x y -> Asm.emit a (Insn.Sra (d, x, y)))
  | Lt -> int3 (fun d x y -> Asm.emit a (Insn.Slt (d, x, y)))
  | Gt -> int3 (fun d x y -> Asm.emit a (Insn.Slt (d, y, x)))
  | Le ->
      int3 (fun d x y ->
          Asm.emit a (Insn.Slt (d, y, x));
          not_into d)
  | Ge ->
      int3 (fun d x y ->
          Asm.emit a (Insn.Slt (d, x, y));
          not_into d)
  | Eq ->
      int3 (fun d x y ->
          Asm.emit a (Insn.Sub (1, x, y));
          Asm.emit a (Insn.Sltu (d, 0, 1));
          not_into d)
  | Ne ->
      int3 (fun d x y ->
          Asm.emit a (Insn.Sub (1, x, y));
          Asm.emit a (Insn.Sltu (d, 0, 1)))
  | Imin ->
      int3 (fun d x y ->
          let skip = Asm.new_label env.asm in
          Asm.emit a (Insn.Slt (1, x, y));
          Asm.emit a (Insn.Add (d, 0, x));
          Asm.branch env.asm (fun l -> Insn.Bne (1, 0, l)) skip;
          Asm.emit a (Insn.Add (d, 0, y));
          Asm.place env.asm skip)
  | Imax ->
      int3 (fun d x y ->
          let skip = Asm.new_label env.asm in
          Asm.emit a (Insn.Slt (1, y, x));
          Asm.emit a (Insn.Add (d, 0, x));
          Asm.branch env.asm (fun l -> Insn.Bne (1, 0, l)) skip;
          Asm.emit a (Insn.Add (d, 0, y));
          Asm.place env.asm skip)
  | Fadd -> flt3 (fun d x y -> Insn.Fadd (d, x, y))
  | Fsub -> flt3 (fun d x y -> Insn.Fsub (d, x, y))
  | Fmul -> flt3 (fun d x y -> Insn.Fmul (d, x, y))
  | Fdiv -> flt3 (fun d x y -> Insn.Fdiv (d, x, y))
  | Fmin -> flt3 (fun d x y -> Insn.Fmin (d, x, y))
  | Fmax -> flt3 (fun d x y -> Insn.Fmax (d, x, y))
  | Flt -> fcmp (fun d x y -> Insn.Flt_ (d, x, y))
  | Fle -> fcmp (fun d x y -> Insn.Fle (d, x, y))
  | Fgt -> fcmp (fun d x y -> Insn.Flt_ (d, y, x))
  | Fge -> fcmp (fun d x y -> Insn.Fle (d, y, x))

and eval_unop env (op : Kernel.Ir.unop) arg =
  let a = env.asm in
  match op with
  | Neg ->
      let r = eval_int env arg in
      let d = take env.itemps in
      Asm.emit a (Insn.Sub (d, 0, r));
      give env.itemps r;
      `I d
  | Bnot ->
      let r = eval_int env arg in
      let d = take env.itemps in
      Asm.emit a (Insn.Li (1, -1));
      Asm.emit a (Insn.Xor (d, r, 1));
      give env.itemps r;
      `I d
  | I2f ->
      let r = eval_int env arg in
      let d = take env.ftemps in
      Asm.emit a (Insn.Fcvt_d_l (d, r));
      give env.itemps r;
      `F d
  | F2i ->
      let r = eval_float env arg in
      let d = take env.itemps in
      Asm.emit a (Insn.Fcvt_l_d (d, r));
      give env.ftemps r;
      `I d
  | Fneg | Fabs | Fsqrt | Fexp ->
      let r = eval_float env arg in
      let d = take env.ftemps in
      Asm.emit a
        (match op with
        | Fneg -> Insn.Fneg (d, r)
        | Fabs -> Insn.Fabs (d, r)
        | Fsqrt -> Insn.Fsqrt (d, r)
        | _ -> Insn.Fexp (d, r));
      give env.ftemps r;
      `F d

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

let bind_local env name ty =
  match Hashtbl.find_opt env.locals name with
  | Some (ty', r) ->
      if ty <> ty' then fail "local %s changes type" name;
      (ty, r)
  | None ->
      let r = match ty with TI -> take env.ilocals | TF -> take env.flocals in
      Hashtbl.add env.locals name (ty, r);
      (ty, r)

let assign_local env name value =
  let a = env.asm in
  match value with
  | `I r ->
      let _, dst = bind_local env name TI in
      Asm.emit a (Insn.Add (dst, 0, r));
      give env.itemps r
  | `F r ->
      let _, dst = bind_local env name TF in
      Asm.emit a (Insn.Fmv (dst, r));
      give env.ftemps r

let rec exec env (s : Kernel.Ir.stmt) =
  let a = env.asm in
  match s with
  | Let (name, e) ->
      (* Bind the type before evaluation so self-referencing updates
         (x := x + 1) see the local. *)
      ignore (bind_local env name (infer env e));
      assign_local env name (eval env e)
  | Store (name, idx_exp, value_exp) ->
      let idx_reg = eval_int env idx_exp in
      let value = eval env value_exp in
      emit_store env name ~idx_reg ~value;
      free_value env value
  | For (var, lo, hi, body) ->
      (* Like the reference interpreter, a body that assigns to its own loop
         variable must not change the trip count; such loops are driven by a
         hidden counter and the visible variable refreshed per iteration.
         Loops that never write their variable (all of MachSuite) are driven
         by the variable's register directly. *)
      let rec stmt_assigns var (s : Kernel.Ir.stmt) =
        match s with
        | Let (name, _) -> name = var
        | Store _ | Memcpy _ -> false
        | For (v2, _, _, b) ->
            (* An inner loop reusing the same variable name writes it. *)
            v2 = var || List.exists (stmt_assigns var) b
        | While (_, b) -> List.exists (stmt_assigns var) b
        | If (_, b1, b2) ->
            List.exists (stmt_assigns var) b1 || List.exists (stmt_assigns var) b2
      in
      let body_writes_var = List.exists (stmt_assigns var) body in
      let _, var_reg = bind_local env var TI in
      let counter = if body_writes_var then take env.ilocals else var_reg in
      let lo_val = eval_int env lo in
      Asm.emit a (Insn.Add (counter, 0, lo_val));
      give env.itemps lo_val;
      let bound = take env.ilocals in
      let hi_val = eval_int env hi in
      Asm.emit a (Insn.Add (bound, 0, hi_val));
      give env.itemps hi_val;
      let head = Asm.new_label a and exit_l = Asm.new_label a in
      Asm.place a head;
      Asm.branch a (fun l -> Insn.Bge (counter, bound, l)) exit_l;
      if body_writes_var then Asm.emit a (Insn.Add (var_reg, 0, counter));
      List.iter (exec env) body;
      Asm.emit a (Insn.Addi (counter, counter, 1));
      Asm.branch a (fun l -> Insn.Jal l) head;
      Asm.place a exit_l;
      if body_writes_var then Asm.emit a (Insn.Add (var_reg, 0, counter));
      give env.ilocals bound;
      if body_writes_var then give env.ilocals counter
  | While (cond, body) ->
      let head = Asm.new_label a and exit_l = Asm.new_label a in
      Asm.place a head;
      let c = eval_int env cond in
      Asm.branch a (fun l -> Insn.Beq (c, 0, l)) exit_l;
      give env.itemps c;
      List.iter (exec env) body;
      Asm.branch a (fun l -> Insn.Jal l) head;
      Asm.place a exit_l
  | If (cond, then_, else_) ->
      let else_l = Asm.new_label a and end_l = Asm.new_label a in
      let c = eval_int env cond in
      Asm.branch a (fun l -> Insn.Beq (c, 0, l)) else_l;
      give env.itemps c;
      List.iter (exec env) then_;
      Asm.branch a (fun l -> Insn.Jal l) end_l;
      Asm.place a else_l;
      List.iter (exec env) else_;
      Asm.place a end_l
  | Memcpy { dst; src; elems } ->
      (* Lower to an element-copy loop (what -O0 would do; widths and
         narrowing come out identical to the reference semantics). *)
      let n = take env.ilocals in
      let n_val = eval_int env elems in
      Asm.emit a (Insn.Add (n, 0, n_val));
      give env.itemps n_val;
      let k = take env.ilocals in
      Asm.emit a (Insn.Li (k, 0));
      let head = Asm.new_label a and exit_l = Asm.new_label a in
      Asm.place a head;
      Asm.branch a (fun l -> Insn.Bge (k, n, l)) exit_l;
      let idx1 = take env.itemps in
      Asm.emit a (Insn.Add (idx1, 0, k));
      let value = emit_load env src ~idx_reg:idx1 in
      let idx2 = take env.itemps in
      Asm.emit a (Insn.Add (idx2, 0, k));
      emit_store env dst ~idx_reg:idx2 ~value;
      free_value env value;
      Asm.emit a (Insn.Addi (k, k, 1));
      Asm.branch a (fun l -> Insn.Jal l) head;
      Asm.place a exit_l;
      give env.ilocals k;
      give env.ilocals n

let compile ~target ~layout ~scratch_base ~params (kernel : Kernel.Ir.t) =
  (match Kernel.Ir.validate kernel with
  | Ok () -> ()
  | Error msg -> fail "invalid kernel: %s" msg);
  let scratch_offsets = Hashtbl.create 8 in
  let offsets_list, scratch_bytes =
    List.fold_left
      (fun (acc, off) (d : Kernel.Ir.buf_decl) ->
        Hashtbl.add scratch_offsets d.buf_name off;
        ((d.buf_name, off) :: acc, off + (d.len * 8)))
      ([], 0) kernel.scratch
  in
  let buffer_creg = Hashtbl.create 8 in
  let buffer_cregs =
    List.mapi
      (fun idx (d : Kernel.Ir.buf_decl) ->
        let c = first_buffer_creg + idx in
        if c > 31 then fail "too many buffers for capability registers";
        Hashtbl.add buffer_creg d.buf_name c;
        (d.buf_name, c))
      kernel.bufs
  in
  let env =
    {
      target; asm = Asm.create (); layout; kernel; params; scratch_base;
      scratch_offsets;
      locals = Hashtbl.create 32;
      itemps = make_pool "integer temporary" 2 8;
      ftemps = make_pool "FP temporary" 1 8;
      ilocals = make_pool "integer local" 9 31;
      flocals = make_pool "FP local" 9 31;
      buffer_creg;
    }
  in
  List.iter (exec env) kernel.body;
  Asm.emit env.asm Insn.Halt;
  {
    insns = Asm.finalize env.asm;
    scratch_bytes;
    scratch_offsets = List.rev offsets_list;
    buffer_cregs;
  }

let disassemble p =
  Array.to_list p.insns
  |> List.mapi (fun idx insn -> Printf.sprintf "%4d: %s" idx (Insn.to_string insn))
  |> String.concat "\n"
