type elem = U8 | I32 | I64 | F32 | F64

let elem_bytes = function U8 -> 1 | I32 | F32 -> 4 | I64 | F64 -> 8
let elem_is_float = function F32 | F64 -> true | U8 | I32 | I64 -> false

type buf_decl = { buf_name : string; elem : elem; len : int; writable : bool }

let buf_decl_bytes b = b.len * elem_bytes b.elem

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Imin | Imax
  | Fadd | Fsub | Fmul | Fdiv
  | Flt | Fle | Fgt | Fge | Fmin | Fmax

type unop = Neg | Bnot | Fneg | Fabs | Fsqrt | Fexp | I2f | F2i

type exp =
  | Int of int
  | Flt of float
  | Var of string
  | Param of string
  | Load of string * exp
  | Bin of binop * exp * exp
  | Un of unop * exp

type stmt =
  | Let of string * exp
  | Store of string * exp * exp
  | For of string * exp * exp * stmt list
  | While of exp * stmt list
  | If of exp * stmt list * stmt list
  | Memcpy of { dst : string; src : string; elems : exp }

type t = {
  name : string;
  bufs : buf_decl list;
  scratch : buf_decl list;
  body : stmt list;
}

let find_buf t name = List.find (fun b -> b.buf_name = name) t.bufs

type ty = TI | TF

let binop_ty = function
  | Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Shl | Shr | Imin | Imax
  | Lt | Le | Gt | Ge | Eq | Ne -> (TI, TI)
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> (TF, TF)
  | Flt | Fle | Fgt | Fge -> (TF, TI)

let infer ~local ~param ~elem = function
  | Int _ | Un ((Neg | Bnot | F2i), _) -> TI
  | Flt _ | Un ((Fneg | Fabs | Fsqrt | Fexp | I2f), _) -> TF
  | Var name -> local name
  | Param name -> param name
  | Load (b, _) -> if elem_is_float (elem b) then TF else TI
  | Bin (op, _, _) -> snd (binop_ty op)

let rec contains_load = function
  | Int _ | Flt _ | Var _ | Param _ -> false
  | Load _ -> true
  | Bin (_, a, b) -> contains_load a || contains_load b
  | Un (_, a) -> contains_load a

(* Pretty printing *)

let elem_name = function
  | U8 -> "u8" | I32 -> "i32" | I64 -> "i64" | F32 -> "f32" | F64 -> "f64"


let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Imin -> "min" | Imax -> "max"
  | Fadd -> "+." | Fsub -> "-." | Fmul -> "*." | Fdiv -> "/."
  | Flt -> "<." | Fle -> "<=." | Fgt -> ">." | Fge -> ">=."
  | Fmin -> "fmin" | Fmax -> "fmax"

let unop_name = function
  | Neg -> "-" | Bnot -> "~" | Fneg -> "-." | Fabs -> "fabs" | Fsqrt -> "fsqrt"
  | Fexp -> "fexp" | I2f -> "i2f" | F2i -> "f2i"

let rec exp_to_string = function
  | Int n -> string_of_int n
  | Flt x -> Printf.sprintf "%h" x
  | Var name -> name
  | Param name -> "$" ^ name
  | Load (b, idx) -> Printf.sprintf "%s[%s]" b (exp_to_string idx)
  | Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (exp_to_string a) (binop_name op) (exp_to_string b)
  | Un (op, a) -> Printf.sprintf "%s(%s)" (unop_name op) (exp_to_string a)

let rec stmt_to_string ?(indent = 0) s =
  let pad = String.make indent ' ' in
  let block b = String.concat "\n" (List.map (stmt_to_string ~indent:(indent + 2)) b) in
  match s with
  | Let (name, e) -> Printf.sprintf "%s%s := %s" pad name (exp_to_string e)
  | Store (b, idx, v2) ->
      Printf.sprintf "%s%s[%s] <- %s" pad b (exp_to_string idx) (exp_to_string v2)
  | For (var, lo, hi, body) ->
      Printf.sprintf "%sfor %s = %s .. %s-1 {\n%s\n%s}" pad var (exp_to_string lo)
        (exp_to_string hi) (block body) pad
  | While (c, body) ->
      Printf.sprintf "%swhile %s {\n%s\n%s}" pad (exp_to_string c) (block body) pad
  | If (c, t, e) ->
      Printf.sprintf "%sif %s {\n%s\n%s} else {\n%s\n%s}" pad (exp_to_string c)
        (block t) pad (block e) pad
  | Memcpy { dst; src; elems } ->
      Printf.sprintf "%smemcpy %s <- %s (%s elems)" pad dst src (exp_to_string elems)

let validate t =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let fail fmt = Printf.ksprintf (fun s -> Error (t.name ^ ": " ^ s)) fmt in
  let all_decls = t.bufs @ t.scratch in
  let names = List.map (fun b -> b.buf_name) all_decls in
  let* () =
    if List.length (List.sort_uniq compare names) = List.length names then Ok ()
    else fail "duplicate buffer names"
  in
  let resolve name =
    match List.find_opt (fun b -> b.buf_name = name) all_decls with
    | Some b -> Ok b
    | None -> fail "unknown buffer %s" name
  in
  let is_scratch name = List.exists (fun b -> b.buf_name = name) t.scratch in
  let rec check_exp = function
    | Int _ | Flt _ | Var _ | Param _ -> Ok ()
    | Load (b, idx) ->
        let* _ = resolve b in
        check_exp idx
    | Bin (_, a, b) ->
        let* () = check_exp a in
        check_exp b
    | Un (_, a) -> check_exp a
  in
  let rec check_stmt stmt =
    match stmt with
    | Let (_, e) -> check_exp e
    | Store (b, idx, value) ->
        let* decl = resolve b in
        let* () =
          if decl.writable || is_scratch b then Ok ()
          else
            fail "store to read-only buffer %s in statement `%s`" b
              (stmt_to_string stmt)
        in
        let* () = check_exp idx in
        check_exp value
    | For (_, lo, hi, body) ->
        let* () = check_exp lo in
        let* () = check_exp hi in
        check_stmts body
    | While (c, body) ->
        let* () = check_exp c in
        check_stmts body
    | If (c, a, b) ->
        let* () = check_exp c in
        let* () = check_stmts a in
        check_stmts b
    | Memcpy { dst; src; elems } ->
        let* d = resolve dst in
        let* s = resolve src in
        let* () =
          if d.elem = s.elem then Ok ()
          else
            fail
              "element type mismatch in statement `%s`: buffer %s is %s but \
               buffer %s is %s"
              (stmt_to_string stmt) dst (elem_name d.elem) src
              (elem_name s.elem)
        in
        let* () =
          if d.writable || is_scratch dst then Ok ()
          else
            fail "memcpy to read-only buffer %s in statement `%s`" dst
              (stmt_to_string stmt)
        in
        check_exp elems
  and check_stmts stmts =
    List.fold_left (fun acc s -> let* () = acc in check_stmt s) (Ok ()) stmts
  in
  check_stmts t.body

(* Builders *)

let i n = Int n
let f x = Flt x
let v name = Var name
let p name = Param name
let ld b idx = Load (b, idx)

let bin op a b = Bin (op, a, b)
let ( +: ) = bin Add
let ( -: ) = bin Sub
let ( *: ) = bin Mul
let ( /: ) = bin Div
let ( %: ) = bin Mod
let ( <: ) = bin Lt
let ( <=: ) = bin Le
let ( >: ) = bin Gt
let ( >=: ) = bin Ge
let ( =: ) = bin Eq
let ( <>: ) = bin Ne
let ( &&: ) a b = bin Band (bin Ne a (Int 0)) (bin Ne b (Int 0))
let ( ||: ) a b = bin Bor (bin Ne a (Int 0)) (bin Ne b (Int 0))
let band = bin Band
let bor = bin Bor
let bxor = bin Bxor
let shl = bin Shl
let shr = bin Shr
let imin = bin Imin
let imax = bin Imax

let ( +.: ) = bin Fadd
let ( -.: ) = bin Fsub
let ( *.: ) = bin Fmul
let ( /.: ) = bin Fdiv
let ( <.: ) = bin Flt
let ( <=.: ) = bin Fle
let ( >.: ) = bin Fgt
let ( >=.: ) = bin Fge
let fmin = bin Fmin
let fmax = bin Fmax
let fsqrt e = Un (Fsqrt, e)
let fexp e = Un (Fexp, e)
let fabs_ e = Un (Fabs, e)
let i2f e = Un (I2f, e)
let f2i e = Un (F2i, e)

let let_ name e = Let (name, e)
let store b idx value = Store (b, idx, value)
let for_ var lo hi body = For (var, lo, hi, body)
let while_ c body = While (c, body)
let if_ c a b = If (c, a, b)
let when_ c a = If (c, a, [])
let memcpy ~dst ~src ~elems = Memcpy { dst; src; elems }

let buf ?(writable = true) buf_name elem len = { buf_name; elem; len; writable }

let to_string t =
  Printf.sprintf "kernel %s\n%s" t.name
    (String.concat "\n" (List.map (stmt_to_string ~indent:2) t.body))
