(** The kernel intermediate representation.

    A kernel is the high-level source of a MachSuite benchmark: typed data
    buffers plus an imperative body of loops, loads, stores and arithmetic.
    The same IR is executed three ways:
    - by {!Interp} over plain arrays (reference semantics, golden outputs);
    - by the CPU cost model (lib/cpu), producing cycle counts;
    - by the accelerator model (lib/accel), producing the DMA access stream
      that flows through the protection hardware — mirroring how Vitis HLS
      turns the same C source into an accelerator.

    Booleans are integers (0 = false); floats are IEEE doubles regardless of
    the buffer element type (storage narrows to [F32] on store). *)

type elem = U8 | I32 | I64 | F32 | F64

val elem_bytes : elem -> int
val elem_is_float : elem -> bool

type buf_decl = {
  buf_name : string;
  elem : elem;
  len : int;          (** length in elements *)
  writable : bool;    (** false = the driver grants a read-only capability *)
}

val buf_decl_bytes : buf_decl -> int

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
  | Var of string             (** scalar local *)
  | Param of string           (** runtime parameter supplied at launch *)
  | Load of string * exp      (** buffer element read *)
  | Bin of binop * exp * exp
  | Un of unop * exp

type stmt =
  | Let of string * exp                       (** bind or reassign a local *)
  | Store of string * exp * exp               (** buffer, index, value *)
  | For of string * exp * exp * stmt list
      (** [for v = lo; v < hi; v++] with C semantics: bounds evaluated once,
          body writes to [v] do not change the trip count, and [v] holds
          [max lo hi] after the loop ([lo] when it never ran) *)
  | While of exp * stmt list
  | If of exp * stmt list * stmt list
  | Memcpy of { dst : string; src : string; elems : exp }
      (** block copy between equal-element-type buffers *)

type t = {
  name : string;
  bufs : buf_decl list;
      (** heap objects: driver-allocated, DMA-visible, protection-checked *)
  scratch : buf_decl list;
      (** accelerator-internal memories (BRAM) / CPU stack arrays — the
          "stack objects" of the paper's CWE analysis: never exposed on the
          memory interface, so no DMA and no protection entry *)
  body : stmt list;
}

val find_buf : t -> string -> buf_decl
(** Raises [Not_found]. *)

(** {1 Types}  Every operator fixes its operands' and its result's types,
    so an expression's type is its root's.  The interpreter and the RISC-V
    code generator both type kernels by this rule. *)

type ty = TI | TF  (** an integer or an IEEE double *)

val binop_ty : binop -> ty * ty
(** The operands' type and the result's. *)

val infer :
  local:(string -> ty) -> param:(string -> ty) -> elem:(string -> elem) -> exp -> ty

val validate : t -> (unit, string) result
(** Static sanity: buffer references resolve, buffer names unique, memcpy
    element types agree, stores only target writable buffers. *)

val contains_load : exp -> bool
(** Used to classify a load as {e dependent} (pointer-chasing: its index is
    itself loaded from memory, so the access cannot be issued until the
    previous load returns). *)

(** {1 Builder combinators} — the surface syntax the MachSuite kernels are
    written in. *)

val i : int -> exp
val f : float -> exp
val v : string -> exp
val p : string -> exp
val ld : string -> exp -> exp

val ( +: ) : exp -> exp -> exp
val ( -: ) : exp -> exp -> exp
val ( *: ) : exp -> exp -> exp
val ( /: ) : exp -> exp -> exp
val ( %: ) : exp -> exp -> exp
val ( <: ) : exp -> exp -> exp
val ( <=: ) : exp -> exp -> exp
val ( >: ) : exp -> exp -> exp
val ( >=: ) : exp -> exp -> exp
val ( =: ) : exp -> exp -> exp
val ( <>: ) : exp -> exp -> exp
val ( &&: ) : exp -> exp -> exp
val ( ||: ) : exp -> exp -> exp
val band : exp -> exp -> exp
val bor : exp -> exp -> exp
val bxor : exp -> exp -> exp
val shl : exp -> exp -> exp
val shr : exp -> exp -> exp
val imin : exp -> exp -> exp
val imax : exp -> exp -> exp

val ( +.: ) : exp -> exp -> exp
val ( -.: ) : exp -> exp -> exp
val ( *.: ) : exp -> exp -> exp
val ( /.: ) : exp -> exp -> exp
val ( <.: ) : exp -> exp -> exp
val ( <=.: ) : exp -> exp -> exp
val ( >.: ) : exp -> exp -> exp
val ( >=.: ) : exp -> exp -> exp
val fmin : exp -> exp -> exp
val fmax : exp -> exp -> exp
val fsqrt : exp -> exp
val fexp : exp -> exp
val fabs_ : exp -> exp
val i2f : exp -> exp
val f2i : exp -> exp

val let_ : string -> exp -> stmt
val store : string -> exp -> exp -> stmt
val for_ : string -> exp -> exp -> stmt list -> stmt
val while_ : exp -> stmt list -> stmt
val if_ : exp -> stmt list -> stmt list -> stmt
val when_ : exp -> stmt list -> stmt
val memcpy : dst:string -> src:string -> elems:exp -> stmt

val buf : ?writable:bool -> string -> elem -> int -> buf_decl

(** {1 Pretty printing} (debugging and disassembly-style dumps) *)

val exp_to_string : exp -> string
val stmt_to_string : ?indent:int -> stmt -> string
val to_string : t -> string
