type t = VI of int | VF of float

exception Type_error of string

(* Allocated once, so boxing a small integer allocates nothing and never
   puts a young block into an old array.  The table starts filled with a
   static constant: a young one would cost a minor collection at start-up. *)
let small =
  let a = Array.make 1536 (VI 0) in
  for j = 0 to 1535 do
    a.(j) <- VI (j - 512)
  done;
  a

let of_int n =
  let j = n + 512 in
  if j >= 0 && j < 1536 then Array.unsafe_get small j else VI n

let as_int = function
  | VI n -> n
  | VF x -> raise (Type_error (Printf.sprintf "expected int, got float %g" x))

let as_float = function
  | VF x -> x
  | VI n -> raise (Type_error (Printf.sprintf "expected float, got int %d" n))

let truthy v = as_int v <> 0

let equal a b =
  match (a, b) with
  | VI x, VI y -> x = y
  | VF x, VF y -> Float.equal x y
  | VI _, VF _ | VF _, VI _ -> false

let to_string = function VI n -> string_of_int n | VF x -> Printf.sprintf "%g" x
