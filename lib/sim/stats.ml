type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 32

let find_or_create t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let incr t name = Stdlib.incr (find_or_create t name)

let add t name n =
  let r = find_or_create t name in
  r := !r + n

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let to_list t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_into ~dst src = Hashtbl.iter (fun k r -> add dst k !r) src

let geomean = function
  | [] -> 1.0
  | xs ->
      let n = float_of_int (List.length xs) in
      let log_sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
      exp (log_sum /. n)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* One nearest-rank implementation shared by the float and int front-ends:
   sort once into an array and index directly, instead of the old
   sort-a-list-then-List.nth pair of copies (O(n) per query after the sort). *)
let nearest_rank_index p n =
  let rank = int_of_float (ceil (p *. float_of_int n)) in
  max 0 (min (n - 1) (rank - 1))

let nearest_rank ~what p xs =
  if xs = [] then invalid_arg (Printf.sprintf "Stats.%s: empty sample list" what);
  let sorted = Array.of_list xs in
  Array.sort compare sorted;
  sorted.(nearest_rank_index p (Array.length sorted))

let percentile p xs = nearest_rank ~what:"percentile" p xs

let percentile_int p xs = nearest_rank ~what:"percentile_int" p xs

let percentile_int_opt p xs =
  if xs = [] then None else Some (percentile_int p xs)
