type t = {
  name : string;
  kernel : Kernel.Ir.t;
  directives : Hls.Directives.t;
  init : string -> int -> Kernel.Value.t;
  params : (string * Kernel.Value.t) list;
  output_bufs : string list;
  description : string;
}

let make ~kernel ~directives ~init ?(params = []) ~output_bufs ~description () =
  (match Kernel.Ir.validate kernel with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Bench_def.make: " ^ msg));
  List.iter
    (fun name ->
      if not (List.exists (fun (b : Kernel.Ir.buf_decl) -> b.buf_name = name) kernel.bufs)
      then invalid_arg ("Bench_def.make: unknown output buffer " ^ name))
    output_bufs;
  { name = kernel.Kernel.Ir.name; kernel; directives; init; params; output_bufs;
    description }

(* SplitMix-style avalanche of (string hash, index) — pure and stable. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_raw name idx =
  let h = Int64.of_int (Hashtbl.hash name) in
  mix64 (Int64.add (Int64.mul h 0x9E3779B97F4A7C15L) (Int64.of_int idx))

let hash_float name idx =
  let u = Int64.shift_right_logical (hash_raw name idx) 11 in
  Int64.to_float u /. 9007199254740992.0

let hash_int name idx ~bound =
  assert (bound > 0);
  let u = Int64.shift_right_logical (hash_raw name idx) 1 in
  Int64.to_int (Int64.rem u (Int64.of_int bound))

(* Buffers narrower than the runtime's doubles/63-bit ints round on store in
   tagged memory; the reference run must round identically or golden
   comparison would be meaningless. *)
let narrow (elem : Kernel.Ir.elem) (value : Kernel.Value.t) : Kernel.Value.t =
  match (elem, value) with
  | F32, VF x -> VF (Int32.float_of_bits (Int32.bits_of_float x))
  | (U8 | I32 | I64 | F64), _ -> value
  | F32, VI _ -> value

let initial_array t (decl : Kernel.Ir.buf_decl) =
  Array.init decl.len (fun idx -> narrow decl.elem (t.init decl.buf_name idx))

let compute_golden t =
  let arrays =
    List.map
      (fun (decl : Kernel.Ir.buf_decl) -> (decl.buf_name, initial_array t decl))
      t.kernel.Kernel.Ir.bufs
  in
  let elem_of =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (d : Kernel.Ir.buf_decl) -> Hashtbl.add tbl d.buf_name d.elem)
      t.kernel.Kernel.Ir.bufs;
    fun name -> Hashtbl.find tbl name
  in
  let pure = Kernel.Interp.pure_machine ~bufs:arrays ~params:t.params () in
  let machine =
    { pure with
      Kernel.Interp.store =
        (fun name ~idx value -> pure.Kernel.Interp.store name ~idx (narrow (elem_of name) value))
    }
  in
  Kernel.Interp.run t.kernel machine;
  arrays

(* Goldens are pure functions of the kernel (named uniquely by the registry)
   and its parameters; memoized per (name, params) and copied on return so
   callers cannot corrupt the memo. *)
let golden_memo = Ccsim.Memo.create 32

let golden t =
  Ccsim.Memo.find_or_add golden_memo (t.name, t.params) (fun () ->
      compute_golden t)
  |> List.map (fun (name, a) -> (name, Array.copy a))
