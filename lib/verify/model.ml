(* The small-state system model the bounded-exhaustive verifier explores.

   A {e scenario} is one closed, finite configuration of the simulated
   protection hardware: a checker mode, a checking placement, an interconnect
   label, a handful of accelerator tasks over a handful of tiny objects, a
   boot-time capability grant map, and one short straight-line program per
   source.  Sources [0 .. accels-1] are accelerator tasks issuing DMA
   accesses; the last source is the trusted driver issuing table mutations
   (install / evict / revocation-epoch bump).  Everything is pure data here —
   {!Harness} gives a scenario its semantics, {!Explore} its interleavings.

   A scenario plus a schedule serializes to a compact token and back
   ([token_of] / [of_token]), which is what makes every counterexample a
   replayable [capsim verify --replay] command. *)

type mutation =
  | M_none
  | M_ghost_exn      (* evicting a denied entry leaves its exception bit for
                        the next install of the key (the pre-fix slot-reuse
                        bug: the bit not cleared on evict) *)
  | M_wide_bounds    (* installs widen the capability by one object length —
                        a checker that decodes bounds one object too wide *)
  | M_skip_revoke    (* a revocation-epoch bump never reaches the checker *)
  | M_elide_unproven (* check elision applied to every task, proven or not *)

let mutations =
  [ ("none", M_none); ("ghost-exn", M_ghost_exn);
    ("wide-bounds", M_wide_bounds); ("skip-revoke", M_skip_revoke);
    ("elide-unproven", M_elide_unproven) ]

let mutation_to_string m = fst (List.find (fun (_, v) -> v = m) mutations)

let mutation_of_string s =
  match List.assoc_opt s mutations with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown mutation %S (%s)" s
           (String.concat "|" (List.map fst mutations)))

type perm = Ro | Rw

let perm_to_string = function Ro -> "ro" | Rw -> "rw"

type op =
  | Access of { obj : int; off : int; len : int; write : bool }
  | Install of { task : int; obj : int; perm : perm }
  | Evict of { task : int; obj : int }
  | Revoke of { task : int }

type scenario = {
  sc_mode : Capchecker.Checker.mode;
  sc_checkers : Capchecker.Shim.checking;
  sc_topology : Bus.Topology.kind;
  sc_accels : int;
  sc_objs : int;
  sc_obj_len : int;
  sc_grants : (int * int * perm) list;  (* boot-installed, (task, obj, perm) *)
  sc_elide : bool;          (* elide checks for statically proven tasks *)
  sc_fault_install : int option;
      (* driver-install ordinal forced to report Table_full (PR 2's
         transient table-pressure fault, pinned deterministically) *)
  sc_mutation : mutation;
  sc_programs : op list array;  (* per source; driver last *)
}

let sources sc = sc.sc_accels + 1
let driver_src sc = sc.sc_accels
let obj_base sc obj = obj * sc.sc_obj_len

let mode_to_string = function
  | Capchecker.Checker.Fine -> "fine"
  | Capchecker.Checker.Coarse -> "coarse"

let mode_of_string = function
  | "fine" -> Ok Capchecker.Checker.Fine
  | "coarse" -> Ok Capchecker.Checker.Coarse
  | s -> Error (Printf.sprintf "unknown checker mode %S (fine|coarse)" s)

let op_to_string = function
  | Access { obj; off; len; write } ->
      Printf.sprintf "%c%d.%d.%d" (if write then 'w' else 'r') obj off len
  | Install { task; obj; perm } ->
      Printf.sprintf "I%d.%d.%s" task obj (perm_to_string perm)
  | Evict { task; obj } -> Printf.sprintf "E%d.%d" task obj
  | Revoke { task } -> Printf.sprintf "V%d" task

let op_pretty src = function
  | Access { obj; off; len; write } ->
      Printf.sprintf "task %d %s obj %d [%d,%d)" src
        (if write then "write" else "read") obj off (off + len)
  | Install { task; obj; perm } ->
      Printf.sprintf "driver install (task %d, obj %d) %s" task obj
        (perm_to_string perm)
  | Evict { task; obj } -> Printf.sprintf "driver evict (task %d, obj %d)" task obj
  | Revoke { task } -> Printf.sprintf "driver revoke task %d (epoch bump)" task

(* Deterministic per-source programs: each accelerator probes its own object
   in bounds, crosses its top boundary, and reaches into a neighbour; the
   driver revokes task 0 mid-flight, re-grants it, and churns the last
   task's entry.  [depth] truncates every program uniformly, bounding the
   interleaving space. *)
let default_programs ~accels ~objs ~obj_len ~depth =
  let progs = Array.make (accels + 1) [] in
  for t = 0 to accels - 1 do
    let own = t mod objs and next = (t + 1) mod objs in
    let pool =
      [ Access { obj = own; off = 0; len = 1; write = false };
        Access { obj = own; off = obj_len - 1; len = 2; write = true };
        Access { obj = next; off = 0; len = 1; write = true };
        Access { obj = own; off = 0; len = 1; write = true } ]
    in
    progs.(t) <- List.filteri (fun i _ -> i < depth) pool
  done;
  let last = accels - 1 in
  let pool =
    [ Revoke { task = 0 };
      Install { task = 0; obj = 0; perm = Rw };
      Evict { task = last; obj = last mod objs };
      Install { task = last; obj = last mod objs; perm = Ro } ]
  in
  progs.(accels) <- List.filteri (fun i _ -> i < depth) pool;
  progs

(* A task may run with its per-access checks elided only when that is
   statically sound: every access it issues lies inside a boot grant (right
   object, right permission, in bounds) and no driver op ever mutates one of
   its table entries during the run — the same side-condition Soc.Run's
   elision obeys by construction (grants live for the task's whole
   lifetime).  [M_elide_unproven] deliberately ignores this predicate. *)
let statically_proven sc task =
  let granted obj write =
    List.exists
      (fun (t, o, p) -> t = task && o = obj && (p = Rw || not write))
      sc.sc_grants
  in
  let access_ok = function
    | Access { obj; off; len; write } ->
        granted obj write && off >= 0 && len >= 1 && len <= sc.sc_obj_len - off
    | Install _ | Evict _ | Revoke _ -> false
  in
  let driver_touches = function
    | Install { task = t; _ } | Evict { task = t; _ } | Revoke { task = t } ->
        t = task
    | Access _ -> false
  in
  List.for_all access_ok sc.sc_programs.(task)
  && not (List.exists driver_touches sc.sc_programs.(driver_src sc))

let elided sc task =
  task < sc.sc_accels
  && (sc.sc_mutation = M_elide_unproven
     || (sc.sc_elide && statically_proven sc task))

(* ---- replay tokens ---- *)

let ops_to_string ops = String.concat ";" (List.map op_to_string ops)

let token_of sc schedule =
  let fields =
    [ "v1";
      "mode=" ^ mode_to_string sc.sc_mode;
      "chk=" ^ Capchecker.Shim.checking_to_string sc.sc_checkers;
      "topo=" ^ Bus.Topology.kind_to_string sc.sc_topology;
      Printf.sprintf "a=%d" sc.sc_accels;
      Printf.sprintf "o=%d" sc.sc_objs;
      Printf.sprintf "l=%d" sc.sc_obj_len;
      Printf.sprintf "elide=%d" (if sc.sc_elide then 1 else 0);
      ( "fault="
      ^ match sc.sc_fault_install with None -> "" | Some k -> string_of_int k );
      "mut=" ^ mutation_to_string sc.sc_mutation;
      "g="
      ^ String.concat ","
          (List.map
             (fun (t, o, p) -> Printf.sprintf "%d.%d.%s" t o (perm_to_string p))
             sc.sc_grants) ]
    @ List.mapi
        (fun i ops -> Printf.sprintf "p%d=%s" i (ops_to_string ops))
        (Array.to_list sc.sc_programs)
    @ [ "s=" ^ String.concat "," (List.map string_of_int schedule) ]
  in
  String.concat "|" fields

let parse_int name s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "token field %s: %S is not an integer" name s)

let parse_perm = function
  | "ro" -> Ok Ro
  | "rw" -> Ok Rw
  | s -> Error (Printf.sprintf "bad permission %S (ro|rw)" s)

let parse_op s =
  let ( let* ) = Result.bind in
  if s = "" then Error "empty op"
  else
    let body = String.sub s 1 (String.length s - 1) in
    let parts = String.split_on_char '.' body in
    match (s.[0], parts) with
    | ('r' | 'w'), [ o; off; len ] ->
        let* obj = parse_int "op.obj" o in
        let* off = parse_int "op.off" off in
        let* len = parse_int "op.len" len in
        Ok (Access { obj; off; len; write = s.[0] = 'w' })
    | 'I', [ t; o; p ] ->
        let* task = parse_int "op.task" t in
        let* obj = parse_int "op.obj" o in
        let* perm = parse_perm p in
        Ok (Install { task; obj; perm })
    | 'E', [ t; o ] ->
        let* task = parse_int "op.task" t in
        let* obj = parse_int "op.obj" o in
        Ok (Evict { task; obj })
    | 'V', [ t ] ->
        let* task = parse_int "op.task" t in
        Ok (Revoke { task })
    | _ -> Error (Printf.sprintf "unparseable op %S" s)

let parse_list parse = function
  | "" -> Ok []
  | s ->
      List.fold_right
        (fun item acc ->
          Result.bind acc (fun tl -> Result.map (fun v -> v :: tl) (parse item)))
        (String.split_on_char ',' s) (Ok [])

let validate sc schedule =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if sc.sc_accels < 1 || sc.sc_accels > 8 then fail "accels out of [1,8]"
  else if sc.sc_objs < 1 || sc.sc_objs > 16 then fail "objs out of [1,16]"
  else if sc.sc_obj_len < 2 || sc.sc_obj_len > 4096 then
    fail "obj-len out of [2,4096]"
  else
    let bad_key t o = t < 0 || t >= sc.sc_accels || o < 0 || o >= sc.sc_objs in
    let bad_op = function
      | Access { obj; off; len; _ } ->
          obj < 0 || obj >= sc.sc_objs || off < 0 || len < 1
          || len > (4 * sc.sc_obj_len) - off
      | Install { task; obj; _ } | Evict { task; obj } -> bad_key task obj
      | Revoke { task } -> task < 0 || task >= sc.sc_accels
    in
    if List.exists (fun (t, o, _) -> bad_key t o) sc.sc_grants then
      fail "grant outside the task/object space"
    else if
      Array.exists (fun ops -> List.exists bad_op ops) sc.sc_programs
    then fail "program op outside the scenario bounds"
    else
      let remaining = Array.map List.length sc.sc_programs in
      let ok =
        List.for_all
          (fun src ->
            src >= 0
            && src < sources sc
            && remaining.(src) > 0
            &&
            (remaining.(src) <- remaining.(src) - 1;
             true))
          schedule
      in
      if not ok then fail "schedule grants a source with no remaining ops"
      else Ok (sc, schedule)

let of_token token =
  let ( let* ) = Result.bind in
  let fields = String.split_on_char '|' token in
  match fields with
  | "v1" :: rest ->
      let kv =
        List.filter_map
          (fun f ->
            match String.index_opt f '=' with
            | Some i ->
                Some
                  ( String.sub f 0 i,
                    String.sub f (i + 1) (String.length f - i - 1) )
            | None -> None)
          rest
      in
      let get name =
        match List.assoc_opt name kv with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "token is missing field %s" name)
      in
      let* mode = Result.bind (get "mode") mode_of_string in
      let* chk = Result.bind (get "chk") Capchecker.Shim.checking_of_string in
      let* topo = Result.bind (get "topo") Bus.Topology.kind_of_string in
      let* accels = Result.bind (get "a") (parse_int "a") in
      let* objs = Result.bind (get "o") (parse_int "o") in
      let* obj_len = Result.bind (get "l") (parse_int "l") in
      let* elide = Result.bind (get "elide") (parse_int "elide") in
      let* fault =
        match get "fault" with
        | Ok "" -> Ok None
        | Ok s -> Result.map Option.some (parse_int "fault" s)
        | Error _ as e -> e |> Result.map (fun _ -> None)
      in
      let* mutation = Result.bind (get "mut") mutation_of_string in
      let parse_grant s =
        match String.split_on_char '.' s with
        | [ t; o; p ] ->
            let* task = parse_int "g.task" t in
            let* obj = parse_int "g.obj" o in
            let* perm = parse_perm p in
            Ok (task, obj, perm)
        | _ -> Error (Printf.sprintf "bad grant %S" s)
      in
      let* grants = Result.bind (get "g") (parse_list parse_grant) in
      let parse_program s =
        parse_list parse_op (String.concat "," (String.split_on_char ';' s))
      in
      let* programs =
        let rec go i acc =
          if i > accels then Ok (List.rev acc)
          else
            let* p = Result.bind (get (Printf.sprintf "p%d" i)) parse_program in
            go (i + 1) (p :: acc)
        in
        Result.map Array.of_list (go 0 [])
      in
      let* schedule = Result.bind (get "s") (parse_list (parse_int "s")) in
      validate
        { sc_mode = mode; sc_checkers = chk; sc_topology = topo;
          sc_accels = accels; sc_objs = objs; sc_obj_len = obj_len;
          sc_grants = grants; sc_elide = elide <> 0;
          sc_fault_install = fault; sc_mutation = mutation;
          sc_programs = programs }
        schedule
  | _ -> Error "replay token must start with v1"
