(* The verifier's state spaces.

   Phase 1 — the capability-encoding sweep: every region over a tiny
   [2^space_bits]-byte window (the {e exact} regime, where rounding must be
   the identity), the same window stretched through odd multipliers into
   ranges that force nonzero exponents (the {e rounding} regime), all 4096
   permission masks, and the coarse-mode address compose/split corners.
   Each derived capability is checked against an independently re-derived
   semantics of [Cap.access_ok] and round-tripped through the 128-bit
   encoding, so a bounds-decode bug cannot hide behind the same code
   computing both sides.

   Phase 2 — the scenario space: the full cross product
   [mode x elide x fault x grant-map] over a fixed task/object box (the
   grant map is a base-3 integer: absent / ro / rw per (task, obj) key),
   each paired with the canonical probe programs.  {!Explore} then runs
   every interleaving of every scenario.

   The random sampler drives the same model from a seeded {!Ccsim.Rng}
   (the simulator's only sanctioned randomness source), for the
   [--random] fallback when exhaustive bounds are out of reach. *)

type sweep = {
  sw_caps : int;    (** capabilities derived *)
  sw_checks : int;  (** individual predicate checks evaluated *)
  sw_failure : string option;  (** first failing check, if any *)
}

(* ---- phase 1: encodings ---- *)

let sem_perm = function
  | Cheri.Cap.Read -> Cheri.Perms.load
  | Cheri.Cap.Write -> Cheri.Perms.store
  | Cheri.Cap.Exec -> Cheri.Perms.execute

(* access_ok, re-derived from the architectural definition *)
let sem_ok (c : Cheri.Cap.t) ~addr ~size kind =
  c.Cheri.Cap.tag
  && (not (Cheri.Cap.is_sealed c))
  && Cheri.Perms.mem (sem_perm kind) c.Cheri.Cap.perms
  && size >= 0
  && addr >= c.Cheri.Cap.base
  && size <= c.Cheri.Cap.top - addr

let encoding_sweep ~space_bits =
  let w = 1 lsl space_bits in
  let caps = ref 0 and checks = ref 0 in
  let failure = ref None in
  (* [name] builds the message, only for the first failure *)
  let fail name =
    match !failure with None -> failure := Some (name ()) | Some _ -> ()
  in
  let check name cond =
    incr checks;
    if not cond then fail (fun () -> name)
  in
  let checkf cond name =
    incr checks;
    if not cond then fail name
  in
  let probe c ~base ~top =
    let addrs = [ base - 1; base; top - 1; top ] in
    List.iter
      (fun addr ->
        if addr >= 0 then
          List.iter
            (fun kind ->
              let impl = Cheri.Cap.access_ok c ~addr ~size:1 kind = Ok () in
              checkf
                (impl = sem_ok c ~addr ~size:1 kind)
                (fun () ->
                  Printf.sprintf
                    "access_ok disagrees with the architectural semantics at \
                     0x%x (cap 0x%x..0x%x)"
                    addr c.Cheri.Cap.base c.Cheri.Cap.top))
            [ Cheri.Cap.Read; Cheri.Cap.Write; Cheri.Cap.Exec ])
      addrs;
    (* whole-region and just-past-the-end accesses *)
    let len = top - base in
    checkf
      (Cheri.Cap.access_ok c ~addr:base ~size:len Cheri.Cap.Read = Ok ()
      = sem_ok c ~addr:base ~size:len Cheri.Cap.Read)
      (fun () ->
        Printf.sprintf "whole-region access disagrees (cap 0x%x..0x%x)" base
          top);
    checkf
      (Cheri.Cap.access_ok c ~addr:base ~size:(len + 1) Cheri.Cap.Read = Ok ()
      = sem_ok c ~addr:base ~size:(len + 1) Cheri.Cap.Read)
      (fun () ->
        Printf.sprintf "past-the-end access disagrees (cap 0x%x..0x%x)" base
          top)
  in
  let roundtrip c =
    let words = Cheri.Compress.encode c in
    let c' = Cheri.Compress.decode ~tag:c.Cheri.Cap.tag words in
    checkf (Cheri.Cap.equal c c') (fun () ->
        Printf.sprintf
          "128-bit encode/decode round trip broke cap 0x%x..0x%x perms=%s"
          c.Cheri.Cap.base c.Cheri.Cap.top
          (Cheri.Perms.to_string c.Cheri.Cap.perms))
  in
  (* exact regime: every region inside the window is representable as-is *)
  for base = 0 to w - 1 do
    for len = 0 to w - base do
      let top = base + len in
      check "tiny region reported non-exact"
        (Cheri.Bounds_enc.is_exact ~base ~top);
      match Cheri.Cap.set_bounds Cheri.Cap.root ~base ~length:len with
      | Error _ -> check "set_bounds refused a tiny region" false
      | Ok c ->
          incr caps;
          checkf
            (c.Cheri.Cap.base = base && c.Cheri.Cap.top = top)
            (fun () ->
              Printf.sprintf
                "exact bounds moved: asked 0x%x..0x%x got 0x%x..0x%x" base top
                c.Cheri.Cap.base c.Cheri.Cap.top);
          check "set_bounds_exact refused an exact region"
            (Result.is_ok
               (Cheri.Cap.set_bounds_exact Cheri.Cap.root ~base ~length:len));
          probe c ~base ~top;
          roundtrip c
    done
  done;
  (* rounding regime: odd multipliers force mantissa overflow, so the encoder
     must round — outward, idempotently, and identically to set_bounds *)
  let m_base = 0x4000_0001 and m_len = 0x2000_0003 in
  for b = 0 to w - 1 do
    for l = 0 to w - 1 do
      let base = b * m_base in
      let top = base + (l * m_len) + 1 in
      let rb, rt = Cheri.Bounds_enc.round ~base ~top in
      check "rounding does not cover the requested region"
        (rb <= base && top <= rt);
      check "rounding is not idempotent" (Cheri.Bounds_enc.is_exact ~base:rb ~top:rt);
      check "set_bounds_exact verdict disagrees with is_exact"
        (Result.is_ok
           (Cheri.Cap.set_bounds_exact Cheri.Cap.root ~base
              ~length:(top - base))
        = Cheri.Bounds_enc.is_exact ~base ~top);
      match Cheri.Cap.set_bounds Cheri.Cap.root ~base ~length:(top - base) with
      | Error _ -> check "set_bounds refused a representable region" false
      | Ok c ->
          incr caps;
          checkf
            (c.Cheri.Cap.base = rb && c.Cheri.Cap.top = rt)
            (fun () ->
              Printf.sprintf
                "set_bounds rounds differently from Bounds_enc.round at \
                 0x%x..0x%x" base top);
          probe c ~base ~top:rt;
          roundtrip c
    done
  done;
  (* permissions: all 4096 masks over one fixed region *)
  (match Cheri.Cap.set_bounds Cheri.Cap.root ~base:0 ~length:8 with
  | Error _ -> check "set_bounds refused the perms-sweep region" false
  | Ok c0 ->
      for mask = 0 to 4095 do
        let perms = Cheri.Perms.of_mask mask in
        match Cheri.Cap.with_perms c0 perms with
        | Error _ -> check "with_perms refused a reduction from root" false
        | Ok c ->
            incr caps;
            List.iter
              (fun kind ->
                checkf
                  (Cheri.Cap.access_ok c ~addr:0 ~size:1 kind = Ok ()
                  = Cheri.Perms.mem (sem_perm kind) perms)
                  (fun () ->
                    Printf.sprintf "permission gating disagrees on mask 0x%03x"
                      mask))
              [ Cheri.Cap.Read; Cheri.Cap.Write; Cheri.Cap.Exec ];
            roundtrip c
      done);
  (* coarse-mode address layout corners *)
  let objs = [ 0; 1; 127; 255 ] in
  let window = Capchecker.Checker.coarse_window in
  let physes = [ 0; 1; w - 1; window / 2; window - 1 ] in
  List.iter
    (fun obj ->
      List.iter
        (fun phys ->
          let composed = Capchecker.Checker.compose_coarse ~obj phys in
          let obj', phys' = Capchecker.Checker.split_coarse composed in
          checkf
            (obj' = obj && phys' = phys)
            (fun () ->
              Printf.sprintf
                "coarse compose/split did not round trip (obj %d, phys 0x%x)"
                obj phys))
        physes)
    objs;
  List.iter
    (fun thunk ->
      check "coarse compose accepted an aliasing input"
        (match thunk () with
        | exception Invalid_argument _ -> true
        | (_ : int) -> false))
    [ (fun () -> Capchecker.Checker.compose_coarse ~obj:256 0);
      (fun () -> Capchecker.Checker.compose_coarse ~obj:0 window) ];
  { sw_caps = !caps; sw_checks = !checks; sw_failure = !failure }

(* ---- phase 2: scenarios ---- *)

type dims = {
  d_accels : int;
  d_objs : int;
  d_obj_len : int;
  d_depth : int;
  d_topology : Bus.Topology.kind;
  d_checkers : Capchecker.Shim.checking;
  d_mutation : Model.mutation;
}

let pow3 n =
  let r = ref 1 in
  for _ = 1 to n do
    r := !r * 3
  done;
  !r

let count d = 8 * pow3 (d.d_accels * d.d_objs)

let grants_of_code d code =
  let acc = ref [] in
  for t = d.d_accels - 1 downto 0 do
    for o = d.d_objs - 1 downto 0 do
      match code / pow3 ((t * d.d_objs) + o) mod 3 with
      | 0 -> ()
      | 1 -> acc := (t, o, Model.Ro) :: !acc
      | _ -> acc := (t, o, Model.Rw) :: !acc
    done
  done;
  !acc

let scenario_of d ~mode ~elide ~fault code =
  { Model.sc_mode = mode; sc_checkers = d.d_checkers;
    sc_topology = d.d_topology; sc_accels = d.d_accels; sc_objs = d.d_objs;
    sc_obj_len = d.d_obj_len; sc_grants = grants_of_code d code;
    sc_elide = elide; sc_fault_install = fault; sc_mutation = d.d_mutation;
    sc_programs =
      Model.default_programs ~accels:d.d_accels ~objs:d.d_objs
        ~obj_len:d.d_obj_len ~depth:d.d_depth }

(* Fixed enumeration order (grant code outermost, then mode / elide /
   fault): the "first counterexample" is a deterministic function of the
   dimensions, which the CI determinism gate diffs byte-for-byte. *)
let scenarios d =
  let n_codes = pow3 (d.d_accels * d.d_objs) in
  Seq.concat_map
    (fun code ->
      Seq.concat_map
        (fun mode ->
          Seq.concat_map
            (fun elide ->
              Seq.map
                (fun fault -> scenario_of d ~mode ~elide ~fault code)
                (List.to_seq [ None; Some 0 ]))
            (List.to_seq [ false; true ]))
        (List.to_seq [ Capchecker.Checker.Fine; Capchecker.Checker.Coarse ]))
    (Seq.init n_codes (fun c -> c))

(* ---- the random fallback ---- *)

let random_scenario rng d =
  let grants =
    List.concat
      (List.init d.d_accels (fun t ->
           List.filter_map
             (fun o ->
               match Ccsim.Rng.int rng 3 with
               | 0 -> None
               | 1 -> Some (t, o, Model.Ro)
               | _ -> Some (t, o, Model.Rw))
             (List.init d.d_objs (fun o -> o))))
  in
  let random_access () =
    Model.Access
      { obj = Ccsim.Rng.int rng d.d_objs;
        off = Ccsim.Rng.int rng (d.d_obj_len + 2);
        len = Ccsim.Rng.int_in rng 1 3;
        write = Ccsim.Rng.bool rng }
  in
  let random_driver () =
    let task = Ccsim.Rng.int rng d.d_accels in
    let obj = Ccsim.Rng.int rng d.d_objs in
    match Ccsim.Rng.int rng 4 with
    | 0 ->
        Model.Install
          { task; obj; perm = (if Ccsim.Rng.bool rng then Model.Rw else Model.Ro) }
    | 1 -> Model.Evict { task; obj }
    | 2 -> Model.Revoke { task }
    | _ ->
        Model.Install
          { task; obj; perm = (if Ccsim.Rng.bool rng then Model.Rw else Model.Ro) }
  in
  let programs =
    Array.init (d.d_accels + 1) (fun src ->
        let len = Ccsim.Rng.int_in rng 1 (max 1 d.d_depth) in
        List.init len (fun _ ->
            if src < d.d_accels then random_access () else random_driver ()))
  in
  let sc =
    { Model.sc_mode =
        (if Ccsim.Rng.bool rng then Capchecker.Checker.Fine
         else Capchecker.Checker.Coarse);
      sc_checkers = d.d_checkers; sc_topology = d.d_topology;
      sc_accels = d.d_accels; sc_objs = d.d_objs; sc_obj_len = d.d_obj_len;
      sc_grants = grants; sc_elide = Ccsim.Rng.bool rng;
      sc_fault_install =
        (if Ccsim.Rng.bool rng then Some (Ccsim.Rng.int rng 2) else None);
      sc_mutation = d.d_mutation; sc_programs = programs }
  in
  (* a uniformly random feasible schedule *)
  let remaining = Array.map List.length programs in
  let left = ref (Array.fold_left ( + ) 0 remaining) in
  let schedule = ref [] in
  while !left > 0 do
    let pick = ref (Ccsim.Rng.int rng !left) in
    Array.iteri
      (fun src r ->
        if !pick >= 0 then
          if !pick < r then begin
            schedule := src :: !schedule;
            remaining.(src) <- r - 1;
            decr left;
            pick := -1
          end
          else pick := !pick - r)
      remaining
  done;
  (sc, List.rev !schedule)
