(* Scenario execution with a differential oracle.

   Three systems run in lock-step over one schedule:

   - the {e implementation}: a real {!Capchecker.Checker} with the scenario's
     shim fleet in front of it ([sc_checkers]) — the exact code the simulator
     trusts;
   - a {e mirror}: a second central-only checker fed the identical install
     stream, so checking placement can be compared verdict-for-verdict
     (shim parity is a theorem of {!Capchecker.Shim}'s design; here it is
     checked, not assumed);
   - a {e spec oracle}: a dozen lines of obviously-correct bookkeeping — a
     grant map plus interval arithmetic — that defines what each access
     {e should} do.

   Mutations deliberately break the implementation in controlled ways (wide
   decode, lost revocation, ghost exception bits, unproven elision) so the
   property layer can be shown to catch each class; [M_none] is the run that
   must come back clean.

   After every op the properties are evaluated; the first failure poisons the
   harness (subsequent ops no-op) so the recorded trace ends at the violating
   step, which is what {!Explore.minimize} relies on. *)

type violation = {
  v_prop : string;
  v_detail : string;
  v_step : int;
  v_cycle : int;
}

type step = {
  s_index : int;
  s_cycle : int;
  s_src : int;
  s_op : Model.op;
  s_note : string;
}

(* property names (stable: they appear in cram output and CI greps) *)
let p_oob_grant = "oob-grant"
let p_benign_denial = "benign-denial"
let p_phys = "phys-mismatch"
let p_parity = "shim-parity"
let p_ghost = "ghost-exn"
let p_elide = "elide-unsound"
let p_install = "install-result"

(* What an op did, kept as a value: the trace renders it only when someone
   reads it (a counterexample, [--replay]), not once per explored step. *)
type note =
  | Elided
  | Granted of int
  | Denied of Capchecker.Checker.denial
  | Driver of string
  | Revoked of int

let denial_detail d = (Capchecker.Checker.render d).Guard.Iface.detail

let render_note = function
  | Elided -> "elided"
  | Granted phys -> Printf.sprintf "granted phys=0x%x" phys
  | Denied d -> "denied: " ^ denial_detail d
  | Driver what -> what
  | Revoked n -> Printf.sprintf "revoked %d entries" n

type executed = {
  e_index : int;
  e_cycle : int;
  e_src : int;
  e_op : Model.op;
  e_note : note;
}

(* The spec tables are indexed by the packed key [task * objs + obj]; every
   key an op or a table entry can name is in range ({!Model.of_token}
   validates tokens). *)
type t = {
  sc : Model.scenario;
  central : Capchecker.Checker.t;   (* implementation authority *)
  fleet : Capchecker.Shim.t;        (* implementation check path *)
  mirror : Capchecker.Checker.t;    (* central-only parity reference *)
  granted : Model.perm option array;  (* spec: live grants *)
  denied_since : bool array;
      (* spec: keys denied since their last install — the set a live
         exception bit must be justified by *)
  dirty : bool array;
      (* M_ghost_exn: keys evicted while their exception bit was set *)
  elided : bool array;              (* per source, fixed at boot *)
  mutable install_ordinal : int;    (* driver installs executed so far *)
  mutable steps : executed list;    (* reverse order *)
  mutable n_steps : int;
  mutable violation : violation option;
}

let key t ~task ~obj = (task * t.sc.Model.sc_objs) + obj

let violation t = t.violation

let trace t =
  List.rev_map
    (fun e ->
      { s_index = e.e_index; s_cycle = e.e_cycle; s_src = e.e_src;
        s_op = e.e_op; s_note = render_note e.e_note })
    t.steps

let steps_executed t = t.n_steps
let shim_invalidations t = Capchecker.Shim.invalidations t.fleet
let shim_misses t = Capchecker.Shim.misses t.fleet

let violate t ~cycle prop detail =
  if t.violation = None then
    t.violation <-
      Some { v_prop = prop; v_detail = detail; v_step = t.n_steps;
             v_cycle = cycle }

(* ---- capability construction (where M_wide_bounds lives) ---- *)

let make_cap sc ~obj ~(perm : Model.perm) =
  let base = Model.obj_base sc obj in
  let length =
    match sc.Model.sc_mutation with
    | Model.M_wide_bounds -> 2 * sc.Model.sc_obj_len
    | _ -> sc.Model.sc_obj_len
  in
  let perms =
    match perm with Model.Rw -> Cheri.Perms.data_rw | Model.Ro -> Cheri.Perms.data_ro
  in
  match Cheri.Cap.set_bounds Cheri.Cap.root ~base ~length with
  | Error e ->
      invalid_arg ("verify: object capability: " ^ Cheri.Cap.error_to_string e)
  | Ok c -> (
      match Cheri.Cap.with_perms c perms with
      | Error e ->
          invalid_arg ("verify: object perms: " ^ Cheri.Cap.error_to_string e)
      | Ok c -> c)

(* ---- the spec oracle ---- *)

type verdict = S_grant of int | S_deny of string

let spec_access t ~src ~obj ~off ~len ~write =
  let sc = t.sc in
  match t.granted.(key t ~task:src ~obj) with
  | None -> S_deny "no live capability"
  | Some perm ->
      if write && perm = Model.Ro then S_deny "read-only grant"
      else if off < 0 || len < 1 || len > sc.Model.sc_obj_len - off then
        S_deny "out of object bounds"
      else S_grant (Model.obj_base sc obj + off)

(* ---- ghost-exception hygiene ----
   Every live entry with its exception bit set must be justified by a denial
   recorded since that entry's install.  The M_ghost_exn mutation plants
   exactly the unjustified kind (a bit inherited across evict/install). *)

let check_exn_hygiene t ~cycle =
  let table = Capchecker.Checker.table t.central in
  if Capchecker.Table.exception_count table > 0 then
    List.iter
      (fun (task, obj) ->
        if not t.denied_since.(key t ~task ~obj) then
          violate t ~cycle p_ghost
            (Printf.sprintf
               "entry (task %d, obj %d) reports an exception but no denial hit \
                it since its install"
               task obj))
      (Capchecker.Table.entries_with_exceptions table)

(* ---- boot ---- *)

let install_everywhere t ~task ~obj ~perm =
  let cap = make_cap t.sc ~obj ~perm in
  let r = Capchecker.Checker.install t.central ~task ~obj cap in
  let r' = Capchecker.Checker.install t.mirror ~task ~obj cap in
  let k = key t ~task ~obj in
  t.granted.(k) <- Some perm;
  t.denied_since.(k) <- false;
  (if t.sc.Model.sc_mutation = Model.M_ghost_exn && t.dirty.(k) then begin
     (* the reused slot inherits the stale exception bit *)
     Capchecker.Table.mark_exception
       (Capchecker.Checker.table t.central) ~task ~obj;
     t.dirty.(k) <- false
   end);
  match (r, r') with
  | Capchecker.Table.Installed _, Capchecker.Table.Installed _ -> Ok ()
  | _ -> Error "capability install rejected (table sized for the scenario)"

let boot sc =
  (* room for every (task, obj) pair at once: installs only fail if the
     implementation loses entries it should still hold *)
  let keys = sc.Model.sc_accels * sc.Model.sc_objs in
  let entries = keys + 4 in
  let central = Capchecker.Checker.create ~entries sc.Model.sc_mode in
  let fleet =
    Capchecker.Shim.create ~central ~sources:sc.Model.sc_accels
      sc.Model.sc_checkers
  in
  let mirror = Capchecker.Checker.create ~entries sc.Model.sc_mode in
  let t =
    { sc; central; fleet; mirror;
      granted = Array.make keys None; denied_since = Array.make keys false;
      dirty = Array.make keys false;
      elided = Array.init (Model.sources sc) (fun s -> Model.elided sc s);
      install_ordinal = 0; steps = []; n_steps = 0; violation = None }
  in
  List.iter
    (fun (task, obj, perm) ->
      match install_everywhere t ~task ~obj ~perm with
      | Ok () -> ()
      | Error msg -> violate t ~cycle:0 p_install ("boot: " ^ msg))
    sc.Model.sc_grants;
  t

(* ---- op execution ---- *)

let req_for t ~src ~obj ~off ~len ~write =
  let sc = t.sc in
  let phys = Model.obj_base sc obj + off in
  let addr, port =
    match sc.Model.sc_mode with
    | Capchecker.Checker.Fine -> (phys, Some obj)
    | Capchecker.Checker.Coarse ->
        (Capchecker.Checker.compose_coarse ~obj phys, None)
  in
  { Guard.Iface.source = src; port; addr; size = len;
    kind = (if write then Guard.Iface.Write else Guard.Iface.Read) }

let verdict_note checker phys =
  if phys >= 0 then Granted phys
  else Denied (Capchecker.Checker.last_denial checker)

let exec_access t ~cycle ~src ~obj ~off ~len ~write =
  let spec = spec_access t ~src ~obj ~off ~len ~write in
  if t.elided.(src) then begin
    (* no checker consulted: soundness rests entirely on the static proof *)
    (match spec with
    | S_grant _ -> ()
    | S_deny why ->
        violate t ~cycle p_elide
          (Printf.sprintf
             "task %d ran with checks elided but its access (obj %d, [%d,%d)%s) \
              is not statically safe: %s"
             src obj off (off + len) (if write then ", write" else "") why));
    Elided
  end
  else begin
    let req = req_for t ~src ~obj ~off ~len ~write in
    let impl = Capchecker.Shim.verdict t.fleet req in
    let mirror = Capchecker.Checker.verdict t.mirror req in
    (* the no-out-of-bounds invariant, differentially against the oracle *)
    (match spec with
    | S_grant p when impl >= 0 ->
        if impl <> p then
          violate t ~cycle p_phys
            (Printf.sprintf "granted phys 0x%x, oracle says 0x%x" impl p)
    | S_grant _ ->
        violate t ~cycle p_benign_denial
          (Printf.sprintf "oracle grants this access; checker denied it (%s)"
             (denial_detail (Capchecker.Checker.last_denial t.central)))
    | S_deny why when impl >= 0 ->
        violate t ~cycle p_oob_grant
          (Printf.sprintf
             "task %d %s obj %d [%d,%d) reached memory at 0x%x but the oracle \
              denies it (%s)"
             src (if write then "write" else "read") obj off (off + len) impl
             why)
    | S_deny _ -> t.denied_since.(key t ~task:src ~obj) <- true);
    (* placement parity: the shim fleet must agree with pure-central, by
       verdict and, for a denial, by structured reason (equal reasons
       render equal text) *)
    let agree =
      if impl >= 0 then mirror = impl
      else
        mirror < 0
        && Capchecker.Checker.last_denial t.central
           = Capchecker.Checker.last_denial t.mirror
    in
    if not agree then
      violate t ~cycle p_parity
        (Printf.sprintf "shim path says %S, central says %S"
           (render_note (verdict_note t.central impl))
           (render_note (verdict_note t.mirror mirror)));
    verdict_note t.central impl
  end

let capture_dirty t ~task ~obj =
  if t.sc.Model.sc_mutation = Model.M_ghost_exn then
    match
      Capchecker.Table.lookup (Capchecker.Checker.table t.central) ~task ~obj
    with
    | Some e when e.Capchecker.Table.exn <> Capchecker.Table.No_exception ->
        t.dirty.(key t ~task ~obj) <- true
    | _ -> ()

let exec_driver t ~cycle op =
  match op with
  | Model.Install { task; obj; perm } ->
      let ordinal = t.install_ordinal in
      t.install_ordinal <- ordinal + 1;
      if t.sc.Model.sc_fault_install = Some ordinal then
        (* PR 2's transient table-pressure fault, pinned to one install: the
           driver observes Table_full and backs off — no table state moves *)
        Driver "install refused (injected table-full)"
      else begin
        (match install_everywhere t ~task ~obj ~perm with
        | Ok () -> ()
        | Error msg -> violate t ~cycle p_install msg);
        Driver "installed"
      end
  | Model.Evict { task; obj } ->
      capture_dirty t ~task ~obj;
      let was = Capchecker.Checker.evict t.central ~task ~obj in
      ignore (Capchecker.Checker.evict t.mirror ~task ~obj);
      let k = key t ~task ~obj in
      t.granted.(k) <- None;
      t.denied_since.(k) <- false;
      Driver (if was then "evicted" else "evicted (no entry)")
  | Model.Revoke { task } ->
      (* spec: the epoch bump kills every grant of the task, always *)
      for obj = 0 to t.sc.Model.sc_objs - 1 do
        let k = key t ~task ~obj in
        match t.granted.(k) with
        | None -> ()
        | Some _ ->
            capture_dirty t ~task ~obj;
            t.granted.(k) <- None;
            t.denied_since.(k) <- false
      done;
      if t.sc.Model.sc_mutation = Model.M_skip_revoke then
        Driver "revoked (lost by the checker)"
      else begin
        let n = Capchecker.Checker.evict_task t.central ~task in
        ignore (Capchecker.Checker.evict_task t.mirror ~task);
        Revoked n
      end
  | Model.Access _ -> assert false

let exec t ~cycle ~src op =
  match t.violation with
  | Some _ -> ()
  | None ->
    let note =
      match op with
      | Model.Access { obj; off; len; write } ->
          exec_access t ~cycle ~src ~obj ~off ~len ~write
      | Model.Install _ | Model.Evict _ | Model.Revoke _ ->
          exec_driver t ~cycle op
    in
    check_exn_hygiene t ~cycle;
    t.steps <-
      { e_index = t.n_steps; e_cycle = cycle; e_src = src; e_op = op;
        e_note = note }
      :: t.steps;
    t.n_steps <- t.n_steps + 1
