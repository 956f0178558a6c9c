(* Per-source CapChecker shims (the Praesidio memory-shim arrangement):
   adjudication happens where the traffic originates, against a small private
   capability table per accelerator, with a shared miss/refill path to the
   central table.  The central {!Checker} stays the sole authority — shims
   only hold read copies, invalidated on every central table mutation — so
   per-access verdicts are identical to centralized checking by
   construction; only latency changes.

   The shared path is a single-ported unit: one central-table access per
   cycle.  With the event engine's clock connected, concurrent misses (or,
   in [Central] mode, concurrent checks) queue on a monotone [free_at]
   latch.  Without a clock (the trace-recording engine, or setup-phase
   code outside simulated time) the port is uncontended and the latch
   degenerates to zero added wait — which is also why a [Shared]-topology
   run with central checking never sees contention: a one-grant-per-cycle
   bus already caps adjudications at one per cycle. *)

type checking = Central | Distributed

let checking_to_string = function
  | Central -> "central"
  | Distributed -> "shim"

let checking_of_string = function
  | "central" -> Ok Central
  | "shim" | "distributed" -> Ok Distributed
  | s -> Error (Printf.sprintf "unknown checker placement %S (central|shim)" s)

type shim = {
  sh_table : Table.t;
  sh_fifo : (int * int) Queue.t;
      (* refill order; FIFO replacement when the shim table is full.  May
         hold stale keys after an invalidation — eviction just skips them. *)
  mutable sh_hits : int;
  mutable sh_misses : int;
}

type t = {
  central : Checker.t;
  checking : checking;
  shim_entries : int;
  refill_latency : int;
  sources : int;  (* declared fleet size (area accounting) *)
  mutable by_source : shim option array;  (* shim of source [i], grown on demand *)
  mutable shims : shim list;  (* every shim, newest first *)
  mutable clock : (unit -> int) option;
  mutable port_free_at : int;
  mutable latency : int;  (* latency of the last granted verdict *)
  mutable invalidations : int;
      (* shim-table entries dropped through the central invalidate channel —
         the epoch-bump/refill race counter the verification layer pins *)
}

let default_shim_entries = 8
let default_refill_latency = 2

let invalidate t u =
  let each f = List.iter f t.shims in
  match u with
  | Checker.Up_install { task; obj } | Checker.Up_evict { task; obj } ->
      each (fun sh ->
          if Table.evict sh.sh_table ~task ~obj then
            t.invalidations <- t.invalidations + 1)
  | Checker.Up_evict_task { task } ->
      each (fun sh ->
          t.invalidations <- t.invalidations + Table.evict_task sh.sh_table ~task)

let create ?(shim_entries = default_shim_entries)
    ?(refill_latency = default_refill_latency) ~central ~sources checking =
  let t =
    { central; checking; shim_entries; refill_latency; sources;
      by_source = Array.make (max 0 sources) None;
      shims = []; clock = None; port_free_at = 0; latency = 0;
      invalidations = 0 }
  in
  if checking = Distributed then Checker.on_update central (invalidate t);
  t

let checking t = t.checking
let central t = t.central

let connect_clock t f = t.clock <- Some f

let disconnect_clock t =
  t.clock <- None;
  t.port_free_at <- 0

(* One central-port access; returns the queuing wait in cycles. *)
let port_wait t =
  match t.clock with
  | None -> 0
  | Some now ->
      let n = now () in
      let start = Int.max n t.port_free_at in
      t.port_free_at <- start + 1;
      start - n

(* Source ids index an array sized to the declared fleet, so the per-check
   lookup hashes nothing; an id past the fleet grows it. *)
let shim_for t src =
  if src < 0 then invalid_arg "Capchecker.Shim: negative source id";
  let n = Array.length t.by_source in
  if src >= n then begin
    let grown = Array.make (max (2 * n) (src + 1)) None in
    Array.blit t.by_source 0 grown 0 n;
    t.by_source <- grown
  end;
  match t.by_source.(src) with
  | Some sh -> sh
  | None ->
      let sh =
        { sh_table = Table.create ~entries:t.shim_entries;
          sh_fifo = Queue.create (); sh_hits = 0; sh_misses = 0 }
      in
      t.by_source.(src) <- Some sh;
      t.shims <- sh :: t.shims;
      sh

let rec refill t sh ~task ~obj cap =
  match Table.install sh.sh_table ~task ~obj cap with
  | Table.Installed _ -> Queue.push (task, obj) sh.sh_fifo
  | Table.Rejected_untagged -> ()
  | Table.Table_full -> (
      match Queue.take_opt sh.sh_fifo with
      | None -> ()
      | Some (vt, vo) ->
          ignore (Table.evict sh.sh_table ~task:vt ~obj:vo);
          refill t sh ~task ~obj cap)

(* Every path ends in a central {!Checker} verdict function, so a denial
   is recorded (and later rendered) exactly as the central unit would. *)
let verdict t (req : Guard.Iface.req) =
  match t.checking with
  | Central ->
      let wait = port_wait t in
      let phys = Checker.verdict t.central req in
      if phys >= 0 then t.latency <- Checker.last_latency t.central + wait;
      phys
  | Distributed -> (
      let task = req.Guard.Iface.source in
      let obj, phys = Checker.resolve t.central req in
      if obj < 0 then
        Checker.record_denial t.central ~task ~obj:0 Checker.No_provenance
      else
        let sh = shim_for t task in
        match Table.lookup sh.sh_table ~task ~obj with
        | Some entry ->
            sh.sh_hits <- sh.sh_hits + 1;
            t.latency <- Checker.check_latency;
            Checker.adjudicate_entry t.central req ~task ~obj ~phys
              ~latency:Checker.check_latency entry
        | None -> (
            sh.sh_misses <- sh.sh_misses + 1;
            let obs = Checker.obs t.central in
            if Obs.Trace.enabled obs then
              Obs.Trace.emit obs (Obs.Event.Check_table_miss { task; obj });
            let wait = port_wait t in
            match Table.lookup (Checker.table t.central) ~task ~obj with
            | None ->
                Checker.record_denial t.central ~task ~obj Checker.No_capability
            | Some entry ->
                refill t sh ~task ~obj entry.Table.cap;
                let latency =
                  Checker.check_latency + wait + t.refill_latency
                in
                t.latency <- latency;
                Checker.adjudicate_entry t.central req ~task ~obj ~phys
                  ~latency entry))

let last_latency t = t.latency

let check t req =
  let phys = verdict t req in
  if phys >= 0 then Guard.Iface.Granted { phys; latency = t.latency }
  else Guard.Iface.Denied (Checker.render (Checker.last_denial t.central))

let hits t = List.fold_left (fun acc sh -> acc + sh.sh_hits) 0 t.shims
let misses t = List.fold_left (fun acc sh -> acc + sh.sh_misses) 0 t.shims
let shim_count t = List.length t.shims
let invalidations t = t.invalidations

(* Fleet-wide shim-table pressure: every field summed across shims (peak is
   the sum of per-shim peaks — an upper bound on simultaneous residency). *)
let shim_stats t =
  List.fold_left
    (fun acc sh ->
      let s = Table.stats sh.sh_table in
      { Table.st_installs = acc.Table.st_installs + s.Table.st_installs;
        st_evictions = acc.Table.st_evictions + s.Table.st_evictions;
        st_conflicts = acc.Table.st_conflicts + s.Table.st_conflicts;
        st_rejected = acc.Table.st_rejected + s.Table.st_rejected;
        st_live = acc.Table.st_live + s.Table.st_live;
        st_peak = acc.Table.st_peak + s.Table.st_peak })
    { Table.st_installs = 0; st_evictions = 0; st_conflicts = 0;
      st_rejected = 0; st_live = 0; st_peak = 0 }
    t.shims

let observe_shims t ~into =
  let s = shim_stats t in
  Obs.Metrics.add into "shim.table_installs" s.Table.st_installs;
  Obs.Metrics.add into "shim.table_evictions" s.Table.st_evictions;
  Obs.Metrics.add into "shim.table_live" s.Table.st_live;
  Obs.Metrics.add into "shim.hits" (hits t);
  Obs.Metrics.add into "shim.misses" (misses t);
  Obs.Metrics.add into "shim.invalidations" (invalidations t)

let area_luts t =
  match t.checking with
  | Central -> Checker.area_luts t.central
  | Distributed ->
      Checker.area_luts t.central
      + (t.sources * Area.luts_lightweight ~entries:t.shim_entries)

let guard t =
  let base = Checker.as_guard t.central in
  let name =
    match t.checking with
    | Central -> base.Guard.Iface.info.Guard.Iface.name
    | Distributed -> base.Guard.Iface.info.Guard.Iface.name ^ "+shims"
  in
  {
    base with
    Guard.Iface.info =
      { base.Guard.Iface.info with Guard.Iface.name; area_luts = area_luts t };
    check = (fun req -> check t req);
    (* Shim-local hits and central-port refills give history-dependent
       latency, and hits touch per-source replica state. *)
    const_latency = None;
  }
