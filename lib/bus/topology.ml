(* Pluggable interconnect topology over the round-robin {!Arbiter}.

   [Shared] is a single arbiter — exactly today's one-grant-per-cycle bus, and
   the differential oracle.  [Crossbar] gives every memory bank its own
   arbiter, so transactions to disjoint banks proceed concurrently and only
   same-bank traffic serializes.  [Hierarchical] groups sources into clusters:
   a local arbiter per cluster grants the cluster's uplink, then the winning
   transaction crosses to a root arbiter (store-and-forward, one uplink hop
   each way), modelling the two-level NoC a 64-accelerator SoC would use. *)

type kind =
  | Shared
  | Crossbar of { banks : int }
  | Hierarchical of { clusters : int }

let default_banks = 4
let default_clusters = 4
let max_count = 4096

let uplink_latency = 2
(* cycles for a transaction to cross from a cluster's local bus to the root
   interconnect (and for the response to cross back) *)

let bank_interleave = 4096
(* bytes per bank stripe: consecutive 4 KiB frames map to consecutive banks *)

let kind_to_string = function
  | Shared -> "shared"
  | Crossbar { banks } -> Printf.sprintf "crossbar:%d" banks
  | Hierarchical { clusters } -> Printf.sprintf "hier:%d" clusters

let is_digit c = c >= '0' && c <= '9'

let kind_of_string s =
  let param ~what ~default rest =
    match rest with
    | None -> Ok default
    | Some n when n = "" || not (String.for_all is_digit n) ->
        (* [int_of_string_opt] would also take 0x10, 0b11, +4 or 4_0. *)
        Error
          (Printf.sprintf "%s wants a count in 1-%d in decimal digits, got %S"
             what max_count n)
    | Some n -> (
        match int_of_string_opt n with
        | Some v when v > 0 && v <= max_count -> Ok v
        | Some _ | None ->
            Error
              (Printf.sprintf "%s wants a count in 1-%d, got %S" what max_count
                 n))
  in
  let name, rest =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  match name with
  | "shared" -> (
      match rest with
      | None -> Ok Shared
      | Some _ -> Error "shared takes no parameter")
  | "crossbar" | "xbar" ->
      Result.map
        (fun banks -> Crossbar { banks })
        (param ~what:"crossbar" ~default:default_banks rest)
  | "hier" | "hierarchical" ->
      Result.map
        (fun clusters -> Hierarchical { clusters })
        (param ~what:"hier" ~default:default_clusters rest)
  | _ ->
      Error
        (Printf.sprintf
           "unknown topology %S (expected shared, crossbar[:banks] or \
            hier[:clusters])" s)

type t =
  | Sh of Arbiter.t
  | Xbar of { arbs : Arbiter.t array; banks : int }
  | Hier of { locals : Arbiter.t array; root : Arbiter.t; clusters : int }

let create ?(obs = Obs.Trace.null) ?(faults = Fault.Injector.none) ~sched ~kind
    p =
  (match kind with
  | Shared -> ()
  | Crossbar { banks = n } | Hierarchical { clusters = n } ->
      if n <= 0 || n > max_count then
        invalid_arg
          (Printf.sprintf "Topology.create: %s needs a count in 1-%d"
             (kind_to_string kind) max_count));
  match kind with
  | Shared -> Sh (Arbiter.create ~obs ~faults ~sched p)
  | Crossbar { banks } ->
      Xbar
        { arbs = Array.init banks (fun _ -> Arbiter.create ~obs ~faults ~sched p);
          banks }
  | Hierarchical { clusters } ->
      (* Only the root arbiter observes and draws faults: a transaction
         traverses one local arbiter and the root, and emitting (or drawing a
         fault) at both levels would double-count a single transfer.  A
         local grant crosses the uplink to the root inside the arbiter, and
         the root adds the hop back to every completion. *)
      let root =
        Arbiter.create ~obs ~faults ~return_latency:uplink_latency ~sched p
      in
      Hier
        { locals =
            Array.init clusters (fun cluster ->
                Arbiter.create
                  ~uplink:{ Arbiter.root; as_src = cluster; hop = uplink_latency }
                  ~sched p);
          root;
          clusters }

let kind = function
  | Sh _ -> Shared
  | Xbar { banks; _ } -> Crossbar { banks }
  | Hier { clusters; _ } -> Hierarchical { clusters }

let targets = function
  | Sh _ -> 1
  | Xbar { banks; _ } -> banks
  | Hier _ -> 1

let target_for t ~addr =
  match t with
  | Sh _ | Hier _ -> 0
  | Xbar { banks; _ } -> addr / bank_interleave mod banks

let home_target t ~src =
  match t with Sh _ | Hier _ -> 0 | Xbar { banks; _ } -> src mod banks

let request t ~src ~target ~at ~beats ~is_read ~extra_latency ~on_grant =
  let arb =
    match t with
    | Sh a -> a
    | Xbar { arbs; banks } -> arbs.(target mod banks)
    | Hier { locals; clusters; _ } -> locals.(src mod clusters)
  in
  Arbiter.request arb ~src ~at ~beats ~is_read ~extra_latency ~on_grant

let total_beats = function
  | Sh a -> Arbiter.total_beats a
  | Xbar { arbs; _ } ->
      Array.fold_left (fun acc a -> acc + Arbiter.total_beats a) 0 arbs
  | Hier { root; _ } -> Arbiter.total_beats root
