(* Every engine, fast-path and event-fast-forward selector the benchmark
   touches lives in this file.  A change that deletes one of those selectors
   then needs a one-file benchmark edit, and the workloads stay oblivious to
   which timing core produced their results. *)

type t =
  | Default  (** what a plain [capsim] invocation runs *)
  | Fastpath_off  (** {!Soc.Fastpath.Interpretive}: no memo, no fast path *)
  | Event  (** the event engine wherever the default is legacy replay *)
  | Eventff_off  (** the event engine with event fast-forward off *)

let all = [ Default; Fastpath_off; Event; Eventff_off ]

let name = function
  | Default -> "default"
  | Fastpath_off -> "fastpath_off"
  | Event -> "event"
  | Eventff_off -> "eventff_off"

let of_string s = List.find_opt (fun l -> name l = s) all

(* Called once, at the start of a child process, before any simulation: the
   modes are process-global cells. *)
let apply = function
  | Default | Event -> ()
  | Fastpath_off -> Soc.Fastpath.set_mode Soc.Fastpath.Interpretive
  | Eventff_off -> Ccsim.Eventff.set_mode Ccsim.Eventff.Off

(* Non-shared topologies need the event engine whatever the leg. *)
let engine leg topology =
  match (leg, topology) with
  | _, (Bus.Topology.Crossbar _ | Bus.Topology.Hierarchical _)
  | (Event | Eventff_off), Bus.Topology.Shared ->
      Soc.Run.Event_driven
  | (Default | Fastpath_off), Bus.Topology.Shared -> Soc.Run.Legacy_replay

let run leg ?tasks ?instances ?cc_entries ?obs ?faults
    ?(topology = Bus.Topology.Shared) ?checkers config bench =
  Soc.Run.run ?tasks ?instances ?cc_entries ?obs ?faults
    ~engine:(engine leg topology) ~topology ?checkers config bench

(* The event engine on every topology, the shared bus included, whatever
   the leg: the interconnect workload measures that engine. *)
let run_event ?tasks ?instances ?cc_entries ~topology ~checkers config bench =
  Soc.Run.run ?tasks ?instances ?cc_entries ~engine:Soc.Run.Event_driven
    ~topology ~checkers config bench

let run_mixed leg config benches =
  Soc.Run.run_mixed ~engine:(engine leg Bus.Topology.Shared) config benches
