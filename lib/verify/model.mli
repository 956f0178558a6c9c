(** The small-state system model of the bounded-exhaustive verifier.

    A {!scenario} is pure data: one finite configuration of the protection
    hardware (checker mode, checking placement, interconnect label, grant
    map, fault/elision/mutation knobs) plus one short straight-line program
    per source.  Sources [0 .. accels-1] are accelerator tasks issuing DMA
    accesses; source [accels] is the trusted driver issuing table mutations.
    {!Harness} executes a scenario; {!Explore} enumerates its interleavings.

    A scenario and a schedule round-trip through a compact replay token,
    which is what makes every counterexample a deterministic
    [capsim verify --replay] reproduction. *)

type mutation =
  | M_none
  | M_ghost_exn
      (** evict leaves the denied entry's exception bit set for the next
          install of the key (the slot-reuse bug class: the exception bit not
          cleared on evict) *)
  | M_wide_bounds
      (** installs widen the capability by one object length *)
  | M_skip_revoke
      (** a revocation-epoch bump never reaches the checker *)
  | M_elide_unproven
      (** check elision applied to every task, proven or not *)

val mutations : (string * mutation) list
val mutation_to_string : mutation -> string
val mutation_of_string : string -> (mutation, string) result

type perm = Ro | Rw

val perm_to_string : perm -> string

type op =
  | Access of { obj : int; off : int; len : int; write : bool }
      (** a DMA access by the issuing source's task, [off]/[len] relative to
          the object's base *)
  | Install of { task : int; obj : int; perm : perm }
  | Evict of { task : int; obj : int }
  | Revoke of { task : int }  (** epoch bump: evict every entry of [task] *)

type scenario = {
  sc_mode : Capchecker.Checker.mode;
  sc_checkers : Capchecker.Shim.checking;
  sc_topology : Bus.Topology.kind;
  sc_accels : int;
  sc_objs : int;
  sc_obj_len : int;  (** bytes per object; objects tile the address space *)
  sc_grants : (int * int * perm) list;  (** boot-installed (task, obj, perm) *)
  sc_elide : bool;  (** elide checks for statically proven tasks *)
  sc_fault_install : int option;
      (** driver-install ordinal forced to report [Table_full] *)
  sc_mutation : mutation;
  sc_programs : op list array;  (** per source; driver last *)
}

val sources : scenario -> int
val driver_src : scenario -> int
val obj_base : scenario -> int -> int

val mode_to_string : Capchecker.Checker.mode -> string
val mode_of_string : string -> (Capchecker.Checker.mode, string) result

val op_to_string : op -> string
val op_pretty : int -> op -> string
(** [op_pretty src op] — human-readable, for counterexample traces. *)

val default_programs :
  accels:int -> objs:int -> obj_len:int -> depth:int -> op list array
(** The canonical probe programs: each accelerator reads its own object in
    bounds, writes across its top boundary and reaches into a neighbour; the
    driver revokes task 0 mid-flight, re-grants it and churns the last
    task's entry.  [depth] truncates every program uniformly. *)

val statically_proven : scenario -> int -> bool
(** The elision side-condition: every access of the task lies inside a boot
    grant and no driver op mutates the task's entries during the run. *)

val elided : scenario -> int -> bool
(** Whether a source runs with per-access checks elided: an accelerator that
    is {!statically_proven} under [sc_elide], or any accelerator under
    [M_elide_unproven]. *)

val token_of : scenario -> int list -> string
val of_token : string -> (scenario * int list, string) result
(** Round-trip: [of_token (token_of sc sched) = Ok (sc, sched)].  Parsing
    validates bounds and that the schedule matches the programs. *)
