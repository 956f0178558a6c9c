(** CHERI capabilities: tagged, bounded, permission-carrying fat pointers.

    This is the architectural (uncompressed) view of a capability — Figure 3 of
    the paper.  The in-memory 128-bit form lives in {!Compress}; bounds set
    through {!set_bounds} are always {e representable}, i.e. they survive an
    encode/decode round trip exactly.

    Two deliberate simplifications against full CHERI, both conservative
    (they can only deny more, never less):
    - {!set_address} clears the tag when the new address falls outside the
      bounds, instead of tracking the small out-of-bounds representable region;
    - sealed object types are a flat 18-bit space with no [otype] reservations.

    All addresses and lengths are in bytes and must fit the simulated physical
    address space ({!max_address_bits} bits). *)

type kind = Read | Write | Exec
(** The three request kinds checked against [load]/[store]/[execute]. *)

type error =
  | Tag_violation        (** capability is untagged (invalid) *)
  | Seal_violation       (** sealed capability used for memory access *)
  | Perm_violation of Perms.t  (** a required permission is missing *)
  | Bounds_violation of { addr : int; size : int }
      (** the access [addr, addr+size) escapes [base, top) *)
  | Monotonicity_violation
      (** a derivation attempted to grow bounds or gain permissions *)
  | Representability_error
      (** requested exact bounds cannot be encoded in 128 bits *)

val error_to_string : error -> string

type t = private {
  tag : bool;
  perms : Perms.t;
  otype : int;  (** 0 = unsealed; 1..2^18-1 = sealed object types *)
  base : int;   (** inclusive lower bound *)
  top : int;    (** exclusive upper bound *)
  addr : int;   (** current cursor *)
}

val max_address_bits : int
(** Width of the simulated physical address space (56, matching the paper's
    Coarse-mode layout that reserves the top 8 bits of a 64-bit address). *)

val max_address : int
(** [2^max_address_bits]. *)

val root : t
(** The boot-time root capability: whole address space, all permissions,
    address 0.  Creating it is the OS's privilege; the simulator's "OS" is the
    test/driver code. *)

val null : t
(** The untagged null capability (all fields zero). *)

val is_sealed : t -> bool
val length : t -> int

val set_bounds : t -> base:int -> length:int -> (t, error) result
(** [set_bounds c ~base ~length] derives a child whose bounds are the requested
    region rounded outward to the nearest representable bounds (CSetBounds).
    Fails with [Monotonicity_violation] if the rounded region escapes [c]'s
    bounds, [Tag_violation]/[Seal_violation] on an invalid or sealed parent.
    The child's address is [base]. *)

val set_bounds_exact : t -> base:int -> length:int -> (t, error) result
(** Like {!set_bounds} but fails with [Representability_error] instead of
    rounding (CSetBoundsExact). *)

val set_address : t -> int -> t
(** Move the cursor.  Clears the tag if the new address is outside
    [base, top] (conservative out-of-bounds handling). *)

val with_perms : t -> Perms.t -> (t, error) result
(** [with_perms c p] intersects permissions (CAndPerm): the result carries
    [inter p c.perms].  Fails on untagged or sealed input. *)

val restrict : t -> base:int -> length:int -> perms:Perms.t -> t
(** [restrict c ~base ~length ~perms] is [set_bounds_exact] then
    [with_perms perms], for a caller that shaped the region to be exactly
    representable inside [c] (the driver, which pads every buffer with
    {!Bounds_enc.malloc_shape}): it allocates only the result.
    @raise Invalid_argument where either step would return an error. *)

val seal_with : t -> sealer:t -> (t, error) result
(** Seal [c] with the sealing capability [sealer]: the result's otype is
    [sealer.addr], which must be a valid nonzero otype within [sealer]'s
    bounds, and [sealer] needs the [seal] permission. *)

val unseal_with : t -> unsealer:t -> (t, error) result
(** Inverse of {!seal_with}; [unsealer] needs [unseal] permission and its
    address must equal the sealed otype. *)

val clear_tag : t -> t
(** The result of any non-capability-aware write over a capability. *)

val access_ok : t -> addr:int -> size:int -> kind -> (unit, error) result
(** The dereference check applied on every memory access: valid tag, unsealed,
    the right permission for [kind], and [addr, addr+size) within bounds. *)

val derives : parent:t -> t -> bool
(** [derives ~parent c]: [c]'s bounds and permissions are within [parent]'s —
    the invariant every legal derivation chain preserves. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(**/**)

val unsafe_make :
  tag:bool -> perms:Perms.t -> otype:int -> base:int -> top:int -> addr:int -> t
(** Forge an arbitrary capability, bypassing every check.  Exists for two
    legitimate users only: {!Compress.decode}/{!Compress.load} and attack construction in the
    security test-bench (a forged capability must be expressible in order to
    show it is rejected).  Never used by the driver or CapChecker. *)
