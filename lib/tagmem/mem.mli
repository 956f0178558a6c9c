(** Tagged physical memory.

    A flat byte-addressable memory plus the out-of-band capability tag store:
    one tag bit per 16-byte granule, held in a shadow array that ordinary data
    reads and writes can never address (the paper's "shadow section of memory
    that is off-limits to normal memory access").

    The unforgeability mechanism is enforced here: {e any} raw write — in
    particular accelerator DMA — clears the tag of every granule it touches.
    Only {!store_cap}, reachable solely from capability-aware agents (the CPU
    model and the test bench), can set a tag.

    Data is demand-paged: 64 KiB pages are allocated on first write and an
    absent page reads as zeros, so a fresh memory costs its flat tag store
    plus the pages a run actually writes.  Zero-filling an absent page (the
    driver's teardown scrub) allocates nothing. *)

type t

val granule : int
(** Bytes covered by one tag bit (16 = one 128-bit capability). *)

val create : size:int -> t
(** Zero-filled memory of [size] bytes (rounded up to a whole granule). *)

val size : t -> int

exception Out_of_range of { addr : int; size : int }
(** Raised on any access outside [0, size).  The interconnect decodes
    addresses before they reach memory, so in a full system this models a bus
    error. *)

(** {1 Raw (tag-clearing) data access} *)

val read_bytes : t -> addr:int -> size:int -> bytes
val write_bytes : t -> addr:int -> bytes -> unit

val read_u8 : t -> addr:int -> int
val write_u8 : t -> addr:int -> int -> unit
val read_u32 : t -> addr:int -> int
val write_u32 : t -> addr:int -> int -> unit
val read_u64 : t -> addr:int -> int64
val write_u64 : t -> addr:int -> int64 -> unit
val read_f32 : t -> addr:int -> float
val write_f32 : t -> addr:int -> float -> unit
val read_f64 : t -> addr:int -> float
val write_f64 : t -> addr:int -> float -> unit

val fill : t -> addr:int -> size:int -> char -> unit
(** Scrub a region (tag-clearing, like any write). *)

val unsafe_write_preserving_tags : t -> addr:int -> bytes -> unit
(** The {e naive} DMA write path: modifies data without touching granule
    tags.  This models a CHERI-unaware accelerator wired straight into
    tag-carrying memory — the integration mistake of Figure 1(a) that makes
    capabilities forgeable (an attacker rewrites the 128 bits underneath a
    still-set tag).  Only the unguarded system configuration and the attack
    test-bench use it; every protected path goes through {!write_bytes}. *)

(** {1 Capability access (CHERI-aware agents only)} *)

val store_cap : t -> addr:int -> Cheri.Cap.t -> unit
(** Store the 128-bit encoding at a 16-byte-aligned address and set the
    granule's tag to the capability's tag bit.
    Raises [Invalid_argument] on misalignment. *)

val load_cap : t -> addr:int -> Cheri.Cap.t
(** Load 128 bits plus the tag from a 16-byte-aligned address.  If the granule
    tag is clear the result is untagged (whatever bytes sit there do not form
    a usable capability). *)

val tag_at : t -> addr:int -> bool
(** The tag bit of the granule containing [addr]. *)

val count_tags : t -> int
(** Number of set tag bits (test observability). *)
