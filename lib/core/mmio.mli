(** The CapChecker's register-level programming interface.

    The driver does not call into the CapChecker — it writes memory-mapped
    registers over the dedicated capability interconnect (top of Figure 2).
    This module is that register file: a word-addressed window decoded into
    the operations of {!Checker}.  {!Driver} programs the hardware through
    these registers; the cycle costs it charges are exactly one bus write per
    register touched.  The registers are stored as bytes, so the driver's
    sequences ({!install}, {!evict_task}, {!exception_pending}) box no
    register word: a warm install allocates only the capability it decodes
    from the staging registers and what the table keeps for it.

    Register map (64-bit registers, byte offsets from the window base):

    {v
    0x00  CAP_LO      write: low 64 bits of the staged capability
    0x08  CAP_HI      write: high 64 bits of the staged capability
    0x10  CAP_TAG     write: tag bit of the staged capability (bit 0)
    0x18  KEY         write: task id in [63:32], object id in [31:0]
    0x20  COMMAND     write: 1 = install staged capability under KEY
                             2 = evict KEY
                             3 = evict every entry of KEY's task
                             4 = clear the exception flag
    0x28  STATUS      read:  bit 0 = global exception flag
                             bit 1 = last command rejected (full/untagged)
                             [63:32] = live entry count
    0x30  EXC_KEY     read:  key (format of KEY) of the lowest-numbered
                             table slot whose exception bit is set and
                             not yet read here; all-ones when none.
                             Each setting of a bit is read once.
    v}

    A malicious or buggy agent writing garbage through this window cannot
    forge authority: the staged capability's tag travels on the capability
    interconnect's tag wire ({!stage_raw} models a tag-less writer and can
    only ever stage untagged bits, which COMMAND=1 rejects). *)

type t

val create : Checker.t -> t
val checker : t -> Checker.t

val window_bytes : int
(** Size of the register window (one 4 KiB page). *)

(** {1 Bus-facing access} *)

val write : t -> offset:int -> int64 -> unit
(** Word write from the capability interconnect (the CPU side, which carries
    tags via {!stage_cap}).  Raises [Invalid_argument] on a misaligned or
    out-of-window offset; unknown registers are ignored (write-ignored), as
    hardware decodes them to nothing. *)

val read : t -> offset:int -> int64
(** Word read; undefined registers read as zero. *)

(** {1 Tag-carrying staging} *)

val stage_cap : t -> Cheri.Cap.t -> unit
(** Model of the CPU's capability store hitting CAP_LO/CAP_HI/CAP_TAG in one
    tagged 128-bit transfer — the only way a {e valid} capability enters the
    staging registers. *)

val stage_raw : t -> lo:int64 -> hi:int64 -> unit
(** Byte-level writes of the same registers from a tag-less master: the
    staged value is forcibly untagged (forgery through the window is
    impossible by construction). *)

(** {1 Register offsets (for drivers and tests)} *)

val reg_cap_lo : int
val reg_cap_hi : int
val reg_cap_tag : int
val reg_key : int
val reg_command : int
val reg_status : int
val reg_exc_key : int

val cmd_install : int64
val cmd_evict : int64
val cmd_evict_task : int64
val cmd_clear_flag : int64

val key_of : task:int -> obj:int -> int64
val split_key : int64 -> int * int

(** {1 Driver convenience} *)

val install : t -> task:int -> obj:int -> Cheri.Cap.t -> (unit, string) result
(** The full register sequence (stage + key + command + status check);
    costs 5 register accesses on the bus. *)

val evict_task : t -> task:int -> unit
(** KEY := (task, 0), COMMAND := evict-task: the teardown sequence. *)

val exception_pending : t -> bool
(** A STATUS read, returning its bit 0 (the global exception flag). *)

val last_rejected : t -> bool
