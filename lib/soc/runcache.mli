(** On-disk, cross-process extension of {!Run}'s whole-run memo.

    Opt-in: disabled until {!set_dir} names a directory (the [--cache-dir]
    flag on [capsim] and the bench harness).  Entries are keyed by the
    digest of the marshalled memo key combined with a digest of the running
    binary, so results never survive a rebuild.  Each file carries a magic,
    the binary stamp, the payload length and the payload's MD5, all checked
    before the payload is unmarshalled, so a truncated, altered or foreign
    file — like any I/O failure — degrades to a miss.  Only results eligible for the in-memory memo (no
    observability sink, no fault plan) ever reach the disk — {!Run} enforces
    the gate. *)

val set_dir : string option -> unit
(** Enable (or disable with [None]) the cache.  The directory is created on
    first store. *)

val dir : unit -> string option

val load : 'k -> 'v option
(** Look up the entry stored under (marshalled) key ['k].  Bumps
    {!Obs.Counters.runs_disk_cached} on a hit.  The caller must only ever
    associate one type ['v] with a given key type — the binary stamp pins
    the producing executable, which pins the layout. *)

val store : 'k -> 'v -> unit
(** Persist atomically (temp file + rename); concurrent writers race
    benignly.  Failures are silent and leave no temp file behind — the cache
    is an accelerator, never a correctness dependency. *)
