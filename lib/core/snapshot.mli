(** Versioned, checksummed snapshots of the full engine state.

    A snapshot is the checkpoint half of the crash-safety story: it captures
    every piece of engine state an uninterrupted run depends on — per-call
    EFSM systems (current states, variable vectors, queued synchronization
    events, armed timers with absolute deadlines), standalone detector
    machines, fact-base counters and eviction order, engine counters, the
    cost model, the alert log and dedup set, and degradation history.

    The on-disk format is a line-oriented text file with a version header
    ([VIDS-SNAPSHOT 1 <seq> <at_us>]) and an [END <crc32> <length>] trailer.
    {!of_string} is total: truncation, bit corruption and version skew are
    reported as [Error] with a diagnostic, never as an exception or a
    partially applied state.

    Serialization is canonical — records in creation order, bindings sorted —
    so two engines that analyzed the same traffic produce byte-identical
    snapshots.  {!digest} exploits this to measure post-recovery divergence,
    which must be zero. *)

type t

val capture : ?seq:int -> ?ext:(string * string) list -> at:Dsim.Time.t -> Engine.t -> t
(** Photographs the engine at virtual time [at] (pass the scheduler's
    current time).  [seq] is the checkpoint sequence number used to pair the
    snapshot with its journal marker; defaults to 0.  [ext] carries opaque
    (tag, payload) records for subsystems layered on top of the engine
    (e.g. enforcement state): they are serialized after the engine's own
    records, covered by the CRC, and surfaced by {!ext} — the engine never
    interprets them. *)

val seq : t -> int

val at : t -> Dsim.Time.t
(** Virtual time of capture; recovery replays trace records strictly after
    this instant. *)

val ext : t -> (string * string) list
(** Extension records in serialization order; [[]] for snapshots taken
    without any. *)

val to_string : t -> string
(** Test seam: the file's bytes in memory, which the corruption tests
    damage. *)

val of_string : string -> (t, string) result
(** Test seam: reads bytes as {!load} reads a file, for the corruption
    tests.  Total parse with header, CRC and length verification. *)

val restore : ?config:Config.t -> t -> (Dsim.Scheduler.t * Engine.t, string) result
(** Rebuilds a live engine on a fresh scheduler advanced to the snapshot's
    time, re-arming each recorded timer at its absolute deadline as its
    call or detector is rebuilt, in the snapshot's order.  Replay then
    orders them against packets by [Trace]'s rule, not by when they were
    armed.  Internal inconsistencies (unknown machine, state, variable or
    transition names, or a history longer than the 64 entries an engine
    keeps — possible only if the file was hand-edited yet still checksums)
    come back as [Error]. *)

val save : path:string -> t -> unit
(** Writes the bytes of {!to_string}, streamed: the header, then the body
    32 KB at a time through one reusable chunk that also feeds a running
    CRC-32, then the trailer, so neither the body nor a copy of it is
    built whole.  Atomic durable write: the temp file is fsynced
    {e before} the rename
    (so a power loss cannot publish a zero-length or torn snapshot), the
    containing directory after it (so the rename itself survives).  An
    existing snapshot at [path] is rotated to [path ^ ".1"] first, so a
    crash torn mid-write always leaves one intact predecessor. *)

val previous_path : string -> string
(** Where {!save} rotates the prior snapshot: [path ^ ".1"]. *)

val load : string -> (t, string) result

val digest : at:Dsim.Time.t -> Engine.t -> string
(** Canonical serialization with the sequence number zeroed: two engines
    are in equivalent states iff their digests are equal. *)
