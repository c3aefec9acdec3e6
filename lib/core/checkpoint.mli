(** The checkpoint step: the one writer of checkpoints and their journal.

    The live daemon, [--checkpoint-interval] on [simulate], [detect] and
    [analyze], and the [profile] command all checkpoint through this
    module, so every checkpoint file and journal is written the same way
    and {!Recovery} has one format to read.  It owns the record tee too,
    because the tee is written ahead of the journal: every journal
    append flushes the tee first, so the capture holds every record
    whose alert or decision the journal holds.  A step runs, in order:

    + flush the record tee, so the capture is durable at least up to the
      snapshot instant (recovery replays the records after it);
    + {!Snapshot.capture} with the extension records from {!set_ext};
    + {!Snapshot.save}: atomic, durable, the previous file rotated to
      [.1];
    + a {!Journal.Checkpoint} marker, then a journal [fsync].

    The step runs inside the engine profiler's [checkpoint] span with the
    fsync in a nested [journal-fsync] span, and is recorded on the
    engine's flight recorder and metrics registry when those are
    attached.  The layer above the engine (enforcement) stays out of
    core: it journals through {!journal} and hands its state in as
    opaque extension records. *)

type t

val create :
  ?record_path:string ->
  ?counter:Obs.Metrics.counter ->
  ?snapshot_path:string ->
  ?journal_path:string ->
  Dsim.Scheduler.t ->
  Engine.t ->
  t
(** Opens the journal at [journal_path] (append, create) and subscribes
    it to the engine's alerts and evictions.  Without [snapshot_path]
    {!take} and {!arm} do nothing; without [journal_path] nothing is
    journaled.  [record_path] opens the record tee there: a pcap capture
    ({!Pcap}, truncated) whose header is on disk when [create] returns,
    so a kill at any point leaves a capture recovery can read.
    [counter] is ticked once per checkpoint saved.  With a snapshot path
    and a metrics registry on the engine, each step's wall-clock
    duration is observed into [vids_checkpoint_seconds].  Call after the
    engine's telemetry is attached. *)

val tee : t -> Pcap.writer option
(** The record tee.  Write each record to it before its step, stamped
    with the instant the step delivers it at ({!Trace.stamp}). *)

val journal : t -> Journal.entry -> unit
(** Flushes the tee, then appends one entry (write-ahead, flushed); a
    no-op without a journal.  Shaped for [Enforcer.create ~journal]. *)

val set_ext : t -> (unit -> (string * string) list) -> unit
(** The (tag, payload) extension records to store in every later
    snapshot, computed at capture time; none by default. *)

val take : t -> unit
(** Runs the checkpoint step at the scheduler's current time. *)

val arm : t -> every:Dsim.Time.t -> ?until:Dsim.Time.t -> unit -> unit
(** Takes a checkpoint every [every] of virtual time from now, each one
    arming the next, strictly before [until] (forever without it).  A
    non-positive period disarms. *)

val taken : t -> int
(** Checkpoints saved so far; also the last snapshot's sequence
    number. *)

val close : t -> unit
(** Fsyncs and closes the tee, then the journal. *)
