(** Deterministic crash recovery.

    Composes the crash-safety pieces: restore the latest valid
    {!Snapshot}, merge the {!Journal} suffix recorded after its checkpoint
    marker (exactly-once: replayed alerts claim their journaled twins), and
    replay the {!Trace} records timestamped strictly after the snapshot,
    with the journaled extension records, in one {!Trace.play} pass.
    The recovered engine's {!Snapshot.digest} equals that of a run that
    never crashed — the convergence property the test suite checks. *)

type outcome = {
  engine : Engine.t;
  sched : Dsim.Scheduler.t;
  snapshot_seq : int;
  snapshot_at : Dsim.Time.t;
  journal_alerts : int;  (** Journal alerts merged ahead of replay. *)
  journal_evictions : int;  (** Journaled reclamations in the suffix (informational). *)
  journal_exts : int;  (** Extension records handed to [on_ext]. *)
  replayed : int;
      (** Trace records stamped after the snapshot instant: the replay
          suffix, counted whole even when [until] cuts it short. *)
}

val recover :
  ?config:Config.t ->
  ?prepare:(Dsim.Scheduler.t -> Engine.t -> unit) ->
  ?on_ext:(tag:string -> payload:string -> unit) ->
  ?gate:(Dsim.Packet.t -> unit) ->
  ?journal:Journal.entry list ->
  ?trace:Trace.record list ->
  ?until:Dsim.Time.t ->
  Snapshot.t ->
  (outcome, string) result
(** Pure-data recovery, in order: restore the snapshot; run [prepare] on
    the restored engine; merge the journal's alerts; then one
    {!Trace.play} pass over the trace suffix and the journal's
    {!Journal.Ext} entries in time order; then run the clock to [until].
    [prepare] is the hook telemetry uses to re-attach its registry before
    any replayed packet lands, and an enforcement layer uses to rebuild
    its tables from the snapshot's extension records.  [on_ext] receives
    each [Ext] entry when the pass reaches its instant, ordered by
    {!Trace}'s rule.  Replayed alerts are claimed exactly-once and never
    re-notify listeners, so decisions taken on them live must be
    restored from the journal, not re-derived.  [gate] takes each
    replayed delivery (see {!Trace.player}) so a gate that dropped
    packets live drops the same packets again.  Nothing stamped after
    [until] is replayed; omit it to drain the queue — but beware that
    configs with a periodic sweep re-arm it forever, so bound governed
    runs. *)

type file_report = {
  outcome : outcome;
  snapshot_path : string;  (** The snapshot actually used. *)
  used_fallback : bool;  (** True when the primary was rejected and [path.1] used. *)
  rejected : (string * string) list;
      (** Snapshots rejected before one loaded, with diagnostics. *)
  journal_skipped : (int * string) list;  (** Torn/corrupt journal lines skipped. *)
  trace_skipped : (int * string) list;
      (** Capture frames skipped, as [(frame, reason)]: each frame the
          pcap decoder rejected, and a truncated tail (a record torn by
          a crash mid-write) last.  See {!Pcap.read_file}. *)
}

val recover_files :
  ?config:Config.t ->
  ?prepare:(Dsim.Scheduler.t -> Engine.t -> unit) ->
  ?on_snapshot:(Snapshot.t -> unit) ->
  ?on_ext:(tag:string -> payload:string -> unit) ->
  ?gate:(Dsim.Packet.t -> unit) ->
  ?journal_path:string ->
  ?trace_path:string ->
  ?until:Dsim.Time.t ->
  snapshot_path:string ->
  unit ->
  (file_report, string) result
(** File-level recovery with fault tolerance end to end: a corrupted or
    truncated primary snapshot falls back to the rotated
    [Snapshot.previous_path]; the journal and the capture (a pcap file,
    read by {!Pcap.read_file}) are loaded leniently, and a missing one is
    treated as empty.  [on_snapshot] sees the loaded snapshot (after
    fallback selection, before any restore) — the hook for reading its
    {!Snapshot.ext} records.  [Error] when no snapshot at all can be
    validated, or when the capture cannot be read or is not a pcap file
    (the message names it). *)
