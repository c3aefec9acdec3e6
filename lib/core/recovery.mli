(** Deterministic crash recovery: one replay, audited by the journal.

    Restore the latest valid {!Snapshot}, then replay the capture's
    records timestamped strictly after it in one {!Trace.play} pass,
    every listener notified, so each alert and each decision taken on
    one is re-derived inside the step that caused it, as it was live.
    The recovered engine's {!Snapshot.digest} equals that of a run that
    never crashed — the convergence property the test suite checks.

    The {!Journal} is never applied.  The capture is written ahead of it,
    so the replay re-raises every alert, eviction and extension record
    the journal holds after the snapshot's checkpoint marker; an entry it
    does not reproduce is a finding, reported by its journal line.
    Without a capture nothing is replayed, so every such entry is
    reported: the recovered state is the snapshot's. *)

type outcome = {
  engine : Engine.t;
  sched : Dsim.Scheduler.t;
  snapshot_seq : int;
  snapshot_at : Dsim.Time.t;
  audited : int;
      (** Journal entries after the checkpoint marker, later markers
          excluded: what the replay was checked against. *)
  not_reproduced : (int * Journal.entry) list;
      (** Those the replay did not re-derive, by journal line, in order:
          within a kind (alert, eviction, extension record), each entry
          is sought in order among the replayed ones of its kind.
          Replayed entries past the journal's end are not listed. *)
  replayed : int;
      (** Trace records stamped after the snapshot instant: the replay
          suffix, counted whole even when [until] cuts it short. *)
}

val recover :
  ?config:Config.t ->
  ?prepare:(journal:(Journal.entry -> unit) option -> Dsim.Scheduler.t -> Engine.t -> unit) ->
  ?gate:(Dsim.Packet.t -> unit) ->
  ?journal:(int * Journal.entry) list ->
  ?trace:Trace.record list ->
  ?until:Dsim.Time.t ->
  Snapshot.t ->
  (outcome, string) result
(** Pure-data recovery, in order: restore the snapshot; run [prepare] on
    the restored engine; one {!Trace.play} pass over the trace suffix;
    then run the clock to [until]; then audit the replay against the
    [journal] (entries with their line numbers, see
    {!Journal.load_numbered}).  [prepare] is the hook telemetry uses to
    re-attach its registry before any replayed packet lands, and an
    enforcement layer uses to rebuild its tables from the snapshot's
    extension records; its [journal] is the sink the audit reads, for
    the entries the layer journals live ({!Journal.Ext}), and [None]
    when the suffix holds none, so the layer journals nothing.  The
    replay is collected only for the kinds of entry the suffix holds:
    with none, the audit costs nothing.  [gate] takes
    each replayed delivery (see {!Trace.player}) so a gate that dropped
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
  ?prepare:(journal:(Journal.entry -> unit) option -> Dsim.Scheduler.t -> Engine.t -> unit) ->
  ?on_snapshot:(Snapshot.t -> unit) ->
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
    validated, when the journal cannot be read, or when the capture
    cannot be read or is not a pcap file (the message names the
    file). *)
