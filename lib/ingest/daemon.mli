(** The live-ingestion daemon: sources → quarantine → shed queue →
    clock bridge → engine.

    This is the composition root of [lib/ingest]: it owns the single
    ingestion loop that polls every source, admits datagrams through the
    per-source {!Quarantine} and the watermarked {!Shed_queue}, bridges
    the wall clock onto the virtual clock, and dispatches each record
    into a {!Vids.Engine} through {!Vids.Trace.step}, the step offline
    replay and recovery use, so a live run orders every instant as they
    do and converges to the same digest as a replay of its own
    capture.

    Robustness contract:
    - Parse failures are counted and charged to the sending transport
      address (quarantining repeat offenders), never fatal.
    - Socket errors retry with capped exponential backoff under a
      budget ({!Udp_source}); a dead source stops the daemon only when
      no source remains.
    - A cooperative [stop] flag (the signal handler's write) triggers a
      graceful drain: queued records dispatched, a final checkpoint
      saved, the journal fsynced and closed, the flight recorder
      dumped.
    - A [hard_kill] flag models [kill -9]: the loop returns
      immediately, skipping every cleanup step, leaving recovery to
      {!Vids.Recovery} over the snapshot + journal + capture files. *)

type source =
  | Pcap_file of { path : string; pace : bool }
      (** Stream a capture file; with [pace], sleep so records enter at
          their recorded inter-arrival times (soak realism) instead of
          as fast as the disk reads. *)
  | Udp of Udp_source.t  (** A live listener, already bound. *)

type config = {
  engine_config : Vids.Config.t option;
  spec_overrides : (string * Efsm.Machine.spec) list;
      (** [.vspec]-loaded machine replacements, keyed by machine name;
          see {!Vids.Spec_load.load_files}. *)
  queue_capacity : int;
  queue_high_water : int option;  (** Default: {!Shed_queue.create}'s 3/4. *)
  checkpoint_every_s : float;  (** <= 0 disables periodic checkpoints. *)
  snapshot_path : string option;
  journal_path : string option;
  record_path : string option;
      (** Capture every dispatched record to this pcap file ({!Vids.Pcap}),
          stamped with the instant it was dispatched at: the header is
          written and flushed at start, each checkpoint flushes the
          frames before it. *)
  max_runtime_s : float option;  (** Wall-clock deadline ([run --max-runtime]). *)
  batch : int;  (** Max records pulled per source per loop turn. *)
  poll_interval_s : float;  (** Idle nap when every source is dry. *)
  enforce : Enforce.Enforcer.policy option;
      (** Prevention mode: route every dispatch through an
          {!Enforce.Enforcer} gate whose decisions are journaled through
          the daemon's writer and checkpointed as a snapshot extension.
          Records are still written to [record_path] {e regardless} of
          the gate's verdict, so an offline replay of the capture makes
          the same drop decisions and converges to the same digest. *)
}

val default : config
(** 4096-deep queue, 5 s checkpoints (when [snapshot_path] is set),
    batch 256, 10 ms poll.  Quarantine always runs at
    {!Quarantine.create}'s defaults: 8 errors in 10 s, then a 30 s
    block. *)

type stop_reason =
  | Eof  (** Every file source exhausted (and no socket still alive). *)
  | Signalled  (** The [stop] flag: SIGINT/SIGTERM graceful drain ran. *)
  | Deadline  (** [max_runtime_s] elapsed (graceful drain ran). *)
  | Source_dead  (** A socket source spent its reopen budget; none left. *)
  | Killed  (** The [hard_kill] flag: no drain, no checkpoint, no close. *)

type report = {
  stop_reason : stop_reason;
  dispatched : int;  (** Records fed to the engine. *)
  parse_errors : int;  (** Engine-side malformed packets, attributed here. *)
  checkpoints : int;
  queue : Shed_queue.stats;
  quarantine : Quarantine.stats;
  pcap : (string * Vids.Pcap.stats) list;  (** Per capture file, in source order. *)
  udp : Udp_source.stats list;  (** Per socket, in source order. *)
  dispatch : Dsim.Stat.Quantiles.t;
      (** Wall-clock seconds per dispatch ({!Vids.Trace.step}: timers
          due before the record, then its analysis). *)
  horizon : Dsim.Time.t;  (** Final virtual time. *)
  engine : Vids.Engine.t;
  sched : Dsim.Scheduler.t;
  enforcer : Enforce.Enforcer.t option;  (** Present iff [config.enforce] was. *)
}

val run :
  ?clock:Clock.t ->
  ?metrics:Obs.Metrics.t ->
  ?flight:Obs.Trace.t ->
  ?prof:Obs.Prof.t ->
  ?stop:bool ref ->
  ?hard_kill:bool ref ->
  ?on_batch:(unit -> unit) ->
  config ->
  source list ->
  (report, string) result
(** Runs the ingestion loop until a {!stop_reason} occurs.  [clock]
    defaults to {!Clock.system}; the tests and the benchmark pass
    {!Clock.manual} to run at memory speed.  [on_batch] fires once per
    loop turn — the tests' hook for sampling, stopping and killing.
    [prof] attaches an {!Obs.Prof} hot-path profiler: the daemon wraps
    source polling ([Ingest_poll] — includes
    pacing sleeps), each record dispatch ([Drive]), the enforcement gate
    ([Enforce_gate]), checkpoints ([Checkpoint]) and the journal's
    durability sync ([Journal_fsync]); the engine's parse/dispatch/detect
    spans nest inside.  [Error] is reserved for startup failures
    (unreadable capture, no sources); once the loop is entered every
    fault is contained and reported through the {!report}. *)
