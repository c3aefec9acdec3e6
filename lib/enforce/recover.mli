(** Crash recovery with enforcement: {!Vids.Recovery.recover_files}
    plus the three hooks that restore prevention mode.

    The ordering burden lives here so callers cannot get it wrong:

    + the snapshot's [enforce] extension payload is stashed before any
      restore work ([on_snapshot]);
    + the enforcer is created and its table restored inside [prepare] —
      before the journal merge and the replay, so the gate exists (with
      the checkpoint's rules and token-bucket levels) when the first
      replayed packet arrives;
    + each journaled enforcement decision is applied when the replay
      reaches its recorded instant ([on_ext], {!Enforcer.apply_journal},
      ordered by {!Vids.Trace}'s rule), so the replayed packets up to it
      see the pre-decision table;
    + replay is routed through {!Enforcer.ingest} ([gate]) so packets
      the gate dropped live are dropped again instead of reaching the
      engine.

    The convergence property (checked by the enforcing daemon's kill -9
    test and the qcheck properties): the recovered engine digest {e and}
    the recovered enforcement digest equal those of a run that never
    crashed. *)

val recover_files :
  ?config:Vids.Config.t ->
  ?policy:Enforcer.policy ->
  ?journal:(Vids.Journal.entry -> unit) ->
  ?journal_path:string ->
  ?trace_path:string ->
  ?until:Dsim.Time.t ->
  snapshot_path:string ->
  unit ->
  (Vids.Recovery.file_report * Enforcer.t, string) result
(** [journal] is handed to {!Enforcer.create} so decisions taken {e after}
    recovery are journaled again (pass the daemon's writer).  A corrupt
    enforcement payload follows the policy's fail-open/fail-closed knob
    (see {!Enforcer.restore}) — it never fails the recovery itself. *)
