(** Crash recovery with enforcement: {!Vids.Recovery.recover_files}
    plus the hooks that restore prevention mode.

    The ordering burden lives here so callers cannot get it wrong:

    + the snapshot's [enforce] extension payload is stashed before any
      restore work ([on_snapshot]);
    + the enforcer is created and its table restored inside [prepare] —
      before the replay, so the gate exists (with the checkpoint's rules,
      token-bucket levels and strike counts) when the first replayed
      packet arrives; its journal is the recovery's audit sink, if the
      journal holds a decision after the checkpoint;
    + replay is routed through {!Enforcer.ingest} ([gate]) so packets
      the gate dropped live are dropped again instead of reaching the
      engine, and every replayed alert reaches the enforcer, which
      re-takes each decision inside the step of the packet that caused
      it, as live.  The journaled decisions are only compared with the
      re-taken ones ({!Vids.Recovery.outcome}'s [not_reproduced]).

    The convergence property (checked by the enforcing daemon's kill -9
    test and the qcheck properties): the recovered engine digest {e and}
    the recovered enforcement digest equal those of a run that never
    crashed. *)

val recover_files :
  ?config:Vids.Config.t ->
  ?policy:Enforcer.policy ->
  ?journal_path:string ->
  ?trace_path:string ->
  ?until:Dsim.Time.t ->
  snapshot_path:string ->
  unit ->
  (Vids.Recovery.file_report * Enforcer.t, string) result
(** A corrupt enforcement payload follows the policy's
    fail-open/fail-closed knob (see {!Enforcer.restore}) — it never fails
    the recovery itself. *)
