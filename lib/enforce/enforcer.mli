(** Prevention mode: the policy layer that turns alerts into enforcement.

    Subscribes to the engine's distinct-alert stream and reacts per kind:

    - [Invite_flood] → drop the flooding source host.
    - [Media_spam] → drop the spamming media endpoint.
    - [Rtp_flood] → rate-limit the flooding media endpoint.
    - [Call_hijack], [Cancel_dos], [Registration_hijack] → tear the
      victim call down {e and} drop the attacking source host.
    - [Bye_dos], [Billing_fraud] → tear the call down only: the packet
      being analyzed when these fire can come from the {e legitimate}
      party (a replayed/spoofed BYE names real participants), so blocking
      its source would punish the victim.
    - [Drdos] → rate-limit all traffic toward the victim host, with
      {e escalation}: any source that trips the limiter earns its own
      drop rule; the reflector source of the triggering packet is dropped
      outright.
    - Parse failures → drop the sending endpoint: the gate charges each
      packet the engine counts as malformed to its source endpoint
      ({!Source_key.of_addr}, in virtual time), and the 8th within 10 s
      of the endpoint's first installs a [Drop] rule for [block_ttl] with
      reason [malformed-source].  The gate counts packets, not alerts:
      the spec deviation a parse failure raises is reported once per
      source.
    - Health alerts ([Engine_fault], [Resource_pressure],
      [Spec_deviation]) → never enforced on: they describe the engine,
      not an attacker, and acting on them would let a fault turn into an
      outage.

    The malformed-source rule is a decision like the others, so it
    exists only in prevention mode ([--enforce]).  Without a gate the
    sensor is the paper's passive monitor: it drops nothing it received
    but what the daemon's load shedding sheds, and a malformed datagram
    is parsed, counted and reported as a spec deviation, whatever its
    source sent before.

    Attribution uses the packet under analysis: alerts fire synchronously
    inside {!Vids.Engine.process_packet}, so the gate records the current
    packet before injecting and the listener reads its source — the
    attacker-controlled address that tripped the machine.

    Fault tolerance is the other half of the contract: every install,
    teardown and lockdown transition is journaled ({!Vids.Journal.Ext},
    tag {!ext_tag}) and the full table (including token-bucket levels
    and strike counts) rides in each snapshot, so a [kill -9] recovers
    into the same enforcement state — see {!Recover}. *)

type policy = {
  block_ttl : Dsim.Time.t;  (** Rule lifetime; refreshes extend it. *)
  rate_pps : int;  (** Sustained packets/second for rate-limit rules. *)
  rate_burst : int;
  fail_closed : bool;
      (** What enforcement does when it cannot do its job: [true] locks
          the gate down (drop everything) on rule-table overflow or a
          corrupt recovery payload; [false] (default) fails open —
          detection continues, enforcement degrades. *)
  max_rules : int;  (** Bounds the rule table, and the strike counts. *)
}

val default_policy : policy
(** 60 s TTL, 50 pps / burst 100, fail-open, 4096 rules. *)

type t

val ext_tag : string
(** ["enforce"] — the snapshot-extension and journal-extension tag. *)

val create :
  ?policy:policy ->
  ?journal:(Vids.Journal.entry -> unit) ->
  Dsim.Scheduler.t ->
  Vids.Engine.t ->
  t
(** Attaches the alert listener.  [journal] receives an [Ext] entry for
    every enforcement decision (installs, teardowns, lockdown) —
    write-ahead, exactly like alerts. *)

val table : t -> Block_table.t

val ingest : t -> Dsim.Packet.t -> bool
(** The gated tap: decides, then delivers to the engine only on [Pass],
    charging the packet's source if the engine could not parse it.
    Returns whether the packet was delivered.  This is the {e only} entry
    point prevention mode routes packets through — shaped for
    [Dsim.Network.set_tap] (ignore the result) and for the daemon's
    dispatch loop (count it). *)

type stats = {
  passed : int;
  blocked : int;  (** Packets stopped at the gate (drop + limit + lockdown). *)
  teardowns : int;
  table : Block_table.stats;
}

val stats : t -> stats

val digest : t -> string
(** {!Block_table.digest} at the current virtual time. *)

val rules_text : t -> string
(** {!Block_table.to_text} at the current virtual time. *)

val rules_json : t -> string

(** {1 Crash safety} *)

val snapshot_payload : t -> string
(** The table serialized at the current virtual time: the payload of the
    {!ext_tag} checkpoint extension. *)

val ext : t -> (string * string) list
(** [[(ext_tag, snapshot_payload t)]]: the checkpoint extension records,
    shaped for [Vids.Checkpoint.set_ext]. *)

val restore : t -> payload:string -> (unit, string) result
(** Replaces the table from a snapshot payload.  Under a [fail_closed]
    policy a corrupt payload locks the gate down (and still returns the
    [Error]); fail-open starts empty. *)
