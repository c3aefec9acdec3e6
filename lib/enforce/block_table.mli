(** The enforcement rule table: TTL'd per-source blocks and rate limits.

    Pure mechanism, no policy: callers ({!Enforcer}) decide {e what} to
    install in response to which alert; this module answers the per-packet
    question "may this datagram pass right now?" and keeps the table
    bounded, serializable and deterministic.

    Determinism is the design driver throughout, because the same
    decisions must replay identically during crash recovery:

    - TTLs are {e absolute} virtual-time deadlines, expired {e lazily} on
      lookup (plus an [O(n)] purge before each install) — there is no
      periodic expiry timer whose firing could interleave differently on
      replay.
    - Rate limiting uses float token buckets advanced by the virtual
      clock; bucket state round-trips exactly (hex float encoding)
      through checkpoints so a recovered gate makes the same pass/drop
      calls as the uninterrupted run.
    - {!install} is an idempotent upsert keyed by scope, so re-applying a
      journaled install after its live twin converges instead of
      duplicating.

    The canonical {!digest} covers the durable rule set (scopes, actions,
    deadlines, reasons) and excludes the volatile counters (hits, bucket
    levels, strikes) — it is the enforcement analogue of
    [Snapshot.digest]. *)

type scope =
  | Src of Source_key.t  (** Matches a datagram's source. *)
  | Dst of Source_key.t
      (** Matches a datagram's destination — protects a victim (e.g. a
          DRDoS reflection target) from {e all} sources. *)

type action =
  | Drop
  | Rate_limit of { pps : int; burst : int }
      (** Token bucket: sustained [pps] packets/second, bursts up to
          [burst].  A [Dst] rate limit buckets {e per offending source},
          so one noisy source cannot starve the rest. *)

type bucket = { mutable tokens : float; mutable last : Dsim.Time.t }

type rule = {
  scope : scope;
  mutable action : action;
  mutable installed_at : Dsim.Time.t;
  mutable expires_at : Dsim.Time.t;  (** Absolute; lazy expiry. *)
  mutable escalate : bool;
      (** On a [Dst] rate limit: a source that trips the limiter earns its
          own [Src] [Drop] rule (installed by the caller, who owns
          policy). *)
  mutable reason : string;  (** The alert that caused the rule. *)
  mutable hits : int;  (** Packets dropped or limited by this rule. *)
  serial : int;  (** Install order; canonical serialization order. *)
  buckets : (string, bucket) Hashtbl.t;
      (** Rate-limit state, keyed by offending source ([""] for [Src]
          rules, which have exactly one bucket). *)
}

type t

type stats = {
  active : int;  (** Unexpired rules (after a purge). *)
  installed : int;  (** Fresh installs (not refreshes). *)
  refreshed : int;
  expired : int;
  overflowed : int;  (** Installs refused because the table was full. *)
  dropped : int;  (** Packets blocked by a [Drop] rule or lockdown. *)
  limited : int;  (** Packets dropped by an exhausted token bucket. *)
}

val create : ?max_rules:int -> ?on_expire:(scope -> unit) -> unit -> t
(** [max_rules] (default 4096) bounds the table: rule scopes are derived
    from attacker-controlled addresses, so the table governs its own size
    exactly like the fact base does.  [on_expire] fires once per rule as
    lazy expiry reclaims it. *)

val lockdown : t -> bool

val set_lockdown : t -> bool -> unit
(** Fail-closed overload state: while set, {!decide} blocks everything.
    Owned by the caller's policy (e.g. entered on table overflow when the
    operator chose fail-closed). *)

type install_outcome = Installed | Refreshed | Overflow

val install :
  t ->
  now:Dsim.Time.t ->
  scope ->
  action ->
  expires_at:Dsim.Time.t ->
  ?escalate:bool ->
  reason:string ->
  unit ->
  install_outcome
(** Upsert.  An existing rule for the scope is refreshed: the deadline
    extends to the later of the two, [Drop] dominates [Rate_limit],
    [escalate] is sticky, the original reason and install time stand, and
    accumulated hits and bucket state survive.  A fresh install when
    [active ≥ max_rules] (after purging expired rules) returns [Overflow]
    and installs nothing. *)

val find : t -> scope -> rule option
(** Live lookup ([None] for expired rules, without reclaiming them). *)

type verdict =
  | Pass
  | Blocked of rule  (** Matched a [Drop] rule. *)
  | Limited of rule  (** Token bucket exhausted. *)
  | Locked  (** Lockdown: fail-closed blocks everything. *)

val decide : t -> now:Dsim.Time.t -> src:Dsim.Addr.t -> dst:Dsim.Addr.t -> verdict
(** The per-packet gate.  Match order: source endpoint, source host,
    destination endpoint, destination host — [Drop] rules are checked
    across all four before any token bucket is charged, so a drop is
    never masked by a limiter that still has tokens.  Matched expired
    rules are reclaimed on the spot.  An empty table passes the packet
    before any scope is built; otherwise the only string built is the
    bucket key of a matching [Dst] rate limit. *)

val strike :
  t -> now:Dsim.Time.t -> window:Dsim.Time.t -> threshold:int -> Source_key.t -> bool
(** Charges one strike (the enforcer's: a parse failure) to the key:
    [true] when it is the [threshold]th within [window] of the key's
    first, which also clears the key's count.  Counts are held in
    [max_rules] slots picked by the key's hash, and a key charged into a
    slot another key holds takes it over: a source cycling ports cannot
    grow the state, and the slot depends on the key alone, so a restored
    table evicts exactly as the live one. *)

val rules : t -> now:Dsim.Time.t -> rule list
(** Active rules in install order (purges first). *)

val stats : t -> now:Dsim.Time.t -> stats
(** Purges first, so [active] counts only live rules. *)

(** {1 Serialization}

    Snapshot payload (multi-line): an [ENF 1 <lockdown>] header, then per
    rule an [R] line (identity, action, deadlines, hits, reason) followed
    by its [B] bucket lines — tokens as hex floats for exact round-trip —
    then an [S] line (key, count, window deadline) per {!strike} count
    whose window is still open, sorted by key.  A table that holds no
    such count writes no [S] line.
    Journal payloads are single [R] lines {e without} hits or buckets:
    replay re-derives the volatile state by re-running the gate. *)

val serialize : t -> now:Dsim.Time.t -> string

val restore : t -> string -> (unit, string) result
(** Replaces the table's contents from a {!serialize} payload.  Total:
    malformed input is [Error] and leaves the table empty rather than
    half-loaded. *)

val rule_to_line : rule -> string
(** The journal form: hits rendered as 0, no bucket state. *)

val apply_rule_line : t -> keep_hits:bool -> string -> (unit, string) result
(** Re-applies a journaled [R] line: overwrites the rule's durable fields
    (creating it if absent), preserving accumulated hits and buckets when
    [keep_hits] — the exactly-once contract for journal replay. *)

val digest : t -> now:Dsim.Time.t -> string
(** MD5 over the canonical active rule set plus the lockdown flag,
    excluding volatile hits, bucket levels and strikes.  Two tables enforce
    equivalently iff their digests are equal. *)

val to_text : t -> now:Dsim.Time.t -> string
(** Operator-readable rule listing (the [vids-cli rules] output). *)

val to_json : t -> now:Dsim.Time.t -> string
