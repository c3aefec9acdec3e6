(** The Call State Fact Base (paper Figure 3, §5).

    Stores, per ongoing call, one instance of each protocol state machine
    (the paper's "only one instance of a protocol state machine is
    maintained at the memory" per call) plus the standalone detector
    machines keyed by destination or stream.  Completed calls are deleted
    after a linger period; the memory model mirrors §7.3's ≈450 B SIP +
    ≈40 B RTP per-call figures alongside the measured footprint.

    The five machine specs are elaborated from their [.vspec] sources
    under the config (or taken from the [overrides]; see {!Spec_load})
    once per base, when the first record needs them, and
    every record shares them: a record owns only its machines' state,
    variables, history and timers.  Likewise every system of one record
    kind reports through one shared {!Efsm.System.hooks} record, naming
    itself by a string its record already holds: the Call-ID, or the
    detector's key.

    Because every record here is created by attacker-controlled input, the
    base governs its own size: optional caps on calls and detectors evict
    the oldest record when reached, and a scheduled sweep reclaims records
    older than [call_max_age] (abandoned setups, machines parked in attack
    states).  Every reclamation is reported through [on_pressure] so the
    engine can surface it as a [Resource_pressure] alert. *)

type call = {
  call_id : string;
      (** The call table's key: one lookup per SIP message, hashed with
          FNV-1a over every byte. *)
  serial : int;
      (** Unique per record, never reused: tells apart two records of one
          Call-ID (deleted, then seen again) in the creation-order queue. *)
  system : Efsm.System.t;
  sip : Efsm.Machine.t;
  rtp : Efsm.Machine.t;
  created_at : Dsim.Time.t;
  mutable media_addrs : Dsim.Addr.t list;
  mutable closing : bool;
  mutable finish_pending : bool;
  mutable delete_at : Dsim.Time.t option;
      (** Absolute deadline of the pending linger-deletion timer, recorded
          so checkpoints can re-arm it at the same virtual time. *)
  mutable recheck_at : Dsim.Time.t option;
      (** Absolute deadline of the pending finish re-check timer. *)
}

type detector_kind = [ `Flood | `Spam | `Drdos ]

(** How each kind of detector is keyed: INVITE flood by destination,
    media spam by the stream's address, DRDoS by victim host. *)
type _ key = Dst : string key | Stream : Dsim.Addr.t key | Victim : string key

val kind_of : 'k key -> detector_kind

val key_text : 'k key -> 'k -> string
(** The text a key is named by: the key itself, or ["host:port"]. *)

type detector = private {
  d_system : Efsm.System.t;
  d_machine : Efsm.Machine.t;
  d_created : Dsim.Time.t;
  d_serial : int;  (** Unique per record, like a call's [serial]. *)
  mutable d_touched : Dsim.Time.t;
      (** Last lookup: the ageing sweep reclaims idle detectors. *)
}

type t

val create :
  ?on_pressure:(subject:string -> detail:string -> unit) ->
  ?overrides:(string * Efsm.Machine.spec) list ->
  config:Config.t ->
  timer_host:Efsm.System.timer_host ->
  on_alert:(machine:string -> state:string -> subject:string -> detail:string -> unit) ->
  on_anomaly:
    (machine:string -> state:string -> subject:string -> event:Efsm.Event.t -> detail:string -> unit) ->
  unit ->
  t

val find_call : t -> string -> call option

val create_call : t -> call_id:string -> call
(** Instantiates the SIP and RTP machines inside a fresh communicating
    system.  Total: a duplicate Call-ID returns the existing record (wire
    input must never raise).  When [max_calls] is set and reached, the
    oldest record is evicted first. *)

val register_media : t -> call -> Dsim.Addr.t -> unit
(** Binds a media address to the call for RTP routing. *)

val call_for_media : t -> Dsim.Addr.t -> call
(** @raise Not_found when no call holds the address, so that a lookup
    allocates nothing. *)

val known_media : t -> Dsim.Addr.t -> bool

val detector : t -> 'k key -> 'k -> detector
(** The detector of that kind for the key, created on first use, when
    its key's text is built once: its system's owner, which names it in
    alerts and snapshots. *)

val detector_subject : detector_kind -> string -> string
(** The subject its alerts carry: ["dst:"], ["stream:"] or ["victim:"]
    followed by the key.  Built when an alert fires; no record stores it. *)

val occupancy : t -> int
(** Active calls plus detectors — the engine's degradation signal. *)

val quarantine_call : t -> call -> unit
(** Removes a call whose machine faulted so the fault cannot recur; the
    engine raises the matching [Engine_fault] alert. *)

val quarantine_detector : t -> 'k key -> 'k -> unit
(** Same, for a standalone detector. *)

val maybe_finish : t -> call -> unit
(** If both machines reached their final states, marks the call closing and
    schedules its deletion after the configured linger. *)

val schedule_sweep : t -> unit
(** Starts the periodic ageing sweep on the base's timer host, driven by
    [sweep_interval] and [call_max_age]; a no-op when either is zero. *)

(** {1 Checkpoint support}

    These accessors exist for {!Snapshot}: they expose the base's full
    mutable state for capture and rebuild it verbatim on restore, without
    the counter bumps, eviction checks or pressure callbacks of the normal
    creation paths. *)

val calls_in_creation_order : t -> call list
(** Live calls, oldest first — the canonical serialization order (and the
    eviction order, so restoring in this order preserves both). *)

val detectors_in_creation_order : t -> (detector_kind * string * detector) list
(** Kind, key text and record. *)

val restore_call : t -> call_id:string -> created_at:Dsim.Time.t -> call
(** Rebuilds an empty call record (machines in their initial states) under
    the given identity.  Raises [Invalid_argument] on a duplicate. *)

val restore_detector :
  t ->
  detector_kind ->
  key:string ->
  created_at:Dsim.Time.t ->
  touched:Dsim.Time.t ->
  detector
(** [key] is a key's text, which a spam detector's must parse as
    ["host:port"] ({!Dsim.Addr.of_string}).  Raises [Invalid_argument],
    naming the key, when it does not, or on a duplicate. *)

val arm_delete_at : t -> call -> Dsim.Time.t -> unit
(** Marks the call closing and schedules its deletion at the absolute time
    (immediately if already past). *)

val arm_recheck_at : t -> call -> Dsim.Time.t -> unit
(** Re-arms the single finish re-check at the absolute time. *)

val next_sweep_at : t -> Dsim.Time.t option
(** When the next scheduled ageing sweep is due, if armed. *)

val set_next_sweep : t -> Dsim.Time.t option -> unit
(** Cancels any armed sweep and, when given a time (and sweeping is
    enabled by the config), re-arms the periodic sweep to first fire
    then. *)

val set_counters :
  t ->
  peak:int ->
  created:int ->
  deleted:int ->
  calls_evicted:int ->
  detectors_evicted:int ->
  swept:int ->
  detectors_swept:int ->
  unit

val kind_label : detector_kind -> string

val kind_of_label : string -> detector_kind option

(** {1 Statistics} *)

type stats = {
  active_calls : int;
  peak_calls : int;
  calls_created : int;
  calls_deleted : int;  (** All removals: lifecycle, sweep, eviction, quarantine. *)
  calls_evicted : int;  (** Subset of deletions forced by the [max_calls] cap. *)
  detectors_evicted : int;
  calls_swept : int;  (** Call deletions by the scheduled ageing sweep. *)
  detectors_swept : int;  (** Idle detectors reclaimed by the ageing sweep. *)
  detectors : int;
  modeled_bytes : int;  (** Paper's per-call memory model. *)
  measured_bytes : int;
      (** An estimate, not a measurement: the sum of
          [Efsm.Env.estimated_bytes] over every live call, a model of its
          variables' size (about 178 B per media call, against about
          4.4 KB on the live heap). *)
}

val stats : t -> stats
