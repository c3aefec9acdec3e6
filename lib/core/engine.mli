(** The vIDS Analysis Engine (paper Figure 3).

    Glues the pipeline together: Packet Classifier → Event Distributor →
    per-call communicating machines and standalone detectors in the Call
    State Fact Base → alerts.  Also carries the inline deployment cost
    model (§7.2–§7.4): per-packet forwarding latency and CPU busy time.

    The engine is its own last line of defense: every machine injection and
    timer callback runs inside a containment boundary (a faulting call or
    detector is quarantined, counted, and reported as an [Engine_fault]
    alert, never unwinding the packet loop), and when state occupancy
    crosses the configured high-water mark the engine degrades gracefully —
    stream-level RTP analysis is shed first while SIP signaling checks stay
    live. *)

type counters = {
  sip_packets : int;
  rtp_packets : int;
  rtcp_packets : int;
  other_packets : int;
  malformed_packets : int;
  orphan_requests : int;  (** Non-INVITE requests with no call record. *)
  orphan_responses : int;
  alerts_raised : int;  (** Distinct alerts after de-duplication. *)
  alerts_suppressed : int;  (** Duplicates of an already-raised alert. *)
  anomalies : int;
  faults : int;
      (** Exceptions contained at a boundary (machine, timer, listener,
          packet pipeline). *)
  rtp_shed : int;  (** RTP packets whose stream-level analysis was shed while degraded. *)
}

type t

val create :
  ?config:Config.t -> ?overrides:(string * Efsm.Machine.spec) list -> Dsim.Scheduler.t -> t
(** [overrides] replaces builtin machine specs by name (e.g. ["SIP"])
    with [.vspec]-loaded ones; see {!Spec_load.load_files}. *)

val config : t -> Config.t

val process_packet : t -> Dsim.Packet.t -> unit
(** The tap entry point: classify, distribute, analyze.  Shaped for
    [Dsim.Network.set_tap] after partial application. *)

val transit_delay : t -> Dsim.Packet.t -> Dsim.Time.t
(** Inline forwarding latency for this packet per the cost model; shaped
    for [Dsim.Network.set_transit_delay]. *)

val alerts : t -> Alert.t list
(** Distinct alerts, oldest first. *)

val alerts_of_kind : t -> Alert.kind -> Alert.t list

val counters : t -> counters

val malformed_packets : t -> int
(** [(counters t).malformed_packets] without building the record, for
    callers that read it once per packet. *)

val cpu_busy : t -> Dsim.Time.t
(** Accumulated modeled CPU time spent analyzing packets. *)

val fact_base : t -> Fact_base.t

val memory_stats : t -> Fact_base.stats

val degraded : t -> bool
(** Whether stream-level RTP analysis is currently shed. *)

val degraded_intervals : t -> (Dsim.Time.t * Dsim.Time.t option) list
(** Degraded periods, oldest first; [None] marks a still-open interval. *)

val on_alert : t -> (Alert.t -> unit) -> unit
(** Registers an additional listener for distinct alerts. *)

val on_eviction : t -> (at:Dsim.Time.t -> subject:string -> detail:string -> unit) -> unit
(** Registers a listener for every resource reclamation (cap evictions,
    ageing sweeps).  Unlike {!on_alert}, which deduplicates, this fires per
    event — it feeds the write-ahead journal. *)

(** {1 Telemetry}

    Optional, attached after creation so every existing construction site
    (testbed, snapshot restore, daemon) keeps its
    signature.  Strictly observational: instrumentation never feeds back
    into analysis, so [Snapshot.digest] and the alert log are identical
    with telemetry on or off. *)

val set_telemetry : t -> ?metrics:Obs.Metrics.t -> ?flight:Obs.Trace.t -> unit -> unit
(** Attaches a metrics registry and/or flight recorder.  The registry's
    clock is re-pointed at this engine's virtual clock; instrument handles
    are resolved once here so the per-packet cost is a field load and an
    integer bump.  Passing neither detaches telemetry.

    Metrics exported (all prefixed [vids_]): [packets_total{class}],
    [injects_total{target}], [alerts_total{kind}],
    [alerts_suppressed_total], [anomalies_total], [faults_total],
    [evictions_total], [rtp_shed_total], [fact_base_occupancy] (gauge) and
    [fact_base_occupancy_hist] (per-packet histogram).

    The flight recorder sees every pipeline step (packet classified, event
    dispatched, attack-state transition, alert, quarantine, eviction) and
    auto-dumps its tail — via {!Obs.Trace.on_dump} sinks — whenever a
    faulting call or detector is quarantined. *)

val metrics_registry : t -> Obs.Metrics.t option

val flight_recorder : t -> Obs.Trace.t option

val set_profiler : t -> Obs.Prof.t option -> unit
(** Attaches (or with [None] detaches) a hot-path profiler
    ({!Obs.Prof}).  Like telemetry, profiling is strictly write-only —
    digests and alerts are identical with it on or off — and the disabled
    path costs one branch per span site.  With a profiler attached the
    engine wraps wire parsing in [Sip_parse]/[Sdp_parse]/[Rtp_parse]
    spans, per-call machine injections in [Efsm_dispatch] and standalone
    detector injections in [Detect]; the profiler's registry clock and
    sampled-span timestamps are re-pointed at this engine's virtual
    clock. *)

val profiler : t -> Obs.Prof.t option

(** {1 Crash safety}

    Hooks for the checkpoint/recovery subsystem ({!Snapshot}, {!Journal},
    {!Recovery}).  The contract is deterministic convergence: restoring a
    snapshot and replaying the capture recorded after the snapshot's
    timestamp, every listener notified, yields the same engine state, and
    re-raises the same alerts, as a run that never crashed. *)

(** Engine-internal mutable state as plain data, for {!Snapshot} only. *)
module Persist : sig
  type dump = {
    p_counters : counters;
    p_injects : int;  (** Chaos self-test injection count, for determinism. *)
    p_busy : Dsim.Time.t;
    p_inline_free_at : Dsim.Time.t;
    p_degraded_since : Dsim.Time.t option;
    p_degraded_log : (Dsim.Time.t * Dsim.Time.t) list;  (** Oldest first. *)
    p_alerts : Alert.t list;  (** Oldest first. *)
  }

  val dump : t -> dump

  val restore : t -> dump -> unit
  (** Overwrites counters, cost-model state, degradation history, the alert
      log and the dedup set ([alerts_raised] is derived and ignored). *)
end
