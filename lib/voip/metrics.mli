(** Experiment measurements collected by the testbed (paper §7). *)

type t

val create : unit -> t

(** {1 Workload (Figure 8)} *)

val record_call_arrival : t -> at:Dsim.Time.t -> duration:Dsim.Time.t -> unit

val arrivals : t -> Dsim.Stat.Series.t
(** One sample per arrival; the value is the planned duration in seconds. *)

(** {1 Call setup delay (Figure 9)} *)

val record_setup : t -> caller:string -> at:Dsim.Time.t -> delay:Dsim.Time.t -> unit

val setup_series : t -> caller:string -> Dsim.Stat.Series.t option

val setup_all : t -> Dsim.Stat.Summary.t

val callers : t -> string list

(** {1 RTP QoS (Figure 10)} *)

val record_rtp_delay : t -> at:Dsim.Time.t -> delay:Dsim.Time.t -> unit

val record_delay_variation : t -> at:Dsim.Time.t -> variation:float -> unit
(** [variation] in seconds: |delayᵢ − delayᵢ₋₁| per stream. *)

val record_jitter : t -> float -> unit
(** Final RFC 3550 jitter estimate of a receiver, in seconds. *)

val rtp_delay : t -> Dsim.Stat.Series.t

val delay_variation : t -> Dsim.Stat.Series.t

val jitter_summary : t -> Dsim.Stat.Summary.t

val record_playout_late : t -> float -> unit
(** Per-call fraction of packets that missed the playout deadline. *)

val playout_late_summary : t -> Dsim.Stat.Summary.t

(** {1 Call accounting} *)

val incr_attempted : t -> unit

val incr_established : t -> unit

val incr_completed : t -> unit

val incr_failed : t -> unit

val attempted : t -> int

val established : t -> int

val completed : t -> int

val failed : t -> int
