(** Receiver-side playout (de-jitter) buffer model.

    Each packet is scheduled for playback at [capture_time + target_delay];
    packets arriving after their slot are late (discarded by a real phone),
    which converts network jitter into an audible loss rate.  This is the
    stage at which the paper's QoS concern — added delay and jitter from an
    inline IDS — becomes perceptible. *)

type t

val create : target_delay:Dsim.Time.t -> t
(** [target_delay] is the fixed buffer depth (a common phone default is
    40–80 ms). *)

val offer : t -> capture:Dsim.Time.t -> arrival:Dsim.Time.t -> [ `On_time | `Late ]
(** Classifies one packet and updates the counters.  [capture] is when the
    sender produced the packet (its wire send time), [arrival] the
    receiver-side arrival. *)

val received : t -> int

val late_fraction : t -> float
(** 0 when nothing was received. *)
