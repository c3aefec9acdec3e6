(** RFC 3550 §6.4.1 interarrival jitter estimator.

    J(i) = J(i-1) + (|D(i-1,i)| - J(i-1)) / 16, where D compares the spacing
    of arrival times against the spacing of RTP timestamps. *)

type t

val create : clock_rate:int -> t

val observe : t -> arrival:Dsim.Time.t -> rtp_timestamp:int32 -> unit

val jitter_seconds : t -> float
