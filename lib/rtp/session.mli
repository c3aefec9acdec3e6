(** RTP sender/receiver session state (one SSRC each way). *)

module Sender : sig
  type t

  val create : ssrc:int32 -> codec:Codec.t -> initial_seq:int -> initial_ts:int32 -> t

  val ssrc : t -> int32

  val next_packet : t -> Rtp_packet.t
  (** Produces the next in-order media packet (synthetic payload bytes) and
      advances sequence and timestamp.  The first packet carries the
      marker bit (talkspurt start). *)

  val skip_silence : t -> Dsim.Time.t -> unit
  (** Models a silence-suppression gap (no packets emitted): the RTP
      timestamp advances by the gap's worth of media clock ticks while the
      sequence number stays put, and the next packet carries the marker
      bit — RFC 3550 §5.1 talkspurt semantics. *)

  val packets_sent : t -> int

  val current_sequence : t -> int
  (** Sequence number the next packet will carry. *)

  val current_timestamp : t -> int32
end

module Receiver : sig
  type t

  val create : clock_rate:int -> t

  val observe : t -> arrival:Dsim.Time.t -> Rtp_packet.t -> unit
  (** Counts the packet and feeds the jitter estimator. *)

  val packets_received : t -> int

  val jitter : t -> Jitter.t
end
