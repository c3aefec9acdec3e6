(** Voice codec timing models.

    Enough to generate media streams with the right packet rate, payload
    size and timestamp increments.  The paper's testbed uses G.729 with a
    10 ms frame and 8 kbit/s coding rate. *)

type t = {
  name : string;
  payload_type : int;
  clock_rate : int;  (** RTP timestamp ticks per second. *)
  frame_ms : float;  (** Frame duration in milliseconds. *)
  frames_per_packet : int;
  bytes_per_frame : int;
}

val g729 : t
(** 10 ms frames, 10 bytes per frame (8 kbit/s), 2 frames per packet
    (20 ms packetization, the common VoIP setting). *)

val packet_interval : t -> Dsim.Time.t
(** Wall-clock time between packets. *)

val timestamp_increment : t -> int
(** RTP timestamp ticks between consecutive packets. *)

val payload_size : t -> int
(** Bytes of media per packet. *)

