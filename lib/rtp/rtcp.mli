(** Minimal RTCP (RFC 3550 §6): sender and receiver report encode/decode.

    Only what the media endpoints need to exchange reception quality; vIDS
    does not inspect RTCP, but the testbed generates it so background
    traffic is realistic. *)

type report_block = {
  ssrc : int32;  (** Source this block reports on. *)
  fraction_lost : int;  (** 0..255. *)
  cumulative_lost : int;
  highest_seq : int32;
  jitter : int32;
}

type t =
  | Sender_report of {
      ssrc : int32;
      ntp_sec : int32;
      rtp_ts : int32;
      packet_count : int32;
      octet_count : int32;
      blocks : report_block list;
    }
  | Receiver_report of { ssrc : int32; blocks : report_block list }

val encode : t -> string

val decode : string -> (t, string) result
