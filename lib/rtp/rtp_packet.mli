(** RTP packets (RFC 3550 §5.1) with a real binary wire codec.

    The 12-byte fixed header is encoded and decoded bit-for-bit; CSRC lists
    and header extensions are supported on decode so fuzzed inputs exercise
    the full format. *)

type t = {
  version : int;  (** 2 on everything we generate. *)
  padding : bool;
  marker : bool;
  payload_type : int;  (** 0..127. *)
  sequence : int;  (** 16-bit, wraps. *)
  timestamp : int32;  (** media clock units *)
  ssrc : int32;
  csrc : int32 list;
  payload : string;
}

val make :
  ?marker:bool -> payload_type:int -> sequence:int -> timestamp:int32 -> ssrc:int32 ->
  string -> t

val encode : t -> string

val decode : string -> (t, string) result

(** {1 Reading in place}

    What the sensor reads of a datagram, without building a packet.  The
    field readers read one that {!payload_length} accepted, the SSRC and
    timestamp as [Int32.to_int] reads them: negative from 2^31. *)

exception Malformed of string
(** Why a datagram is not an RTP packet: {!decode}'s [Error] text. *)

val payload_length : string -> int
(** The one header reader, {!decode}'s too: the length of the payload,
    between the header (CSRCs and extension included) and the padding.
    @raise Malformed when the datagram is not an RTP version 2 packet. *)

val payload_type_of : string -> int
val sequence_of : string -> int
val timestamp_of : string -> int
val ssrc_of : string -> int

val seq_delta : int -> int -> int
(** Test oracle: the RFC 1982 serial arithmetic that MEDIA_SPAM's
    [wrap16] replaced, to which the differential holds it.  [seq_delta a
    b] is the signed distance from [a] to [b] (i.e. [b - a] mod 2^16, in
    [-32768, 32767]). *)

val ts_delta : int32 -> int32 -> int
(** Signed 32-bit timestamp distance, for gap detection. *)
