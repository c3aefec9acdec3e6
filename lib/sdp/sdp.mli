(** Session Description Protocol (RFC 2327 subset).

    Carries exactly what the paper's vIDS reads out of an INVITE/200 body:
    the media connection address, port, transport and offered codecs. *)

type media = {
  media_type : string;  (** ["audio"], ["video"], … *)
  port : int;
  transport : string;  (** ["RTP/AVP"]. *)
  formats : int list;  (** RTP payload type numbers, preference order. *)
  attributes : (string * string option) list;
      (** [a=] lines for this m-block, and its own [c=] line, if any, as
          [("c", Some line)]. *)
}

type t = {
  version : int;  (** [v=] — always 0. *)
  origin : string;  (** [o=] line, verbatim. *)
  session_name : string;  (** [s=]. *)
  connection : string option;  (** Address from the session-level [c=] line. *)
  timing : string;  (** [t=] line, verbatim. *)
  media : media list;
  session_attributes : (string * string option) list;
}

val make :
  ?session_name:string ->
  origin_user:string ->
  origin_host:string ->
  connection:string ->
  media:media list ->
  unit ->
  t

val audio_media : port:int -> formats:int list -> media
(** An [m=audio] block over RTP/AVP with [a=rtpmap] attributes for known
    payload types. *)

val parse : string -> (t, string) result

val parse_range : string -> int -> int -> (t, string) result
(** [parse_range s start stop] is [parse (String.sub s start (stop - start))]
    without the copy: the sensor reads a body where it lies in the SIP
    payload. *)

val to_string : t -> string

val first_audio : t -> media option
(** The first [m=audio] block that is not declined (port 0). *)

val media_addr : t -> media -> (string * int) option
(** Connection host and port for a media block: the block's own [c=]
    line when it has one (RFC 4566 §5.7), else the session-level one. *)

(** Re-export of the payload-type registry, since this module is the
    library's sole entry point. *)
module Payload_type : module type of Payload_type
