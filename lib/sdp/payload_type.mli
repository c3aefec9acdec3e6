(** Static RTP/AVP payload type registry (RFC 3551 subset). *)

type info = {
  number : int;
  encoding : string;  (** e.g. ["G729"]. *)
  clock_rate : int;  (** Hz. *)
}

val find : int -> info option

val rtpmap : info -> string
(** The [a=rtpmap] attribute value, e.g. ["18 G729/8000"]. *)
