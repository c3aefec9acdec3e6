(** Static RTP/AVP payload type registry (RFC 3551 subset). *)

type info = {
  number : int;
  encoding : string;  (** e.g. ["G729"]. *)
  clock_rate : int;  (** Hz. *)
}

val pcmu : info
(** Payload type 0: G.711 µ-law. *)

val gsm : info
(** Payload type 3. *)

val g729 : info
(** Payload type 18 — the codec the paper's testbed uses. *)

val find : int -> info option

val rtpmap : info -> string
(** The [a=rtpmap] attribute value, e.g. ["18 G729/8000"]. *)
