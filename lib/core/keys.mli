(** Names shared by the event distributor and the machine specs: event
    parameters, event names, machine names and the states the engine
    maps to alerts; and the canonical form of a host wherever one keys
    state. *)

(** {1 Event parameters (the input vector x̄)}

    The parameters the distributor fills, as slots of {!Efsm.Event}'s
    field registry.  An RTP event has room up to [size], a SIP event up to
    [media_pt]. *)
module Field : sig
  val src_ip : Efsm.Event.field
  val src_port : Efsm.Event.field
  val dst_ip : Efsm.Event.field
  val dst_port : Efsm.Event.field
  val ssrc : Efsm.Event.field
  val seq : Efsm.Event.field
  val ts : Efsm.Event.field
  val payload_type : Efsm.Event.field
  val size : Efsm.Event.field
  val code : Efsm.Event.field
  val cseq_method : Efsm.Event.field
  val cseq_number : Efsm.Event.field
  val call_id : Efsm.Event.field
  val from_tag : Efsm.Event.field
  val to_tag : Efsm.Event.field
  val branch : Efsm.Event.field
  val contact_host : Efsm.Event.field
  val media_host : Efsm.Event.field
  val media_port : Efsm.Event.field
  val media_pt : Efsm.Event.field
end

(** {1 Event names} *)

val response : string
(** All SIP responses arrive as this event; guards read [code]. *)

val rtp_packet : string

val orphan_response : string
(** A SIP response that matches no known call, fed to the DRDoS machine. *)

(** {1 Machine names}

    The machines themselves are the [.vspec] sources in [lib/core/specs/]
    ({!Spec_load}); these are the names the engine instantiates and
    injects into. *)

val sip_machine : string

val rtp_machine : string

val flood_machine : string

val spam_machine : string

val drdos_machine : string

(** {1 States the engine matches on}

    [st_init], and the attack states it maps to alert kinds. *)

val st_init : string
(** Every builtin's initial state; an RTP machine still in it never saw
    a media offer. *)

val st_cancel_dos : string

val st_hijack : string

val st_bye_dos : string

val st_billing_fraud : string

val st_invite_flood : string

val st_media_spam : string

val st_rtp_flood : string

val st_drdos : string

(** {1 Canonical keys} *)

val canonical_host : string -> string
(** A host as a key: lowercased, since hosts compare case-insensitively
    (RFC 3261 §19.1.4).  One host keys one detector ({!Sip_event.flood_key})
    and one enforcement rule or strike count ([Enforce.Source_key])
    however it is spelled. *)
