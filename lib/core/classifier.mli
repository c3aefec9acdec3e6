(** The Packet Classifier component (paper Figure 3).

    Sorts raw datagrams into SIP signaling, RTP media, RTCP and other
    traffic, parsing the wire bytes with the real protocol parsers.  A
    message on a signaling port that fails to parse is itself a reportable
    condition. *)

type classification =
  | Sip of Sip.Msg.t
  | Rtp of Rtp.Rtp_packet.t
  | Rtcp of Rtp.Rtcp.t
  | Malformed_sip of string  (** Parse error text. *)
  | Malformed_rtp of string
  | Other

val classify :
  ?prof:Obs.Prof.t -> known_media:(Dsim.Addr.t -> bool) -> Dsim.Packet.t -> classification
(** [known_media] answers whether an address is a registered media endpoint
    (from the fact base); unknown ports in the dynamic RTP range are also
    tried as media.  With [prof], the wire-parse calls run inside
    [Sip_parse] / [Rtp_parse] spans. *)

val rtp_port_range : int * int
(** Dynamic range used by the simulated endpoints; even = RTP, odd = RTCP. *)

val quick_protocol : Dsim.Packet.t -> [ `Sip | `Media | `Other ]
(** Port-only classification, used by the inline delay model. *)
