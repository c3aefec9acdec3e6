(** The Packet Classifier component (paper Figure 3).

    Sorts raw datagrams into SIP signaling, RTP media, RTCP and other
    traffic, parsing the wire bytes with the real protocol parsers.  A
    message on a signaling port that fails to parse is itself a reportable
    condition. *)

type 'sip verdict =
  | Sip of 'sip
  | Rtp of int
      (** The payload's length ({!Rtp.Rtp_packet.payload_length}); the
          header is read where it lies. *)
  | Rtcp of Rtp.Rtcp.t
  | Malformed_sip of string  (** {!Sip.Msg.parse}'s error text. *)
  | Malformed_rtp of string
      (** {!Rtp.Rtp_packet.decode}'s or {!Rtp.Rtcp.decode}'s error text. *)
  | Other

type classification = Sip.Msg.t verdict

val classify :
  ?prof:Obs.Prof.t -> known_media:(Dsim.Addr.t -> bool) -> Dsim.Packet.t -> classification
(** [known_media] answers whether an address is a registered media endpoint
    (from the fact base); unknown ports in the dynamic RTP range are also
    tried as media.  With [prof], the wire-parse calls run inside
    [Sip_parse] / [Rtp_parse] spans. *)

val read :
  ?prof:Obs.Prof.t ->
  Sip.Index.t ->
  known_media:(Dsim.Addr.t -> bool) ->
  Dsim.Packet.t ->
  unit verdict
(** What the engine runs: {!classify}, except that a SIP message is only
    read into the index, which then describes it, and [Sip ()] stands for
    [Sip m].  The verdict, error text included, is {!classify}'s: both
    read SIP through {!Sip.Index.read}. *)

val rtp_port_range : int * int
(** Dynamic range used by the simulated endpoints; even = RTP, odd = RTCP. *)

val quick_protocol : Dsim.Packet.t -> [ `Sip | `Media | `Other ]
(** Port-only classification, used by the inline delay model. *)
