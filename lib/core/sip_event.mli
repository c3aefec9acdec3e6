(** Translation from parsed SIP messages to EFSM events — the Event
    Distributor's encoding of the input vector x̄ (paper Figure 2a): header
    fields and, when an SDP body is present, the media description. *)

val of_msg :
  ?prof:Obs.Prof.t ->
  at:Dsim.Time.t ->
  src:Dsim.Addr.t ->
  dst:Dsim.Addr.t ->
  Sip.Msg.t ->
  Efsm.Event.t
(** Requests become events named after their method; responses become
    {!Keys.response} events carrying [code].  With [prof], an SDP body's
    parse runs inside an [Sdp_parse] span. *)

val media_of_event : Efsm.Event.t -> Dsim.Addr.t option
(** The SDP media endpoint the event advertises, if any. *)

val flood_key : Sip.Msg.t -> string option
(** The destination identity an INVITE targets (request-URI user\@host,
    host lowercased, escaped unreserved characters of the user decoded),
    keying the per-destination flood detector. *)
