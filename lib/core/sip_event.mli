(** Translation from SIP messages to EFSM events — the Event Distributor's
    encoding of the input vector x̄ (paper Figure 2a): header fields and,
    when an SDP body is present, the media description.

    One function builds the event for both readings of a message:
    {!of_msg} reads a parsed {!Sip.Msg.t}, and {!of_index} reads the spans
    a {!Sip.Index.t} recorded, so the sensor never builds the message.  Either way the
    event holds exact-size copies of the strings it keeps (Call-ID, tags,
    the Contact host, the branch, the SDP media host), never the payload,
    and the same message gives the same event. *)

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

val of_index :
  ?prof:Obs.Prof.t ->
  at:Dsim.Time.t ->
  src:Dsim.Addr.t ->
  dst:Dsim.Addr.t ->
  Sip.Index.t ->
  Efsm.Event.t
(** [of_msg] of [Sip.Msg.of_index idx], built from the index that has
    just read [Ok]. *)

val media_of_event : Efsm.Event.t -> Dsim.Addr.t option
(** The SDP media endpoint the event advertises, if any. *)

val flood_key : Sip.Msg.t -> string option
(** Test oracle: the destination identity an INVITE targets
    (request-URI user\@host, host lowercased, escaped unreserved
    characters of the user decoded), keying the per-destination flood
    detector; {!index_flood_key} is what the engine reads. *)

val index_flood_key : Sip.Index.t -> string option
(** [flood_key] of [Sip.Msg.of_index idx]. *)
