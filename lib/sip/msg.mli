(** SIP messages: parsing, serialization and typed accessors.

    The grammar is the RFC 3261 subset every endpoint in this repository
    speaks; the parser is deliberately strict about structure (start line,
    mandatory header syntax, Content-Length agreement) because the intrusion
    detection system treats an unparsable message as a protocol violation. *)

type start_line =
  | Request of { meth : Msg_method.t; uri : Uri.t }
  | Response of { code : Status.t; reason : string }

type t = { start : start_line; headers : Header.t; body : string }

(** {1 Construction} *)

val request :
  meth:Msg_method.t ->
  uri:Uri.t ->
  via:Via.t ->
  from_:Name_addr.t ->
  to_:Name_addr.t ->
  call_id:string ->
  cseq:Cseq.t ->
  ?contact:Name_addr.t ->
  ?max_forwards:int ->
  ?headers:(string * string) list ->
  ?body:string ->
  ?content_type:string ->
  unit ->
  t

val response_to : t -> code:Status.t -> ?reason:string -> ?body:string ->
  ?content_type:string -> ?headers:(string * string) list -> ?to_tag:string -> unit -> t
(** Builds a response to a request per RFC 3261 §8.2.6: copies Via stack,
    From, To (adding [to_tag] if the request's To has none), Call-ID and
    CSeq.  Raises [Invalid_argument] when applied to a response. *)

val ack_for : t -> response:t -> t
(** Builds the ACK for a final response to an INVITE (same branch for
    non-2xx per §17.1.1.3; the caller provides the 2xx ACK itself since that
    is a new transaction). *)

(** {1 Wire format} *)

val parse : string -> (t, string) result
(** {!Index.read} on a fresh index, then {!of_index}: the one grammar the
    sensor reads too. *)

val of_index : Index.t -> t
(** The message an index that has just read [Ok] describes: every field
    copied out of {!Index.text}, names canonical. *)

val serialize : t -> string
(** CRLF line endings; Content-Length is recomputed from the body. *)

val pp : Format.formatter -> t -> unit
(** One-line summary, e.g. ["INVITE sip:b@b.example (cid=...)"]. *)

(** {1 Predicates} *)

val is_response : t -> bool

val method_of : t -> Msg_method.t option
(** For requests, the request method; for responses, the CSeq method. *)

val status_of : t -> Status.t option

(** {1 Typed header accessors}

    Each returns [Error] when the field is missing or malformed; the
    detector reports these as protocol anomalies. *)

val call_id : t -> (string, string) result

val cseq : t -> (Cseq.t, string) result

val from_ : t -> (Name_addr.t, string) result

val to_ : t -> (Name_addr.t, string) result

val top_via : t -> (Via.t, string) result

val contact : t -> (Name_addr.t, string) result

val content_type_is : t -> string -> bool
(** [content_type_is t "application/sdp"] holds when the Content-Type names
    that media type: type and subtype compare case-insensitively, and
    parameters and white space around them are ignored (RFC 3261 §20.15,
    RFC 2045 §5.1). *)

val media_type_is : string -> int -> int -> string -> bool
(** [media_type_is s start stop media_type] is {!content_type_is} on a
    Content-Type value [s.\[start .. stop - 1\]]. *)

val expires : t -> int option

(** {1 Proxy helpers} *)

val push_via : t -> Via.t -> t

val pop_via : t -> t

val decrement_max_forwards : t -> (t, [ `Exhausted | `Malformed ]) result
(** One hop fewer; an absent Max-Forwards becomes 70.  [`Exhausted] when
    it is 0 (a 483 condition, RFC 3261 §16.3 step 3); [`Malformed] when it
    is present but not 1*DIGIT (a 400, step 1), so a hop count nobody can
    read is never forwarded as fresh. *)

val transaction_key : t -> (string, string) result
(** RFC 3261 §17.2.3 server-side matching key: top Via branch + sent-by +
    CSeq method, with ACK folded onto INVITE (an ACK completes the INVITE
    transaction).  A CANCEL keys its own transaction; use
    {!invite_key_of_cancel} to find the INVITE it targets. *)

val invite_key_of_cancel : t -> (string, string) result
(** The transaction key of the INVITE a CANCEL is trying to stop (same
    branch and sent-by, method INVITE). *)
