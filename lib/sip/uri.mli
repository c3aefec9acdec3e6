(** SIP URIs (RFC 3261 §19.1 subset).

    Supported shape: [sip:user@host:port;param=value;flag?headers].  The
    user ends at the first ['@'], so it may hold [';'] and ['?'] (RFC 3261
    user-unreserved).  The [headers] part after ['?'] is kept verbatim;
    escaping is not
    interpreted — the simulated endpoints never generate escapes, and the
    intrusion detector only compares URIs structurally. *)

type t = {
  scheme : string;  (** ["sip"] or ["sips"]. *)
  user : string option;
  host : string;
  port : int option;
  params : (string * string option) list;  (** In order; flags have no value. *)
  headers : string option;
}

val make :
  ?scheme:string ->
  ?user:string ->
  ?port:int ->
  ?params:(string * string option) list ->
  ?headers:string ->
  string ->
  t
(** [make host] builds a [sip:] URI. *)

val parse : string -> (t, string) result

val parse_range : string -> int -> int -> (t, string) result
(** [parse_range s start stop] is [parse (String.sub s start (stop - start))]
    without the copy. *)

val host_span : string -> int -> int -> int
(** [host_span s start stop] makes the checks of [parse_range s start stop]
    without allocating: the {!Scan.span} of the host when it would
    succeed, negative when it would fail. *)

val to_string : t -> string
