(** SIP request methods (RFC 3261 plus common extensions). *)

type t =
  | INVITE
  | ACK
  | BYE
  | CANCEL
  | REGISTER
  | OPTIONS
  | INFO
  | UPDATE
  | PRACK
  | SUBSCRIBE
  | NOTIFY
  | REFER
  | MESSAGE
  | Extension of string
      (** Any other token; kept verbatim so unknown methods still parse. *)

val to_string : t -> string

val of_range : string -> int -> int -> t
(** The method named by [s.\[start .. stop - 1\]], copying only an
    extension method.  Method names are case-sensitive tokens in SIP;
    unknown ones map to [Extension]. *)

val of_string : string -> t
(** Test oracle: {!of_range} over the whole string, as the reference
    parsers in the SIP differential read a method name. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
