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

val of_string : string -> t
(** Method names are case-sensitive tokens in SIP; unknown ones map to
    [Extension]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
