(** Via header fields: [SIP/2.0/UDP host:port;branch=...;received=...]. *)

type t = {
  transport : string;  (** ["UDP"], ["TCP"], … *)
  host : string;
  port : int option;
  params : (string * string option) list;
}

val make : ?transport:string -> ?port:int -> ?branch:string -> string -> t

val parse : string -> (t, string) result
(** Test seam: {!parse_range} over the whole string, which the Via tests
    and the SIP differential read. *)

val parse_range : string -> int -> int -> (t, string) result
(** [parse_range s start stop] is [parse (String.sub s start (stop - start))]
    without the copy. *)

val branch_span : string -> int -> int -> int
(** [branch_span s start stop] finds the value of the [branch] parameter
    without allocating: its {!Scan.span} when [parse_range s start stop]
    would succeed and hold one, as {!branch} of the parse reads it, and
    negative otherwise. *)

val to_string : t -> string

val branch : t -> string option

val sent_by : t -> Dsim.Addr.t
(** Host and port (5060 when absent). *)

val magic_cookie : string
(** ["z9hG4bK"], the RFC 3261 branch prefix. *)
