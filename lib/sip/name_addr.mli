(** The [name-addr] form used by From, To and Contact:
    [\["Display Name"\] <uri>;param=value;...] or a bare [addr-spec] with
    header parameters.  The [tag] parameter identifies dialog ends. *)

type t = {
  display : string option;
  uri : Uri.t;
  params : (string * string option) list;  (** Header params, e.g. [tag]. *)
}

val make : ?display:string -> ?params:(string * string option) list -> Uri.t -> t

val parse : string -> (t, string) result

val parse_range : string -> int -> int -> (t, string) result
(** Test seam: [parse_range s start stop] is
    [parse (String.sub s start (stop - start))] without the copy, which the
    SIP differential checks on a padded slice; the URI is parsed in place. *)

(** {1 Locators}

    Each finds one part of the name-addr in [s.\[start .. stop - 1\]]
    without allocating: its {!Scan.span} when [parse_range s start stop]
    would succeed and hold that part, negative otherwise. *)

val tag_span : string -> int -> int -> int
(** The value of the [tag] parameter, as {!tag} of the parse reads it. *)

val host_span : string -> int -> int -> int
(** The host of the URI. *)

val to_string : t -> string

val tag : t -> string option

val with_tag : t -> string -> t
(** Replaces any existing tag. *)
