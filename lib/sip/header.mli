(** SIP header field collection.

    Headers are an ordered multimap: order matters for Via and Route stacks.
    Field names compare case-insensitively and compact forms (["v"] for
    ["Via"], …) are normalized to their canonical long names at insertion. *)

type t

val empty : t

val canonical_name : string -> string
(** Expands compact forms and title-cases known fields, e.g.
    [canonical_name "i" = "Call-ID"], [canonical_name "cseq" = "CSeq"]. *)

val add : t -> string -> string -> t
(** Appends at the end (after any same-named fields). *)

val add_first : t -> string -> string -> t
(** Prepends before any same-named fields (used for Via pushing). *)

val get : t -> string -> string option
(** First value of the field, if any. *)

val get_canonical : t -> string -> string option
(** [get] for a name already in canonical form ([canonical_name name =
    name], e.g. ["Call-ID"]), which it does not canonicalise again. *)

val get_all : t -> string -> string list
(** All values in order, comma-separated list values split apart.  Splitting
    respects quoted strings and angle brackets. *)

val set : t -> string -> string -> t
(** Replaces every occurrence with a single field. *)

val remove_first : t -> string -> t
(** Removes only the first occurrence (used for Via popping). *)

val fold : (string -> string -> 'a -> 'a) -> t -> 'a -> 'a
(** In field order. *)

val to_list : t -> (string * string) list

val parse_range : string -> int -> int -> (t, string) result
(** The header fields on the lines of [s.\[start .. stop - 1\]], one per
    line, with LF or CRLF line ends.  A line that starts with white space
    continues the one before it (RFC 3261 §7.3.1); blank lines are
    skipped.  Names are canonicalised and values trimmed. *)
