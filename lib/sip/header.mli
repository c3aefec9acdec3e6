(** SIP header field collection.

    Headers are an ordered multimap: order matters for Via and Route stacks.
    Field names compare case-insensitively and compact forms (["v"] for
    ["Via"], …) are normalized to their canonical long names at insertion. *)

type t

val empty : t

val canonical_name : string -> string
(** Expands compact forms and title-cases known fields, e.g.
    [canonical_name "i" = "Call-ID"], [canonical_name "cseq" = "CSeq"]. *)

val slot : string -> int -> int -> int
(** [slot s start stop] numbers the known field named by
    [s.\[start .. stop - 1\]] under any case or compact form, the same for
    every spelling of it, and is negative for any other name. *)

val slot_name : int -> string
(** The canonical name of a {!slot}. *)

val of_list : (string * string) list -> t
(** Fields whose names are already canonical, in order. *)

val add : t -> string -> string -> t
(** Appends at the end (after any same-named fields). *)

val add_first : t -> string -> string -> t
(** Prepends before any same-named fields (used for Via pushing). *)

val get : t -> string -> string option
(** First value of the field, if any. *)

val get_canonical : t -> string -> string option
(** [get] for a name already in canonical form ([canonical_name name =
    name], e.g. ["Call-ID"]), which it does not canonicalise again. *)

val find_slot : t -> int -> int -> string option
(** [find_slot t slot n] is the value of the [n]th field (from 0) named
    {!slot_name} [slot]. *)

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
