(** SIP response status codes. *)

type t = int

val is_provisional : t -> bool

val is_final : t -> bool

val is_success : t -> bool

val reason_phrase : t -> string
(** Default reason phrase for well-known codes; ["Unknown"] otherwise. *)
