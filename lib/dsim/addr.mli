(** Transport addresses: an IPv4-style host string plus a UDP port. *)

type t = { host : string; port : int }

val v : string -> int -> t

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int
(** Structural, so [Hashtbl.Make (Addr)] keys tables on addresses. *)

val host : t -> string

val port : t -> int

val to_string : t -> string
(** ["host:port"]. *)

val of_string : string -> t option
(** Parses ["host:port"]: [None] for an empty host or a port outside
    0–65535, which no UDP datagram can carry. *)
