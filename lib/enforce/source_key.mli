(** Canonical traffic-source identity shared by the enforcement block
    table and the ingest quarantine.

    Both subsystems key per-source state on attacker-controlled addresses;
    using one normalization (lowercased host, explicit host-only vs
    host:port distinction) guarantees that a source quarantined at the
    parse boundary and the same source blocked by an alert-driven rule
    agree on identity — and that neither can be split into two records by
    case games in a hostname. *)

type t =
  | Host of string  (** Every port on the host — signaling-level blocks. *)
  | Endpoint of string * int  (** One UDP endpoint — media-level blocks. *)

val host : string -> t
(** Normalizes (lowercases) the host. *)

val of_addr : Dsim.Addr.t -> t
(** The endpoint key for a datagram's source address. *)

val host_of_addr : Dsim.Addr.t -> t

val to_string : t -> string
(** [host] or [host:port]; {!of_string} inverts it. *)

val of_string : string -> (t, string) result
(** Total: a malformed port comes back as [Error].  A trailing [:]
    segment that parses as an integer makes an [Endpoint]; anything else
    is a [Host] (hosts here are simulation labels, not IPv6 literals). *)
