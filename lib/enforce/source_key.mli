(** Canonical traffic-source identity: the key of every enforcement rule
    and of the parse-failure strikes the enforcer charges.

    Keys are attacker-controlled addresses, so one normalization
    ({!Vids.Keys.canonical_host}, the rule the detectors key on) and an
    explicit host-only vs host:port distinction keep a source from being
    split into two records by case games in a hostname.  Strikes and the
    rules they earn are endpoint-scoped: NATed or loopback deployments
    see many independent senders behind one IP, and one hostile socket
    must not take its neighbours down with it. *)

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
