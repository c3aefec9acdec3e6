(** A SIP proxy server with an integrated registrar and location service
    (paper §2.1: "the SIP proxy server ... only facilitates the two end
    points to discover and contact each other").

    Forwarding is stateless (RFC 3261 §16.11): requests gain a Via with a
    branch derived deterministically from the incoming one so that
    retransmissions take identical paths; responses are routed by popping
    the Via stack.  REGISTER requests for the proxy's own domain are
    answered locally and recorded in the location service. *)

type t

val create :
  ?record_route:bool ->
  ?auth:(string -> string option) ->
  Transport.t ->
  domain:string ->
  dns:(string -> Dsim.Addr.t option) ->
  t
(** [dns domain] resolves a foreign domain to its inbound proxy.  With
    [record_route] the proxy inserts itself into dialog routes (RFC 3261
    §16.6 step 4, loose routing) so in-dialog requests keep flowing through
    it instead of going direct between the UAs.  With [auth] (a
    username→password credential store) REGISTERs are challenged with a
    401 digest challenge and only authenticated bindings are accepted. *)

val location : t -> Location.t
(** Test oracle: the registrar's bindings, which the registration and
    authentication tests read. *)

val handle_packet : t -> Dsim.Packet.t -> unit

val requests_forwarded : t -> int
(** Test oracle: requests relayed so far, by which the record-route and
    proxy tests see that a request crossed this proxy. *)
