(** Per-entity transaction bookkeeping: matches incoming SIP messages to
    client/server transactions (RFC 3261 §17.1.3/§17.2.3) and surfaces the
    rest to the transaction user. *)

type callbacks = {
  on_request : Sip.Msg.t -> src:Dsim.Addr.t -> Sip.Transaction.Server.t -> unit;
      (** A new server transaction was created for this request. *)
  on_cancel : Sip.Msg.t -> src:Dsim.Addr.t -> Sip.Transaction.Server.t option -> unit;
      (** A CANCEL arrived; the option is the INVITE server transaction it
          targets (answered with its own 200 by the manager already). *)
  on_ack : Sip.Msg.t -> src:Dsim.Addr.t -> unit;
      (** An ACK that matched no transaction (i.e. the ACK for a 2xx). *)
  on_stray_response : Sip.Msg.t -> src:Dsim.Addr.t -> unit;
}

type t

val create : Transport.t -> callbacks -> t

val request :
  t ->
  Sip.Msg.t ->
  dst:Dsim.Addr.t ->
  on_response:(Sip.Msg.t -> unit) ->
  on_timeout:(unit -> unit) ->
  Sip.Transaction.Client.t
(** Starts a client transaction (sends the request). *)

val handle_packet : t -> Dsim.Packet.t -> unit
(** Feed every SIP datagram addressed to this entity here.  Unparsable
    messages are dropped (counted). *)
