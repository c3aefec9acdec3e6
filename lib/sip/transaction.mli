(** RFC 3261 §17 transaction state machines over unreliable (UDP) transport.

    Transactions own retransmission and timeout behaviour so the transaction
    user (UA core or proxy) only sees de-duplicated requests and responses.
    The server INVITE machine follows RFC 6026: 2xx responses are
    retransmitted by the transaction until the ACK arrives. *)

type transport = {
  sched : Dsim.Scheduler.t;
  send : Msg.t -> Dsim.Addr.t -> unit;  (** Hand a message to the wire. *)
}

(** {1 Client transactions} *)

module Client : sig
  type state = Calling | Trying | Proceeding | Completed | Terminated

  type t

  val create :
    transport ->
    Msg.t ->
    dst:Dsim.Addr.t ->
    on_response:(Msg.t -> unit) ->
    on_timeout:(unit -> unit) ->
    on_terminated:(unit -> unit) ->
    t
  (** Sends the request immediately.  INVITE and non-INVITE machines are
      selected from the request method.  [on_response] fires once per
      distinct provisional and once for the final response; for a non-2xx
      final to an INVITE the ACK is generated automatically. *)

  val receive : t -> Msg.t -> unit
  (** Feed a response matched to this transaction. *)

  val state : t -> state
  (** Test oracle: the §17.1 state, which the transaction tests step
      through. *)
end

(** {1 Server transactions} *)

module Server : sig
  type state = Trying | Proceeding | Completed | Accepted | Confirmed | Terminated

  type t

  val create :
    transport ->
    Msg.t ->
    src:Dsim.Addr.t ->
    on_ack:(Msg.t -> unit) ->
    on_terminated:(unit -> unit) ->
    t
  (** [src] is where responses are sent (the previous hop).  Retransmitted
      requests are absorbed (last response replayed). *)

  val receive : t -> Msg.t -> unit
  (** Feed a request (retransmission, or the ACK for an INVITE). *)

  val respond : t -> Msg.t -> unit
  (** Transaction user sends a response. *)

  val state : t -> state
  (** Test oracle: the §17.2 state, which the transaction tests step
      through. *)

  val request : t -> Msg.t
end
