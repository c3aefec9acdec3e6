(** UDP transport binding a SIP entity to its network node. *)

type t

val create : Dsim.Network.t -> Dsim.Network.node -> local:Dsim.Addr.t -> t

val local : t -> Dsim.Addr.t

val scheduler : t -> Dsim.Scheduler.t

val send_msg : t -> Sip.Msg.t -> Dsim.Addr.t -> unit
(** Serializes and injects the message at this entity's node. *)

val send_raw : t -> src:Dsim.Addr.t -> dst:Dsim.Addr.t -> string -> unit
(** Sends arbitrary bytes (RTP, or deliberately malformed traffic) from a
    chosen source address on this node. *)

val txn_transport : t -> Sip.Transaction.transport
(** The same wire, shaped for the transaction layer. *)
