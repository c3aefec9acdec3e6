(** Simulated UDP datagrams.

    The payload is raw wire bytes: SIP messages travel as their textual
    encoding and RTP as its binary encoding, so every consumer (including the
    intrusion detection system) exercises a real parser rather than being
    handed structured data. *)

type t = {
  id : int;  (** Unique per simulation run; useful for tracing. *)
  src : Addr.t;
  dst : Addr.t;
  payload : string;
  sent_at : Time.t;  (** Time the packet entered the network. *)
}

val size : t -> int
(** Bytes on the wire: payload plus a 28-byte IPv4+UDP header estimate. *)

type allocator
(** Hands out fresh packet ids. *)

val allocator : unit -> allocator

val make : allocator -> src:Addr.t -> dst:Addr.t -> sent_at:Time.t -> string -> t

val with_payload : t -> string -> t
(** Same packet identity with different wire bytes — how the fault
    injector models in-flight truncation and corruption. *)
