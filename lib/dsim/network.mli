(** Topology, links and hop-by-hop packet forwarding.

    A network is a graph of named nodes joined by point-to-point links.  Each
    link models transmission serialization (bit rate), propagation delay and
    independent Bernoulli loss, which is everything the paper's OPNET
    topology configures (100BaseT LANs, DS1 uplinks, a 50 ms / 0.42% loss
    Internet cloud).  Packets are routed hop by hop over precomputed
    shortest paths so that mid-path nodes — the vIDS host in particular — can
    observe and delay traffic in flight. *)

type t

type node

val create : Scheduler.t -> Rng.t -> t

val scheduler : t -> Scheduler.t

val add_node : t -> name:string -> hosts:string list -> node
(** [hosts] are the IP-like host strings this node answers for.  A host may
    belong to at most one node. *)

val find_node : t -> host:string -> node option
(** Test seam: the node that owns a host, by which tests attach a host to
    a node that a testbed does not expose. *)

val connect :
  t -> node -> node -> rate_bps:float -> prop_delay:Time.t -> loss_prob:float -> unit
(** Adds a bidirectional link.  [rate_bps <= 0] means infinite rate. *)

val set_handler : node -> (Packet.t -> unit) -> unit
(** Called for packets whose destination host belongs to this node. *)

val set_tap : node -> (Packet.t -> unit) option -> unit
(** Passive monitor invoked for every packet that arrives at this node,
    whether delivered locally or forwarded. *)

val set_transit_delay : node -> (Packet.t -> Time.t) option -> unit
(** Inline processing delay added before forwarding a transit packet (the
    vIDS host uses this when deployed online). *)

val send : t -> from:node -> Packet.t -> unit
(** Injects a packet at [from]; it is forwarded toward [Packet.dst].  A
    packet for an unroutable destination is dropped. *)

val make_packet : t -> src:Addr.t -> dst:Addr.t -> string -> Packet.t
(** Allocates a packet stamped with the current simulation time. *)

(** Per-direction link usage, for utilization reports. *)
type link_stats = {
  from_node : string;
  to_node : string;
  rate_bps : float;
  tx_packets : int;
  tx_bytes : int;
  lost_packets : int;
}

val link_stats : t -> link_stats list
(** One entry per link direction, in node order. *)

(** {1 Fault injection}

    An adversarial transmission layer for torture-testing whatever listens
    on the network — the intrusion detection sensor in particular.  When a
    profile is installed, every link traversal may lose the packet in a
    burst, truncate or bit-flip its payload, duplicate it, or hold a copy
    back so it arrives out of order.  All randomness is drawn from the
    network's deterministic {!Rng}, so a torture run replays exactly. *)

type fault_profile = {
  truncate_prob : float;  (** Chance the payload is cut to a random prefix. *)
  corrupt_prob : float;  (** Chance 1–4 payload bytes are bit-flipped. *)
  duplicate_prob : float;  (** Chance the packet is delivered twice. *)
  reorder_prob : float;  (** Chance a copy is held back. *)
  reorder_delay : Time.t;  (** Maximum hold-back when reordered. *)
  burst_loss_prob : float;  (** Chance a loss burst starts at this packet. *)
  burst_length : int;  (** Packets consumed by one burst. *)
}

val pristine : fault_profile
(** Test seam: the fault layer is driven only by the torture and soak
    tests.  All probabilities zero — a convenient base for
    [{ pristine with ... }]. *)

val set_fault_profile : t -> fault_profile option -> unit
(** Test seam: installs (or clears) the fault layer for the whole
    network, for the torture and soak tests. *)

type fault_stats = {
  truncated : int;
  corrupted : int;
  duplicated : int;
  reordered : int;
  burst_lost : int;
}

val fault_stats : t -> fault_stats
(** Test seam: what the fault layer did, for the torture tests. *)
