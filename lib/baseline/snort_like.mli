(** A stateless, per-packet signature matcher in the style the paper
    attributes to Snort [11]: each datagram is inspected in isolation
    against a rule list.

    Used by the ablation benchmark to show what statelessness costs: every
    cross-protocol or multi-packet pattern (BYE DoS, billing fraud, CANCEL
    from a third party, INVITE floods, sequence-gap media spam) is invisible
    because no rule can refer to an earlier packet. *)

type rule = {
  name : string;
  kind : Vids.Alert.kind;
  matches : Dsim.Packet.t -> bool;
}

type t

val create : rule list -> t

val default_rules : rule list
(** Malformed SIP, disallowed RTP payload types, RTP version violations,
    and a CANCEL-from-outside pattern that needs a static site prefix —
    the best a stateless matcher can do against §3's threats. *)

val process : t -> Dsim.Packet.t -> Vids.Alert.t list
(** Alerts triggered by this packet (not deduplicated — stateless). *)

val alerts_total : t -> int
