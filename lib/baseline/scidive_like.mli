(** A stateful cross-protocol rule matcher in the style of SCIDIVE (Wu et
    al., DSN 2004), the closest prior system the paper compares against.

    Packets are aggregated into per-session state records; rules fire on the
    aggregated state ("stateful matching") and may correlate SIP with RTP
    ("cross-protocol matching").  Unlike vIDS there is no protocol state
    machine: only the rule-matching engine's flags, so a behaviour not
    anticipated by a rule — an out-of-place message, an impossible
    transition — passes silently, which is the misuse-detection weakness
    §8 points out. *)

type t

val create : ?bye_grace:Dsim.Time.t -> Dsim.Scheduler.t -> unit -> t

val process : t -> Dsim.Packet.t -> Vids.Alert.t list

val alerts_total : t -> int
