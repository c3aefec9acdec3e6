(** Bounded ingest queue with watermark-driven overload shedding.

    Sits between the packet sources and the engine, extending the
    engine's degradation ladder ({!Vids.Config.degrade_high_water}, which
    sheds stream-level RTP analysis first) one stage upstream: when the
    queue backs up past its high watermark, {e media} packets are shed at
    the door while signaling is still admitted — losing RTP costs
    stream-level checks, losing SIP costs call-state tracking, so SIP
    always wins.  At capacity the queue sheds its {e oldest} entry to
    admit the newcomer: under sustained overload the freshest traffic is
    the most valuable, because stale packets describe calls whose timers
    have already fired.

    Single-threaded by design — the daemon polls sources and drains the
    queue from one loop — so there are no locks to contend. *)

type t

val create : ?high_water:int -> capacity:int -> unit -> t
(** [high_water] defaults to 3/4 of [capacity].  Raises
    [Invalid_argument] unless [0 < high_water <= capacity]. *)

(** What happened to a pushed record. *)
type verdict =
  | Enqueued
  | Shed_media
      (** Above high water and classified as media: refused.  A payload
          whose first byte is an ASCII letter is signaling (requests start
          with a method token, responses with ["SIP/2.0"]); binary
          payloads are media.  Deliberately cruder than the engine's
          classifier — it runs before any parsing, on possibly hostile
          bytes. *)
  | Displaced_oldest  (** At capacity: enqueued, evicting the head. *)

val push : t -> Vids.Trace.record -> verdict

val pop : t -> Vids.Trace.record option

val length : t -> int

type stats = {
  enqueued : int;
  shed_media : int;
  shed_oldest : int;
  peak_depth : int;
  capacity : int;  (** The configured bound, for machine-readable reports. *)
  high_water : int;
}

val stats : t -> stats
