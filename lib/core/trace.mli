(** Packet capture and offline replay.

    An online vIDS taps live traffic; this module gives it the pcap
    workflow: record the packets crossing the sensor to a capture file
    ({!Pcap}, the one format), then re-run the full analysis pipeline
    over the file later.  Replay reconstructs virtual time from the
    recorded timestamps so every timer-based pattern (flood windows, the
    BYE grace period T) behaves exactly as it did live. *)

type record = Pcap.record = {
  at : Dsim.Time.t;  (** Capture timestamp. *)
  src : Dsim.Addr.t;
  dst : Dsim.Addr.t;
  payload : string;  (** Raw wire bytes. *)
}

val save : out_channel -> record list -> unit
(** Writes [records] to the channel as a pcap capture ({!Pcap.write},
    which refuses what a frame cannot hold exactly); an empty list is the
    24-byte global header alone.  Open the channel in binary mode. *)

(** {1 Capture} *)

type recorder

val recorder : unit -> recorder

val tap : recorder -> Dsim.Scheduler.t -> Dsim.Packet.t -> unit
(** Shaped for [Dsim.Network.set_tap] after partial application. *)

val records : recorder -> record list
(** Chronological. *)

(** {1 Replay}

    Every replay of a capture goes through {!step}: the daemon's dispatch,
    {!replay} and {!replay_until}, recovery's suffix and its journaled
    decisions, [vids-cli analyze] and [profile].  A step advances the
    clock to just before the record's instant ([Dsim.Scheduler.advance_to])
    and then delivers the record, so one rule orders every instant, however
    and whenever its timers were armed:

    + the packets recorded at it run first, in capture order;
    + then the journaled decisions taken at it ({!play}'s [decisions]);
    + then the timers due at it, once the clock moves past it. *)

type player

val player : ?gate:(Dsim.Packet.t -> unit) -> Dsim.Scheduler.t -> Engine.t -> player
(** Replays onto an existing scheduler/engine pair.  [gate] takes each
    delivery instead of [Engine.process_packet]: an enforcement layer
    passes its own, so a replay drops the packets the live run dropped. *)

val step : player -> record -> record
(** Runs the timers due strictly before the record's instant, then
    delivers it.  The clock never moves backwards: a record stamped
    earlier is delivered at the current instant, and comes back with that
    instant (what the daemon's tee writes). *)

val play :
  ?decisions:(Dsim.Time.t * (unit -> unit)) list ->
  ?until:Dsim.Time.t ->
  player ->
  record list ->
  unit
(** One pass in time order over [records] (stably sorted) and
    [decisions] (journaled actions, stably sorted), then runs the clock to
    [until], or drains the queue without it — which never ends under a
    config whose periodic sweep re-arms itself.  Nothing stamped after
    [until] is delivered or run. *)

val replay : ?config:Config.t -> record list -> Engine.t
(** Runs a fresh engine over the trace, in any order, and returns it (with
    its alerts, counters and fact base) for inspection. *)

val replay_until :
  ?config:Config.t -> until:Dsim.Time.t -> record list -> Dsim.Scheduler.t * Engine.t
(** Test oracle: the uninterrupted run that the recovery and daemon
    digests are compared with.  Like {!replay} but stops the clock at a
    fixed horizon instead of draining the queue — required under configs
    whose periodic sweep re-arms itself forever, and for digest comparison
    at a common instant (see [Snapshot.digest]). *)
