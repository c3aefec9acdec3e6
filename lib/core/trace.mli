(** Packet trace capture and offline replay.

    An online vIDS taps live traffic; this module gives it the pcap-style
    workflow: record the packets crossing the sensor to a portable text
    format, then re-run the full analysis pipeline over the file later.
    Replay reconstructs virtual time from the recorded timestamps so every
    timer-based pattern (flood windows, the BYE grace period T) behaves
    exactly as it did live. *)

type record = {
  at : Dsim.Time.t;  (** Capture timestamp. *)
  src : Dsim.Addr.t;
  dst : Dsim.Addr.t;
  payload : string;  (** Raw wire bytes. *)
}

(** {1 Text serialization}

    One record per line: [<at_us> <src> <dst> <hex payload>]. *)

val record_to_line : record -> string
(** Test seam: one record's line, which the round-trip and damaged-capture
    tests write. *)

val add_record_line : Buffer.t -> record -> unit
(** Appends [record_to_line r], for writers that reuse one buffer. *)

val record_of_line : string -> (record, string) result
(** Test seam: reads one line back, as the round-trip tests do. *)

val save : out_channel -> record list -> unit

val load : in_channel -> (record list, string) result
(** Stops at the first malformed line with its line number. *)

val load_lenient : in_channel -> record list * (int * string) list
(** Best-effort load for damaged captures (e.g. a file torn by a crash):
    malformed lines are skipped and reported as [(line, reason)] instead of
    aborting. *)

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
