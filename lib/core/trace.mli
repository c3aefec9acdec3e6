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

(** {1 Replay} *)

val schedule_into :
  ?inject:(Dsim.Packet.t -> unit) -> Dsim.Scheduler.t -> Engine.t -> record list -> int
(** Schedules every record as a packet-arrival event on an existing
    scheduler/engine pair (without running), returning how many were
    scheduled.  [inject] replaces the default delivery
    ([Engine.process_packet]) — an enforcement layer passes its own gate so
    a replay drops exactly the packets the live run dropped.  {!replay} is
    built on this; {!Recovery} uses it to queue the post-checkpoint suffix
    before restored timers are re-armed.  Records at times before the
    scheduler's clock raise [Invalid_argument] — filter first. *)

val replay : ?config:Config.t -> record list -> Engine.t
(** Runs an engine over the trace under virtual time and returns it (with
    its alerts, counters and fact base) for inspection.  Records need not
    be sorted. *)

val replay_until :
  ?config:Config.t -> until:Dsim.Time.t -> record list -> Dsim.Scheduler.t * Engine.t
(** Test oracle: the uninterrupted run that the recovery and daemon
    digests are compared with.  Like {!replay} but stops the clock at a
    fixed horizon instead of draining the queue — required under configs
    whose periodic sweep re-arms itself forever, and for digest comparison
    at a common instant (see [Snapshot.digest]). *)
