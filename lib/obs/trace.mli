(** Pipeline flight recorder: a bounded ring buffer of structured events.

    Cheap enough to leave on in production — recording is one array store
    plus the event allocation, nothing is formatted until a dump — the
    ring holds the last [capacity] pipeline events (packet classified,
    event distributed to a machine, attack-state transition, alert,
    quarantine, eviction, checkpoint).  When something goes wrong — an
    [Engine_fault] quarantine — or the daemon shuts down, {!dump} snapshots
    the tail and hands it to every registered sink, turning "a fault was
    contained and counted" into a diagnosable artifact: the exact event
    sequence that led up to the fault.

    Events carry only plain strings, addresses and the virtual timestamp,
    so the recorder knows nothing about the engine's types and the
    engine's behaviour can never depend on what was recorded. *)

type event =
  | Packet of { proto : string; src : Dsim.Addr.t; dst : Dsim.Addr.t }
      (** Classifier verdict for one wire packet.  Addresses stay
          unrendered until a dump: recording must not pay for
          formatting. *)
  | Dispatch of { target : string; subject : string }
      (** The event distributor handing an event to a machine:
          [target] is [call]/[flood]/[spam]/[drdos], [subject] the
          Call-ID or detector key. *)
  | Transition of { machine : string; subject : string; state : string }
      (** A machine entering a named (attack or anomalous) state. *)
  | Alert of { kind : string; subject : string }
  | Quarantine of { subject : string; origin : string }
      (** A faulting call or detector being removed. *)
  | Eviction of { subject : string; detail : string }
      (** Resource governance reclaiming a record. *)
  | Checkpoint of { seq : int }
  | Ingest of { action : string; detail : string }
      (** A live-ingestion boundary event: overload shedding, a source
          quarantine, a socket backoff/reopen.  [action] is a short
          machine-stable tag ([shed-media], [quarantine], …). *)
  | Enforce of { action : string; subject : string }
      (** An enforcement decision: a rule installed or expired, a packet
          dropped or rate-limited, a forced call teardown.  [action] is a
          short machine-stable tag ([block], [rate-limit], [teardown],
          [expire], [lockdown], …). *)
  | Span of { stage : string; self_s : float; words : float }
      (** A sampled profiler span ({!Prof}): one completed stage span's
          self wall seconds and self minor words allocated.  Sampled, not
          exhaustive — the per-stage totals live in the metrics. *)
  | Note of { label : string; detail : string }
      (** Free-form marker (run phases). *)

type entry = {
  seq : int;  (** Monotone event number since creation (never wraps). *)
  at : Dsim.Time.t;
  ev : event;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 256 retained events; raises [Invalid_argument]
    when not positive. *)

val recorded : t -> int
(** Total events ever recorded (≥ the number retained). *)

val record : t -> at:Dsim.Time.t -> event -> unit

val entries : t -> entry list
(** The retained tail, oldest first. *)

val on_dump : t -> (reason:string -> entry list -> unit) -> unit
(** Registers a sink for {!dump}.  Sink exceptions are swallowed:
    observation must never unwind the pipeline being observed. *)

val dump : t -> reason:string -> entry list
(** Snapshots the retained tail, notifies every sink, and returns the
    entries (oldest first).  The ring is not cleared — overlapping dumps
    are fine. *)

val entry_to_json : entry -> string
(** One JSON object: [{"seq": …, "at_us": …, "event": …, …}]. *)
