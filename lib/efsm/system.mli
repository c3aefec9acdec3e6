(** Communicating EFSMs (paper §4.2, Figure 2b).

    A system groups the machine instances of one call and the reliable FIFO
    synchronization queues between them.  Synchronization events waiting in
    a queue have strictly higher priority than data packet events: a data
    event is only handed to its machine once every sync queue is drained.

    Timers requested by machine actions are armed on a {!timer_host}; expiry
    re-enters the owning machine as an [Event.Timer] event. *)

type timer_host = {
  now : unit -> Dsim.Time.t;
  set : Dsim.Time.t -> (unit -> unit) -> Dsim.Scheduler.timer;
  cancel : Dsim.Scheduler.timer -> unit;
}

val timer_host_of_scheduler : Dsim.Scheduler.t -> timer_host

type notification = {
  machine : string;
  state : string;  (** State after (alerts) or at (anomalies) the event. *)
  event : Event.t;
  detail : string;
}

type t

val create :
  ?on_alert:(notification -> unit) ->
  ?on_anomaly:(notification -> unit) ->
  timer_host ->
  t
(** [on_alert] fires when a machine enters an attack state; [on_anomaly]
    when a data event is rejected (specification deviation) or a
    nondeterminism bug is detected. *)

val globals : t -> Env.globals
(** The shared global-variable store of this call's machines. *)

val add_machine : t -> Machine.program -> Machine.t
(** Instantiates the program bound to this system's global store.  Machine
    names must be unique within the system. *)

val machine : t -> string -> Machine.t option

val machines : t -> Machine.t list

val inject : t -> machine:string -> Event.t -> unit
(** Delivers a data event (sync queues drain first, and again after). *)

val queued_sync : t -> int
(** Outstanding synchronization events (should be 0 between injections). *)

val estimated_bytes : t -> int
(** Sum of the machines' local variable footprints. *)

(** {1 Checkpoint support}

    A system's transient channel state — queued δ synchronization events and
    armed timers — must survive a checkpoint/restore cycle for recovery to
    converge with an uninterrupted run. *)

val pending_sync : t -> (string * Event.t) list
(** Queued synchronization events in FIFO order, with their target machine. *)

val push_sync : t -> target:string -> Event.t -> unit
(** Re-enqueues a synchronization event during restore (appends in call
    order, preserving FIFO). *)

val pending_timers : t -> (string * string * Dsim.Time.t) list
(** Armed timers as (machine, timer id, absolute fire time), sorted. *)

val restore_timer : t -> machine:string -> id:string -> fire_at:Dsim.Time.t -> unit
(** Re-arms a timer to fire at [fire_at] (immediately if that is already in
    the past), routing expiry to the owning machine as usual. *)

val release : t -> unit
(** Cancels all pending timers; call when the call record is deleted. *)
