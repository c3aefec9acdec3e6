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

type hooks = {
  on_alert : string -> notification -> unit;
      (** A machine entered an attack state. *)
  on_anomaly : string -> notification -> unit;
      (** A data event was rejected (specification deviation), or a
          nondeterminism bug was detected. *)
}
(** What a system reports to, given its owner first.  One record serves
    every system of a kind: a system holds its hooks and owner string, not
    closures of its own. *)

type t

val create : hooks:hooks -> owner:string -> timer_host -> t
(** A system with no machines, reporting as [owner] (a Call-ID, or a
    detector's key) to [hooks]. *)

val globals : t -> Env.globals
(** The shared global-variable store of this call's machines. *)

val owner : t -> string

val add_machine : t -> Machine.program -> Machine.t
(** Instantiates the program bound to this system's global store.  Machine
    names must be unique within the system. *)

val machine : t -> string -> Machine.t option

val inject : t -> machine:string -> Event.t -> unit
(** Delivers a data event (sync queues drain first, and again after).
    Sync events are delivered in the order they were sent: one sent while
    others drain runs after all of them. *)

val estimated_bytes : t -> int
(** Sum of the machines' local variable footprints. *)

(** {1 Checkpoint support}

    A system's transient channel state — queued δ synchronization events and
    armed timers — must survive a checkpoint/restore cycle for recovery to
    converge with an uninterrupted run. *)

val pending_sync : t -> (string * Event.t) list
(** Queued synchronization events in FIFO order, with their target machine
    (none between injections). *)

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
