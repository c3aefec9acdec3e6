(** The discrete-event engine.

    A scheduler owns the simulation clock and a priority queue of pending
    events.  Events scheduled at equal times fire in scheduling order (FIFO),
    which the protocol machines rely on for deterministic replay. *)

type t

type timer
(** Handle to a scheduled event, usable for cancellation. *)

val create : unit -> t

val now : t -> Time.t
(** Current simulation time. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> timer
(** [schedule_at t when_ f] runs [f] at absolute time [when_].  Scheduling in
    the past raises [Invalid_argument]. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> timer
(** [schedule_after t delay f] runs [f] at [now t + delay]. *)

val cancel : timer -> unit
(** Cancelling an already-fired or already-cancelled timer is a no-op. *)

val fire_time : timer -> Time.t
(** Absolute time the timer is (or was) due to fire; used when
    checkpointing pending timers. *)

val pending : t -> int
(** Test oracle: the number of live (non-cancelled) queued events, which
    the timer-model property holds to [Efsm.System.pending_timers]. *)

val run : t -> unit
(** Runs events until the queue is empty. *)

val run_until : t -> Time.t -> unit
(** [run_until t limit] runs events with timestamps [<= limit], then advances
    the clock to [limit]. *)

val advance_to : t -> Time.t -> unit
(** [advance_to t target] runs events with timestamps strictly before
    [target], then sets the clock to [target], leaving events due exactly at
    [target] queued.  A replay calls it before delivering each packet, so
    the packet runs before the timers due at its instant.  A [target]
    before the current clock is a no-op (the clock never moves
    backwards). *)
