(** Wall-clock abstraction for the live-ingestion daemon.

    Everything inside the sensor runs on the deterministic virtual clock
    ({!Dsim.Scheduler}); the daemon is the one place real time enters the
    system.  It does so only through this record, so every component that
    paces, times out, backs off or quarantines can run under a {!manual}
    clock in tests and benches — instantly and deterministically — while
    production uses {!system}.

    Times are seconds as a float (the natural unit of
    [Unix.gettimeofday]); the daemon converts elapsed wall seconds to
    virtual {!Dsim.Time.t} at its clock bridge and nowhere else. *)

type t = {
  now : unit -> float;  (** Seconds since an arbitrary origin; monotone non-decreasing. *)
  sleep : float -> unit;  (** Blocks for the given seconds (no-op when <= 0). *)
}

val system : unit -> t
(** [Unix.gettimeofday] + [Unix.sleepf], hardened into monotonicity: a
    backwards step of the system clock (NTP correction) is absorbed by
    holding the reported time still rather than travelling back. *)

val manual : ?start:float -> unit -> t
(** A virtual wall clock for tests: [now] returns the current setting and
    [sleep d] advances it by [d], so paced ingestion runs at memory speed. *)
