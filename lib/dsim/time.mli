(** Simulated time.

    All simulation timestamps and durations are integer microseconds, which
    keeps event ordering exact and runs reproducible across hosts.  Negative
    values are permitted for durations (e.g. time differences) but the
    scheduler never runs at a negative absolute time. *)

type t = int
(** Microseconds since the start of the simulation. *)

val zero : t

val of_sec : float -> t
(** [of_sec s] rounds [s] seconds to the nearest microsecond. *)

val to_sec : t -> float

val of_ms : float -> t

val to_ms : t -> float

val of_us : int -> t

val to_us : t -> int

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is [a - b]. *)

val compare : t -> t -> int

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val min : t -> t -> t

val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints as seconds with microsecond precision, e.g. ["12.345678s"]. *)
