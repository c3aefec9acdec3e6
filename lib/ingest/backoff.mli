(** Capped exponential backoff under a retry budget.

    The socket listener's retry arithmetic, shared with tests: each
    consecutive failure doubles (by [factor]) the wait, clamped at [cap]
    so the sensor never sleeps itself into uselessness, and bounded by
    [budget] total retries before giving up. *)

type t

val create : ?initial_s:float -> ?factor:float -> ?cap_s:float -> ?budget:int -> unit -> t
(** Defaults: 0.1 s initial, factor 2, 30 s cap, budget 8.  Raises
    [Invalid_argument] on a non-positive initial delay or factor < 1. *)

val next : t -> float option
(** The wait before the next retry, or [None] when the budget is spent.
    Each call consumes one retry. *)

val reset : t -> unit
(** A success: the delay returns to [initial_s] and the budget refills. *)
