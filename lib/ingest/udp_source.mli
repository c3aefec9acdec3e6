(** Non-blocking UDP listener with a budgeted reopen.

    The daemon's live front-end: binds a datagram socket and drains it in
    bounded batches from the ingestion loop.  Socket failures never
    propagate — a receive error closes the socket and schedules a rebind
    under a capped exponential {!Backoff} budget.  When the budget is
    spent the source reports itself dead ([gave_up]) and the daemon
    decides whether that is fatal (its only source) or not. *)

type t

type datagram = { src : Dsim.Addr.t; payload : string }

val listen :
  ?recv_buffer : int ->
  ?backoff:Backoff.t ->
  host:string ->
  port:int ->
  unit ->
  (t, string) result
(** Binds [host:port] non-blocking ([port] 0 picks an ephemeral port —
    the test harness's friend).  [recv_buffer] asks for SO_RCVBUF bytes
    (best effort; default 1 MiB) so a dispatch stall spills into kernel
    buffering before it drops datagrams. *)

val local_addr : t -> Dsim.Addr.t
(** The actually-bound address. *)

val recv_batch : t -> clock:Clock.t -> max:int -> datagram list
(** Up to [max] datagrams without blocking; an empty list means the
    socket is dry (or down awaiting its backoff deadline).  Handles the
    close-and-rebind lifecycle internally, using [clock] for backoff
    deadlines. *)

val alive : t -> bool
(** False once the reopen budget is spent. *)

val close : t -> unit

type stats = {
  received : int;
  recv_errors : int;
  reopens : int;
  gave_up : bool;
}

val stats : t -> stats
