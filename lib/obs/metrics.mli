(** Instance-scoped registry of named, labeled metrics.

    The telemetry counterpart of the paper's §7 evaluation: every number
    the engine's hot paths produce — packet counts by class, machine
    injections, alert rates, fact-base occupancy, journal/checkpoint
    durations — registers here once and is sampled as a {!snapshot} for
    the exporters ({!Export}).

    Deterministic by construction: the registry itself never reads the
    wall clock.  Timestamps come from the {e virtual} clock the registry
    was created with, and histograms reduce through
    {!Dsim.Stat.Quantiles} (seeded reservoir) plus fixed log-scale
    buckets, so two identical runs export byte-identical files — except
    for explicitly wall-clock-valued observations (fsync and checkpoint
    durations), whose {e values} are inherently host-dependent.

    Snapshots are plain data, copied out of the live registry: later
    writes never reach a snapshot already taken.

    Registration is idempotent: asking for an existing (name, labels)
    pair returns the same handle, so instrument-attachment code can run
    unconditionally.  A name registered twice with different metric
    types raises [Invalid_argument]. *)

type t

val create : ?clock:(unit -> Dsim.Time.t) -> unit -> t
(** [clock] stamps snapshots with virtual time; defaults to a constant
    {!Dsim.Time.zero}. *)

val set_clock : t -> (unit -> Dsim.Time.t) -> unit

(** {1 Instruments} *)

type counter

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit
(** Negative increments are ignored — counters are monotone. *)

type gauge

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit

type histogram

val histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> histogram
(** Fixed log-scale buckets (powers of two from 1e-6 up, plus overflow)
    shared by every histogram; a seeded {!Dsim.Stat.Quantiles} reservoir
    rides along for p50/p95/p99. *)

val observe : histogram -> float -> unit

val bucket_bounds : float array
(** The shared upper bounds, smallest first; the implicit last bucket is
    +infinity. *)

(** {1 Snapshots} *)

type hist_snap = {
  buckets : int array;  (** Per-bucket (non-cumulative) counts; length [Array.length bucket_bounds + 1], last = overflow. *)
  count : int;
  sum : float;
  quantiles : Dsim.Stat.Quantiles.t;
}

type value = Counter of int | Gauge of float | Histogram of hist_snap

type row = {
  name : string;
  help : string;
  labels : (string * string) list;  (** Sorted by label name. *)
  value : value;
}

type snapshot = { at : Dsim.Time.t; rows : row list (** Sorted by (name, labels). *) }

val snapshot : t -> snapshot

val find : snapshot -> ?labels:(string * string) list -> string -> value option

val total : snapshot -> string -> int
(** Sum of every [Counter] row with this name across all label sets; 0
    when absent. *)
