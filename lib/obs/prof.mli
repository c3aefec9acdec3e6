(** Hot-path profiler: per-stage span timing and allocation attribution.

    The metrics of {!Metrics} count {e events}; this layer attributes
    {e wall time} and {e allocation} to the pipeline stages that produced
    them, so a perf regression (or the planned zero-copy parse / batched
    dispatch rewrite) has a measured before/after instead of a guess.

    A profiler owns a small fixed-depth span stack.  {!enter} pushes a
    stage frame recording the wall clock and the allocation counter;
    {!exit} pops it and accounts the frame's {e self} time and {e self}
    allocation — elapsed minus whatever nested child spans consumed — so
    per-stage totals are disjoint and sum to the outermost span's
    elapsed time.  That is what lets a driver wrap a whole run in a
    {!stage-Drive} span and report per-stage shares that add up to the
    measured end-to-end wall time.

    Everything lands in an ordinary {!Metrics} registry:

    - [vids_stage_seconds{stage}] — histogram of per-span self seconds on
      the shared log2 ladder, quantile reservoir riding along;
    - [vids_stage_alloc_words_total{stage}] — counter of self words
      allocated (minor-heap words; see the caveat below);
    - [vids_stage_spans_total{stage}] — counter of completed spans;
    - [vids_prof_mismatch_total] / [vids_prof_depth_overflow_total] —
      guard counters (a mismatched or over-deep span is counted and
      dropped, never an exception);
    - [vids_gc_*] gauges sampled by {!sample_gc}.

    Determinism: wall times and allocation counts are host-dependent by
    nature (the same explicit exception the fsync/checkpoint histograms
    already carry); everything else — span counts, stage names, export
    shape — is deterministic.  Tests inject [clock]/[alloc] to pin the
    values themselves.

    Allocation attribution caveat: the cheap per-span counter is
    [Gc.minor_words], so blocks larger than the minor heap's
    [Max_young_wosize] (big strings, large arrays) that are allocated
    directly on the major heap are invisible to per-span deltas; they do
    show up in the [vids_gc_*] gauges. *)

type stage =
  | Sip_parse  (** The SIP scan in the classifier ([Sip.Index.read]). *)
  | Sdp_parse  (** [Sdp.parse] of a SIP body during event construction. *)
  | Rtp_parse  (** RTP/RTCP decode in the classifier. *)
  | Efsm_dispatch  (** Guard+action injection into per-call machines. *)
  | Detect  (** Standalone detector machines (flood, spam, DRDoS). *)
  | Enforce_gate  (** Prevention-mode verdict for one packet. *)
  | Journal_fsync  (** Durability fsync of the write-ahead journal. *)
  | Checkpoint  (** The checkpoint step: snapshot capture + save + journal marker. *)
  | Ingest_poll  (** Daemon pulling datagrams from a source. *)
  | Drive  (** The driver loop itself: scheduling, clock bridging, glue. *)

val stage_name : stage -> string
(** The machine-stable label used in metric rows, reports and JSON
    ([sip-parse], [efsm-dispatch], …). *)

type t

val create :
  ?registry:Metrics.t ->
  ?flight:Trace.t ->
  ?sample_every:int ->
  ?clock:(unit -> float) ->
  ?alloc:(unit -> float) ->
  ?vclock:(unit -> Dsim.Time.t) ->
  unit ->
  t
(** [registry] defaults to a fresh one (retrieve it with {!registry}); all
    instruments are pre-resolved here so {!enter}/{!exit} never touch the
    registry's tables.  [flight], when given, receives a sampled
    {!Trace.Span} event every [sample_every] completed spans (default
    1024; [<= 0] disables sampling).  [clock] defaults to
    [Unix.gettimeofday], [alloc] to [Gc.minor_words], [vclock] — the
    virtual timestamp put on sampled events — to a constant zero. *)

val registry : t -> Metrics.t

val set_vclock : t -> (unit -> Dsim.Time.t) -> unit
(** Re-points the virtual clock stamping sampled [Span] events (the
    engine does this when a profiler is attached). *)

val enter : t -> stage -> unit
(** Pushes a span.  Beyond the fixed stack depth the span is counted as
    an overflow and not measured; never raises. *)

val exit : t -> stage -> unit
(** Pops the current span and accounts its self time/allocation.  An
    [exit] with an empty stack or a stage different from the top frame's
    increments [vids_prof_mismatch_total] and accounts nothing. *)

val depth : t -> int
(** Test oracle: the current nesting depth (0 when idle), which the
    profiler tests hold to 0 after faulty and overflowing use. *)

val sample_gc : t -> unit
(** Samples [Gc.quick_stat] into gauges: [vids_gc_heap_words],
    [vids_gc_top_heap_words], [vids_gc_minor_collections],
    [vids_gc_major_collections], [vids_gc_compactions],
    [vids_gc_allocated_words].  Call at export/report instants, not per
    packet. *)

(** {1 Reports}

    Built from any {!Metrics.snapshot}, so the CLI and the benches share
    one formatter. *)

type stage_report = {
  r_stage : string;
  r_spans : int;
  r_seconds : float;  (** Total self wall seconds. *)
  r_words : float;  (** Total self minor words allocated. *)
  r_p50_s : float;
  r_p95_s : float;
  r_p99_s : float;  (** Per-span self-seconds quantiles ([nan] when empty). *)
}

val report_of_snapshot : Metrics.snapshot -> stage_report list
(** One row per stage with at least one completed span, sorted by total
    self seconds, largest first. *)

val total_seconds : stage_report list -> float

val pp_table :
  ?records:int -> ?total_s:float -> Format.formatter -> stage_report list -> unit
(** The breakdown table: stage, spans, total self seconds, share of
    [total_s] (default: the rows' own sum), p50/p99 microseconds, and —
    with [records] — bytes allocated per record. *)

val report_json : ?records:int -> ?total_s:float -> stage_report list -> string
(** A JSON array of stage objects ranked by total self seconds, each with
    [stage], [spans], [self_s], [share], [alloc_words],
    [bytes_per_record] (with [records]) and quantiles. *)
