(** Machine-readable renderers for metrics snapshots and flight-recorder
    traces.

    Two formats, one snapshot type: Prometheus text exposition (for
    scraping / promtool) and JSONL (one self-describing object per row,
    for ad-hoc analysis with jq).  {!write_metrics} picks the format from
    the file extension. *)

val write_metrics : path:string -> Metrics.snapshot -> unit
(** Writes the snapshot to [path], truncating.

    When the extension is [.json] or [.jsonl]: JSONL, one JSON object per
    row, newline-terminated.  Histogram rows carry non-cumulative bucket
    counts, [sum], [count], and p50/p95/p99.

    Otherwise: Prometheus text exposition format, version 0.0.4: [# HELP]/
    [# TYPE] headers per metric family, histograms expanded to cumulative
    [_bucket{le="…"}] series plus [_sum]/[_count], quantile estimates as
    [{quantile="0.5|0.95|0.99"}] gauge-style series under
    [<name>_quantile]. *)

val append_trace : ?reason:string -> path:string -> Trace.entry list -> unit
(** Appends the entries to [path] (creating it if missing), one JSON
    object per line, oldest first — append, not truncate, because one run
    can dump several times.  When [reason] is given, a leading
    [{"type": "dump", "reason": …}] marker object precedes the entries, so
    several dumps can share one file and stay attributable. *)
