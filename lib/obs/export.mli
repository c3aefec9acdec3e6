(** Machine-readable renderers for metrics snapshots and flight-recorder
    traces.

    Two formats, one snapshot type: Prometheus text exposition (for
    scraping / promtool) and JSONL (one self-describing object per row,
    for ad-hoc analysis with jq).  Rendering is pure string production;
    the [write_*] helpers add file plumbing and pick a format from the
    file extension. *)

val prometheus : Metrics.snapshot -> string
(** Prometheus text exposition format, version 0.0.4: [# HELP]/[# TYPE]
    headers per metric family, histograms expanded to cumulative
    [_bucket{le="…"}] series plus [_sum]/[_count], quantile estimates as
    [{quantile="0.5|0.95|0.99"}] gauge-style series under
    [<name>_quantile]. *)

val metrics_jsonl : Metrics.snapshot -> string
(** One JSON object per row, newline-terminated.  Histogram rows carry
    non-cumulative bucket counts, [sum], [count], and p50/p95/p99. *)

val metrics_json : Metrics.snapshot -> string
(** The whole snapshot as a single JSON object
    [{"at_us": …, "metrics": [row, …]}]. *)

val write_metrics : path:string -> Metrics.snapshot -> unit
(** Writes the snapshot to [path], truncating: JSONL when the extension
    is [.json] or [.jsonl], Prometheus text otherwise. *)

val append_trace : ?reason:string -> path:string -> Trace.entry list -> unit
(** Appends the entries to [path] (creating it if missing), one JSON
    object per line, oldest first — append, not truncate, because one run
    can dump several times.  When [reason] is given, a leading
    [{"type": "dump", "reason": …}] marker object precedes the entries, so
    several dumps can share one file and stay attributable. *)
