(** Human-readable summaries of an engine's findings, for the CLI and for
    operators (the "notifies administrators for further analysis" output of
    paper §5). *)

val full : Format.formatter -> Engine.t -> unit
(** Traffic counters, alert totals by severity, fact-base occupancy and
    modeled memory, degraded intervals when there are any, and then the
    distinct alert log, grouped by kind, oldest first within a kind. *)

val json : Engine.t -> string
(** The full report as one JSON object: counters, memory/governance stats,
    degraded intervals, an [attacks_detected] flag
    ({!Alert.is_attack}), and the distinct alert log — the [--json] output
    of [detect]/[analyze]. *)
