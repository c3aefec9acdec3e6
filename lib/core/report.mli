(** Human-readable summaries of an engine's findings, for the CLI and for
    operators (the "notifies administrators for further analysis" output of
    paper §5). *)

val alerts : Format.formatter -> Engine.t -> unit
(** The distinct alert log, grouped by kind, oldest first within a kind. *)

val summary : Format.formatter -> Engine.t -> unit
(** Traffic counters, alert totals by severity, fact-base occupancy and
    modeled memory; when present, degraded intervals. *)

val full : Format.formatter -> Engine.t -> unit
(** [summary] followed by [alerts]. *)

val json : Engine.t -> string
(** The full report as one JSON object: counters, memory/governance stats,
    degraded intervals, an [attacks_detected] flag
    ({!Alert.is_attack}), and the distinct alert log — the [--json] output
    of [detect]/[analyze]. *)

val to_string : (Format.formatter -> Engine.t -> unit) -> Engine.t -> string
