(** Rendering of verifier reports: text, JSON, annotated DOT. *)

val render_text : Verifier.report -> string

val render_json : Verifier.report -> string
(** Single JSON object: per-machine reports with findings, system-level
    findings, and severity totals. *)

val render_dot : Verifier.report -> Efsm.Machine.spec -> string
(** The spec's DOT diagram with this report's findings attached to the
    offending states and edges. *)
