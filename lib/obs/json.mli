(** Minimal JSON writing helpers for the telemetry exporters.

    Emission only — the observability layer writes machine-readable files
    but never parses them back, so no decoder lives here.  Strings are
    escaped per RFC 8259 (quotes, backslash, control characters); floats
    render with enough digits to round-trip, and non-finite floats (which
    JSON cannot carry) render as [null]. *)

val quote : string -> string
(** ["…"] with JSON escaping applied. *)

val float : float -> string
(** Round-trippable float literal; [nan]/[inf] become [null]. *)

val int : int -> string

val bool : bool -> string

val obj : (string * string) list -> string
(** [{"k": v, …}] from already-rendered value strings. *)

val arr : string list -> string
(** [[v, …]] from already-rendered value strings. *)
