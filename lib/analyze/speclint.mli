(** Lint driver for [.vspec] files: front-end diagnostics plus verifier
    findings mapped back to source positions.  Shared by [vids-cli lint]
    and the test suite. *)

type result = {
  loaded : Spec.Elaborate.elaborated list;
  diags : Spec.Diag.t list;  (** Lex/parse/elaboration/structure diagnostics. *)
  report : Verifier.report;
      (** Verifier report over the successfully loaded machines, composed
          as one system.  Findings carry source spans where the machine's
          span tables can place them. *)
  sources : (string * string) list;  (** For caret-snippet rendering. *)
}

val lint_sources :
  ?known_machines:string list ->
  params:Spec.Elaborate.params ->
  (string * string) list ->
  result
(** Test seam: lints [(filename, source)] pairs as {!lint_files} lints
    the files it reads, so the spec tests can pass their fixtures inline;
    never raises. *)

val lint_files :
  ?known_machines:string list ->
  params:Spec.Elaborate.params ->
  string list ->
  (result, string) Stdlib.result
(** Reads each path and calls {!lint_sources}; [Error] only for I/O
    failures. *)

val ok : result -> bool
(** No diagnostics and no error-severity findings. *)

val render_text : result -> string
(** Caret-snippet diagnostics followed by the verifier report. *)

val render_json : result -> string
(** One object: [{"diagnostics": [...], "report": {...}, "ok": bool}]. *)
