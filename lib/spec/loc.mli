(** Source positions and spans for [.vspec] files.

    Every AST node carries a {!span} so the elaborator and (through
    [Analyze.Finding]) the static verifier can point findings back into
    the text the operator actually wrote.  Lines and columns
    are 1-based, like compilers and editors count them. *)

type pos = { file : string; line : int; col : int }

type span = { s : pos; e : pos }
(** Half-open: [e] is the position just past the last character. *)

val is_dummy : span -> bool
(** A span on line 0: a synthesized node's (e.g. a generated AST's), which
    renders no source line. *)

val merge : span -> span -> span
(** Covers both spans (assumes same file). *)

val to_string : span -> string
(** The start position as [file:line:col] — the conventional anchor. *)
