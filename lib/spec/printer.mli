(** Canonical [.vspec] rendering.

    [print_file] is the canonical printer: [Parser.parse] of its output
    yields a span-ignoring structurally equal AST (the qcheck round-trip
    property in the test suite), and each builtin spec source is its own
    canonical print.  Comments are not part of the AST, so they do not
    survive a print. *)

val print_duration : int -> string
(** Microseconds as a duration literal in the largest exact unit:
    [250ms], [1s], [7us]. *)

val print_file : Ast.file -> string
(** Test oracle: the canonical printer, to which the round-trip property
    holds the parser, and through which generated machines reach the front
    end as text. *)
