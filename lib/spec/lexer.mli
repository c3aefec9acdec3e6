(** Hand-written lexer for [.vspec] text.

    Total: unrecognized input produces a [Diag.Lex] diagnostic and the
    lexer skips forward, so the parser always receives a token stream
    ending in {!EOF}.  Comments run from [#] to end of line.  Duration
    literals are an integer immediately followed by [s], [ms] or [us]
    and carry microseconds.  A literal beyond [max_int] (microseconds,
    for a duration) is a [Diag.Lex] diagnostic and lexes as 0. *)

type kind =
  | IDENT of string
  | INT of int
  | STRING of string
  | DURATION of int  (** microseconds *)
  | FIELD of string  (** [$name] *)
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | COLON
  | DOT
  | ARROW  (** [->] *)
  | ASSIGN  (** [:=] *)
  | AMPAMP
  | BARBAR
  | BANG
  | EQEQ
  | BANGEQ
  | LT
  | LE
  | GT
  | GE
  | EQ  (** [=] — integer equality *)
  | NE  (** [<>] — integer inequality *)
  | PLUS
  | MINUS
  | EOF

type token = { kind : kind; span : Loc.span }

val tokenize : file:string -> string -> token list * Diag.t list
(** The token list always ends with an [EOF] token. *)

val kind_to_string : kind -> string
(** For parser error messages. *)
