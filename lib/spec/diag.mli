(** Positioned diagnostics from the [.vspec] front end.

    The lexer, parser and elaborator never raise on bad input: they
    accumulate diagnostics, each anchored to a {!Loc.span}.  Every
    diagnostic is an error.  It carries a stable [code] naming its class,
    so tests and CI can assert on the class rather than the message
    text. *)

(** Diagnostic classes.  One constructor per kind of defect the front
    end detects; {!code_to_string} gives the stable wire name. *)
type code =
  | Lex
      (** Unrecognized character, unterminated string, bad escape,
          out-of-range number. *)
  | Parse  (** Grammar violation. *)
  | Unbound_var  (** Reference to an undeclared variable, or to a let out of scope. *)
  | Type_mismatch  (** Operand/assignment type conflict, arity errors. *)
  | Dup_state  (** State declared twice (initial/final/attack). *)
  | Unknown_sync  (** [sync] target machine that exists nowhere. *)
  | Unknown_param  (** A [param] the host does not bind. *)
  | Out_of_domain  (** Constant outside a variable's declared domain. *)
  | Dup_label  (** Duplicate transition label, machine name or variable name. *)
  | Structure  (** Missing initial state, [Machine.validate_spec] failures. *)

type t = { code : code; span : Loc.span; message : string }

val error : code -> Loc.span -> string -> t

val render : ?source:string -> t -> string
(** {!to_string} plus, when [source] is available, a caret-underlined
    snippet of the offending source line, GCC-style. *)

val to_json : t -> string
