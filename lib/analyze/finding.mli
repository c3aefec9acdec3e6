(** Verifier findings: severity plus machine/state/transition coordinates. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string

type t = {
  severity : severity;
  pass : string;  (** Which verifier pass produced it (e.g. ["determinism"]). *)
  machine : string;
  state : string option;
  transition : string option;  (** Transition label. *)
  span : Spec.Loc.span option;
      (** Source position when the machine was loaded from a [.vspec]
          file; [None] for compiled-in specs. *)
  message : string;
}

val make :
  ?state:string ->
  ?transition:string ->
  ?span:Spec.Loc.span ->
  severity:severity ->
  pass:string ->
  machine:string ->
  string ->
  t

val with_span : Spec.Loc.span option -> t -> t

val is_error : t -> bool

val compare : t -> t -> int
(** Severity-major ordering for stable reports. *)

val to_string : t -> string
(** One line: [severity [pass] machine at state/transition: message],
    prefixed with [file:line:col:] when a span is attached. *)

val to_json : t -> string
