(** The [.vspec] front end: parse, check, elaborate.

    One call takes raw sources and returns loaded machines plus every
    diagnostic collected along the way.  Machines whose own checks fail
    are not elaborated; clean machines still load, so one broken file in
    a batch does not hide the others.  Never raises on bad input. *)

type loaded = {
  l_file : string;  (** Source file the machine came from. *)
  l_name : string;  (** [spec_name], e.g. ["SIP"]. *)
  l_spec : Efsm.Machine.spec;
  l_vars : Efsm.Ir.decl list;
  l_state_spans : (string * Loc.span) list;
  l_trans_spans : (string * Loc.span) list;
}

val load_sources :
  ?known_machines:string list ->
  params:Elaborate.params ->
  (string * string) list ->
  loaded list * Diag.t list
(** [(filename, source)] pairs.  Machines defined anywhere in the batch
    are valid sync targets everywhere in it, on top of
    [known_machines].  Elaborated specs additionally pass through
    {!Efsm.Machine.validate_spec}; a failure is reported as a
    [Diag.Structure] error and the machine is dropped. *)

val load_files :
  ?known_machines:string list ->
  params:Elaborate.params ->
  string list ->
  (loaded list * Diag.t list * (string * string) list, string) result
(** Reads and loads each path.  The third component returns the sources
    for caret-snippet rendering.  [Error] only for I/O failures. *)

val span_for :
  loaded list -> machine:string -> state:string option -> transition:string option ->
  Loc.span option
(** Maps a verifier finding's coordinates back into [.vspec] source: the
    transition's declaration site when a label is given (compound
    ["a/b"] determinism labels resolve to the first), otherwise the
    state's first mention. *)
