(** The [.vspec] front end: parse, then check and elaborate in one pass.

    One call takes raw sources and returns loaded machines plus every
    diagnostic collected along the way.  Machines with a diagnostic of
    their own are not loaded; clean machines still load, so one broken
    file in a batch does not hide the others.  Never raises on bad
    input. *)

val load_sources :
  ?known_machines:string list ->
  params:Elaborate.params ->
  (string * string) list ->
  Elaborate.elaborated list * Diag.t list
(** [(filename, source)] pairs.  Machines defined anywhere in the batch
    are valid sync targets everywhere in it, on top of
    [known_machines].  A machine name defined again later in the batch
    is a [Diag.Dup_label] error at each later definition, and only its
    first definition is loaded.  Elaborated specs additionally pass
    through {!Efsm.Machine.validate_spec}; a failure is reported as a
    [Diag.Structure] error and the machine is dropped. *)

val read_files : string list -> ((string * string) list, string) result
(** Each path with its contents, for {!load_sources}.  [Error] names the
    first path that cannot be read. *)

val span_for :
  Elaborate.elaborated list ->
  machine:string ->
  state:string option ->
  transition:string option ->
  Loc.span option
(** Maps a verifier finding's coordinates back into [.vspec] source: the
    transition's declaration site when a label is given (compound
    ["a/b"] determinism labels resolve to the first), otherwise the
    state's first mention. *)
