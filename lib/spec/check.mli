(** Name-and-type resolution over the parsed AST.

    Validates everything the elaborator will rely on — declared
    variables, operator typing over the {!Efsm.Ir} linear-int/value
    fragment, duplicate states and labels, sync targets, extern
    references and param bindings, enum domains — and reports each
    defect as a positioned {!Diag.t}.  Never raises. *)

val machine :
  known_machines:string list ->
  externs:Elaborate.externs ->
  Ast.machine ->
  Diag.t list

val file :
  known_machines:string list ->
  externs:Elaborate.externs ->
  Ast.file ->
  Diag.t list
(** Checks every machine; machines defined in the file are themselves
    valid sync targets in addition to [known_machines]. *)
