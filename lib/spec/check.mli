(** Name-and-type resolution over the parsed AST.

    Validates everything the elaborator will rely on — declared
    variables, operator typing over the {!Efsm.Ir} linear-int/value
    fragment, the shape and scope of lets, duplicate states and labels,
    sync targets, param bindings, enum domains — and reports each defect
    as a positioned {!Diag.t}.  Never raises. *)

val machine :
  known_machines:string list ->
  params:Elaborate.params ->
  Ast.machine ->
  Diag.t list
