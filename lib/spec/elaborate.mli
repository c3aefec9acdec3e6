(** Checking parsed machines and lowering them into {!Efsm.Ir}
    transitions, in one syntax-directed pass.

    Each construct resolves its names, checks its types and builds its IR
    node, and each defect is a positioned {!Diag.t}.  The pass never
    raises: it returns the elaborated machine or every diagnostic.  It
    builds syntax only ({!Efsm.Machine.ir_transition}); the engine
    compiles loaded specs and builtins alike with
    {!Efsm.Machine.compile}.

    Elaboration rules (also in DESIGN.md §13): [==]/[!=] are structural
    {!Efsm.Value.equal} ([Ir.Eq]); [<] [<=] [>] [>=] [=] [<>] are integer
    comparisons ([Ir.Cmp]) whose operands must be integer-shaped (an
    integer literal, [int(e)], [int0(e)], [+]/[-] arithmetic, or
    [wrap16(e)] and [wrap32(e)], the integer operand as a 16- or 32-bit
    two's-complement number, [Ir.Wrap]); an integer-shaped expression in
    value position is wrapped in [Of_int], a predicate-shaped one in
    [Of_pred].  A [param] is replaced by the value its host binding gives
    it: an [int] param by an integer constant, a [duration] param by a
    [set_timer] delay, and [{NAME}] in an attack description by the
    value's literal text ([6], [250ms]).  A [let] elaborates once into an
    [Ir.Int_let] (an integer-shaped body) or an [Ir.Pred_let] (a
    predicate-shaped one), which every guard that names it shares.  A
    let's body reads the lets above it, a guard every let, an action
    none. *)

type params = string -> (Ast.param_ty * int) option
(** The host's binding of a [param]: its type and value (microseconds for
    a duration), or [None] when the host binds no param of that name. *)

type elaborated = {
  el_file : string;  (** The source file the machine came from. *)
  el_spec : Efsm.Machine.spec;
  el_vars : Efsm.Ir.decl list;  (** Declared domains, for the verifier. *)
  el_state_spans : (string * Loc.span) list;  (** First mention of each state. *)
  el_trans_spans : (string * Loc.span) list;  (** Label -> declaration site. *)
}

val machine :
  known_machines:string list -> params:params -> Ast.machine -> (elaborated, Diag.t list) result
(** [known_machines] are the valid [sync] targets.  The diagnostics come
    in this order: declarations (duplicate names, states and labels,
    params the host does not bind or binds at another type, a missing
    initial state, description placeholders naming no param), then let
    bodies top to bottom, then each transition's guard and its
    actions. *)
