(** Declarative guard/action IR for EFSM transitions.

    Guards are boolean {!pred} trees over machine variables ({!Env}) and
    event fields ({!Event}); actions are assignment lists plus the
    machine-level effects (sync sends, timer operations).  A transition
    carries only this syntax, which the static verifier in [lib/analyze]
    reasons over (disjointness, dataflow, channel usage);
    [Machine.compile] turns it into closures once per spec, so the engine
    hot path calls an ordinary [Env.t -> Event.t -> bool].

    Semantics are total: no IR evaluation raises.  An integer comparison
    whose operand is not an [Int] is simply false.

    A let ({!Int_let}, {!Pred_let}) names a value that several guards
    share.  It means its body: the interpreter and the verifier read
    through it, and a compiled program evaluates it at most once per
    step. *)

(** Value domain of a variable, used for declarations and bounded
    enumeration in the solver. *)
type domain =
  | D_int
  | D_bool
  | D_str
  | D_addr
  | D_enum of Value.t list  (** Finite set of possible values (besides [Unset]). *)

type var = Env.scope * string

type decl = var * domain

type cmp = Lt | Le | Gt | Ge | Ieq | Ine

type expr =
  | Const of Value.t
  | Var of var  (** Current value; [Unset] when never assigned. *)
  | Field of string  (** Event argument; [Unset] when absent. *)
  | Mk_addr of expr * expr  (** [Str h, Int p -> Addr (h, p)]; otherwise [Unset]. *)
  | Addr_host of expr  (** [Addr (h, _) -> Str h]; otherwise [Str ""]. *)
  | Of_int of iexpr  (** [Int n] when defined, [Unset] otherwise. *)
  | Of_pred of pred

and iexpr =
  | Int_const of int
  | Int_of of expr  (** Undefined when the operand is not an [Int]. *)
  | Int_or0 of expr  (** Non-[Int] operands read as [0] (counter idiom). *)
  | Add of iexpr * iexpr
  | Sub of iexpr * iexpr
  | Wrap of int * iexpr
      (** [Wrap (n, e)]: [e] as an [n]-bit two's-complement integer
          ([1 <= n <= Sys.int_size]), the serial-number difference of RTP
          sequence numbers ([n = 16]) and timestamps ([n = 32]). *)
  | Int_let of string * iexpr
      (** A named integer: its body.  Within a spec a name has one body. *)

and pred =
  | True
  | False
  | Not of pred
  | And of pred list
  | Or of pred list
  | Eq of expr * expr  (** Structural [Value.equal]. *)
  | Member of expr * Value.t list
  | Cmp of cmp * iexpr * iexpr  (** False when either side is undefined. *)
  | Has_field of string
  | Pred_let of string * pred
      (** A named predicate: its body.  Within a spec a name has one body. *)

type act =
  | Assign of var * expr
  | If of pred * act list * act list
  | Send_sync of { target : string; event_name : string; args : (string * expr) list }
  | Set_timer of { id : string; delay : Dsim.Time.t }
  | Cancel_timer of string

type t = { guard : pred; acts : act list }
(** A transition's declarative payload. *)

(** How an action's effects are built.  ['eff] is abstract here to avoid
    a cycle with {!Machine.effect}; {!Machine.builders} instantiates it. *)
type 'eff builders = {
  build_sync : target:string -> event_name:string -> args:(string * Value.t) list -> 'eff;
  build_set_timer : id:string -> delay:Dsim.Time.t -> 'eff;
  build_cancel_timer : string -> 'eff;
}

val apply_cmp : cmp -> int -> int -> bool

(** {1 Reference interpreter} *)

val eval_pred : Env.t -> Event.t -> pred -> bool
(** Test oracle: the tree-walking reading of a guard, behind the
    reference stepper that the compiled programs are held to. *)

val run_acts : 'eff builders -> act list -> Env.t -> Event.t -> 'eff list
(** Test oracle: the tree-walking reading of an action list, behind the
    reference stepper.  Executes assignments in order (side-effecting the
    [Env]) and returns emitted effects in order. *)

(** {1 Staged compiler}

    Builds a closure tree once per spec; the returned closures perform no
    IR-tree traversal and find nothing by name.  A field reads its slot of
    the {!Event} registry, a local its slot of [layout], an integer
    expression evaluates to an unboxed int, and [And], [Or] and action
    sequences run without allocating.  Behaviour is pointwise equal to the
    reference interpreter (qcheck-pinned).

    @raise Invalid_argument when a local is missing from [layout], or
    when [lets] already binds a let's name to another body. *)

type lets
(** The let cells of one program.  A guard compiled against it evaluates
    each let's body at most once between two {!next_step}s and keeps its
    value in the cell, which allocates nothing.  Actions read a let's body
    afresh. *)

val lets : unit -> lets

val next_step : lets -> unit
(** Starts a step: the guards evaluated after it see the step's state and
    event, not the values kept from the last step. *)

val compile_pred : lets -> Env.layout -> pred -> Env.t -> Event.t -> bool

val compile_acts : 'eff builders -> Env.layout -> act list -> Env.t -> Event.t -> 'eff list

(** {1 Introspection}

    All results are deduplicated.  Action walks visit both branches of
    every [If] (may-analysis); every walk reads through lets. *)

val pred_vars : pred -> var list

val pred_fields : pred -> string list
(** Test seam: the event fields a guard reads, from which the
    differential draws the fields of its random events. *)

val vars_of_expr : expr -> var list

val acts_fold : ('a -> act -> 'a) -> 'a -> act list -> 'a
(** Folds over every action node, descending into both branches of each
    [If]. *)

val acts_writes : act list -> var list
val acts_reads : act list -> var list
val acts_syncs : act list -> (string * string) list
(** Possible sync sends as (target machine, event name) pairs. *)

val acts_timers_set : act list -> string list
val acts_timers_cancelled : act list -> string list

val type_of_expr : expr -> domain option
(** Static type when syntactically evident ([None] for variables/fields). *)

(** {1 Rendering}

    A let renders as its body, so that the solver, which keys atoms by
    their text, reads a condition the same whether a let names it or a
    guard spells it. *)

val domain_to_string : domain -> string
val var_to_string : var -> string
val cmp_to_string : cmp -> string
val expr_to_string : expr -> string
val iexpr_to_string : iexpr -> string
val pred_to_string : pred -> string
