(** Declarative guard/action IR for EFSM transitions.

    Guards are boolean {!pred} trees over machine variables ({!Env}) and
    event fields ({!Event}); actions are assignment lists plus the
    machine-level effects (sync sends, timer operations).  A transition
    carries only this syntax, which the static verifier in [lib/analyze]
    reasons over (disjointness, dataflow, channel usage);
    [Machine.compile] turns it into closures once per spec, so the engine
    hot path calls an ordinary [Env.t -> Event.t -> bool].

    Semantics are total: no IR evaluation raises.  In particular an
    integer comparison whose operand is not an [Int] is simply false —
    mirroring how [Machine.step] treats a [Value.Type_error] escaping an
    opaque guard.  The two disagree only on
    events that bind an expected field to a value of the wrong type,
    which the packet classifiers never produce; the digest-transparency
    test pins the end-to-end equivalence.

    A guard that cannot be expressed here (the media-spam machine's
    stream-discontinuity test) uses the {!Opaque} escape hatch, which
    declares its reads so that analyses degrade gracefully instead of
    silently losing soundness.  Actions have no escape hatch. *)

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
  | Opaque of opaque_pred

and opaque_pred = {
  pred_name : string;  (** Identity for the solver: same name = same truth value. *)
  pred_reads : var list;  (** Declared variable reads (trusted). *)
  pred_fields : string list;  (** Declared event-field reads (trusted). *)
  holds : Env.t -> Event.t -> bool;
}

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

val wrap : int -> int -> int
(** [wrap n x] is [x] as an [n]-bit two's-complement integer, the value
    of [Wrap (n, _)]: [wrap 16 (b - a)] is RTP's sequence-number distance
    from [a] to [b], [wrap 32 (b - a)] its timestamp distance. *)

(** {1 Reference interpreter} *)

val eval_pred : Env.t -> Event.t -> pred -> bool

val run_acts : 'eff builders -> act list -> Env.t -> Event.t -> 'eff list
(** Executes assignments in order (side-effecting the [Env]) and returns
    emitted effects in order. *)

(** {1 Staged compiler}

    Builds a closure tree once per spec; the returned closures perform no
    IR-tree traversal and find nothing by name.  A field reads its slot of
    the {!Event} registry, a local its slot of [layout], an integer
    expression evaluates to an unboxed int, and [And], [Or] and action
    sequences run without allocating.  Behaviour is pointwise equal to the
    reference interpreter (qcheck-pinned).

    @raise Invalid_argument when a local is missing from [layout]. *)

val compile_pred : Env.layout -> pred -> Env.t -> Event.t -> bool

val compile_acts : 'eff builders -> Env.layout -> act list -> Env.t -> Event.t -> 'eff list

(** {1 Introspection}

    All results are deduplicated.  Action walks visit both branches of
    every [If] (may-analysis); guard walks trust opaque declarations. *)

val pred_vars : pred -> var list
val pred_fields : pred -> string list
val pred_opaque_names : pred -> string list
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

(** {1 Rendering} *)

val domain_to_string : domain -> string
val var_to_string : var -> string
val cmp_to_string : cmp -> string
val expr_to_string : expr -> string
val iexpr_to_string : iexpr -> string
val pred_to_string : pred -> string
