(** Extended finite state machines (paper §4.1, Definition 1).

    A machine specification is the quintuple (Σ, S, v, D, T): the event
    alphabet is whatever {!trigger}s mention, states are strings, the
    variable vector and domains live in {!Env}, and each transition
    ⟨s_t, event, P_t, A_t, q_t⟩ carries a guard [P_t] over the input vector
    x̄ and current variables v̄, and an action [A_t] that updates v̄ and may
    emit effects (synchronization messages, timer operations).

    Determinism: the paper assumes mutually disjoint predicates.  The step
    function checks this at runtime — if more than one guard is true the
    outcome is [Nondeterministic], which test suites treat as a
    specification bug. *)

type trigger =
  | On_event of string  (** Any event with this name. *)
  | On_channel of string  (** Any data event on this protocol channel. *)
  | On_sync of string  (** A δ synchronization event with this name. *)
  | On_timer of string  (** Expiry of the named timer. *)

type effect =
  | Send_sync of {
      target : string;  (** Peer machine name within the same call. *)
      event_name : string;
      args : (string * Value.t) list;
    }
  | Set_timer of { id : string; delay : Dsim.Time.t }
  | Cancel_timer of string

type transition = {
  label : string;  (** Unique within the spec; used in traces and tests. *)
  from_state : string;
  trigger : trigger;
  to_state : string;
  syntax : Ir.t;
      (** The guard [P_t] and action [A_t].  The static verifier
          ([lib/analyze]) reasons over this; {!compile} builds the closures
          the engine runs from it. *)
}

val builders : effect Ir.builders
(** Test seam: the effect constructors that compile IR actions for this
    machine type, which the reference stepper passes to {!Ir.run_acts}. *)

val ir_transition :
  ?guard:Ir.pred ->
  ?acts:Ir.act list ->
  label:string ->
  from_state:string ->
  trigger ->
  to_state:string ->
  unit ->
  transition
(** Guard defaults to [Ir.True], actions to none. *)

type spec = {
  spec_name : string;
  initial : string;
  finals : string list;  (** Reaching one of these completes the machine. *)
  attack_states : (string * string) list;  (** state, alert description. *)
  transitions : transition list;
}

val validate_spec : spec -> (unit, string) result
(** Structural well-formedness: label uniqueness, at most 65 535
    transitions (a history entry numbers its transition in 16 bits), the
    initial state has outgoing transitions, no state is both final and
    attack, attack states carry non-empty alert descriptions, and every
    transition endpoint is anchored in the graph (a [from_state] must be
    reachable by some edge or be the initial state; a [to_state] must have
    outgoing edges or be final/attack — lone endpoints are typo'd state
    names). *)

val states : spec -> string list
(** All states mentioned, sorted. *)

(** {1 Programs}

    What the engine runs.  {!compile} numbers a spec's states, transitions
    and local variables once: each state keeps its outgoing transitions in
    spec order, with compiled guards and actions and their target states,
    its final flag and its attack description.  A step then scans only the
    current state's transitions and finds nothing else by name. *)

type program

val compile : spec -> program
(** The locals it numbers are every local the transitions read or write,
    including those the bodies of their guards' lets read. *)

(** {1 Instances} *)

type t
(** A running instance: the configuration (sᵢ, v̄) of the paper. *)

type outcome =
  | Moved of { transition : transition; effects : effect list; attack : string option }
      (** [attack] is the alert description when the target state is an
          attack state. *)
  | Rejected  (** No transition enabled: a deviation from the specification. *)
  | Nondeterministic of string list  (** Labels of simultaneously enabled transitions. *)

val instantiate : program -> globals:Env.globals -> t

val spec : t -> spec
(** Test oracle: the spec an instance runs, by which the fact-base tests
    check that every record of a base shares one program. *)

val name : t -> string

val state : t -> string

val env : t -> Env.t

val is_final : t -> bool

val step : t -> Event.t -> outcome
(** Evaluates the guard of every transition the event triggers from the
    current state, in spec order.  They share each let's value for the
    step. *)

val history : t -> Dsim.Time.t array * string array
(** The transitions taken, oldest first: their times, and their labels
    (the program's own strings).  Bounded: only a recent window is
    retained, the last 32–64 transitions, truncated amortized: once 64 are
    held, the next transition keeps only the newest 32.  The window is
    therefore a pure function of the transition count, keeping snapshots
    canonical across a live run and a replay of its capture.  The instance
    holds it as a ring of unboxed times and 16-bit transition indices
    that grows 4, 8, … 64 entries, so a step allocates nothing for it. *)

val restore :
  t ->
  state:string ->
  vars:(string * Value.t) list ->
  history:Dsim.Time.t array * string array ->
  (unit, string) result
(** Overwrites the instance's configuration from a snapshot: current state
    (validated against the spec's state set), local variables (each one a
    local the program numbers) and transition history (as {!history}
    returns it: every label one of the spec's transitions, at most 64
    entries, as many times as labels).  Global variables belong to the
    system and are restored separately.  On [Error] the instance is
    unchanged. *)
