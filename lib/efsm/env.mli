(** The state-variable vector [v] of an EFSM.

    Variables come in two scopes, as in the paper's Figure 2: local
    variables ([v.l_*]) belong to one machine, while global variables
    ([v.g_*]) live in a store shared by all machines of the same call, which
    is how the SIP machine hands the negotiated media endpoint to the RTP
    machine.

    A machine's locals are numbered once per spec (a {!layout}), so its
    store is one value array and compiled guards read a slot; the global
    store stays keyed by name. *)

type scope = Local | Global

type globals
(** A shared global store; create one per call. *)

val globals : unit -> globals

type layout
(** The local variables of one machine, numbered in name order. *)

val layout : string list -> layout
(** Duplicates are dropped. *)

val slot : layout -> string -> int option

type t

val create : layout -> globals -> t
(** Fresh local store for the layout's variables, bound to a shared
    global store. *)

val get : t -> scope -> string -> Value.t
(** [Value.Unset] for never-written variables. *)

val set : t -> scope -> string -> Value.t -> unit
(** @raise Invalid_argument on a local the layout does not number. *)

val get_slot : t -> int -> Value.t
(** The local in that slot of the layout; [Value.Unset] if never written. *)

val set_slot : t -> int -> Value.t -> unit

val local_bindings : t -> (string * Value.t) list
(** The locals ever written, sorted by name. *)

val global_bindings : t -> (string * Value.t) list
(** Test oracle: the globals an instance sees, sorted by name, which the
    differentials compare after every step. *)

(** {1 Checkpoint support} *)

val reset_locals : t -> unit
(** Drops every local binding; used when restoring a machine from a
    snapshot. *)

val globals_bindings : globals -> (string * Value.t) list
(** Sorted by name, like {!local_bindings}. *)

val globals_put : globals -> string -> Value.t -> unit

val estimated_bytes : t -> int
(** Rough model of the locals' size (strings dominate), not a heap
    measurement; [Fact_base.stats] sums it over the live calls. *)
