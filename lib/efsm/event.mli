(** EFSM events: the [c?event(x̄)] inputs of the paper's model.

    An event arrives on a channel — either a protocol data channel (a packet
    arrival), an internal synchronization channel between two machines (the
    [δ] messages of Figures 2 and 5), or the timer channel.

    The input vector x̄ is a value array indexed by {!field}: one
    append-only registry numbers every parameter name a program uses, so a
    guard reads a parameter by slot instead of searching for its name.  A
    slot is either absent or holds a value, and a present [Value.Unset] is
    not an absent field. *)

type channel =
  | Data of string  (** Protocol name, e.g. ["SIP"], ["RTP"]. *)
  | Sync of { from_machine : string }  (** δ message from a peer machine. *)
  | Timer  (** Expiry of a named timer. *)

(** {1 The field registry} *)

type field = private int

val field : string -> field
(** The slot of a parameter name, registered on first use.  Slots are
    numbered in registration order and never reused. *)

(** {1 Events} *)

type t

val make : ?args:(string * Value.t) list -> channel -> at:Dsim.Time.t -> string -> t
(** When a name appears twice in [args], the first occurrence wins. *)

val blank : channel -> at:Dsim.Time.t -> last:field -> string -> t
(** An event with every field absent and room for the fields up to and
    including [last]; fill it with {!set}. *)

val set : t -> field -> Value.t -> unit
(** Writes a field of an event under construction.
    @raise Invalid_argument beyond the room {!blank} made. *)

val rename : t -> string -> t
(** The same channel, time and fields under another name.  The two events
    share their fields, so neither may be {!set} afterwards. *)

val name : t -> string
(** e.g. ["INVITE"], ["RESPONSE"], ["RTP"], ["delta_bye"]. *)

val channel : t -> channel

val at : t -> Dsim.Time.t
(** Arrival time (virtual). *)

val get : t -> field -> Value.t
(** [Value.Unset] when the field is absent. *)

val has : t -> field -> bool

val args : t -> (string * Value.t) list
(** The present fields, in slot order. *)
