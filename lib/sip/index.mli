(** The one reading of a SIP message's wire bytes.

    {!read} walks the payload once and records where each part lies: the
    start line's parts, each header's canonical-name slot and trimmed
    value, and the body.  It alone decides whether a message is
    well formed, and with which error: {!Msg.parse} is [read] on a fresh
    index followed by {!Msg.of_index}, and the sensor builds its event
    from the spans without building the message.

    An index belongs to its reader (an engine, or one [Msg.parse]); it
    starts with room for twelve headers and grows on demand.  Every part
    a message reads is written or cleared by [read], so what one message
    leaves behind never shows through the next. *)

type t

val create : unit -> t

val read : t -> string -> (unit, string) result
(** [read t payload] indexes [payload], replacing what [t] held.  [Error]
    is exactly {!Msg.parse}'s error.  Allocates nothing but an error's
    text, and the index's growth to a message with more headers than it
    has room for, on a message without folded lines; one with a folded
    line (RFC 3261 §7.3.1) is read from a copy of the payload with each
    continuation trimmed and joined to its line by one space.  After
    [Error] the accessors below are undefined. *)

val text : t -> string
(** The string every span below lies in: the payload, or its copy with
    folded lines joined. *)

val code : t -> int
(** A response's status code; negative for a request. *)

val meth : t -> Msg_method.t
(** A request's method.  Allocates only for an extension method. *)

val target : t -> int
(** The {!Scan.span} of a request's URI, or of a response's reason
    phrase. *)

val body : t -> int
(** The span of the body: as long as Content-Length says, or the rest of
    the payload when there is none. *)

val count : t -> int
(** The number of header fields, in order. *)

val name : t -> int -> string
(** [name t i] is the canonical name of field [i] ({!Header.canonical_name}). *)

val value : t -> int -> int
(** [value t i] is the span of field [i]'s trimmed value. *)

val find : t -> int -> int -> int
(** [find t slot n] is the value span of the [n]th field (from 0) whose
    name is in {!Header.slot} [slot], or negative when there are fewer. *)
