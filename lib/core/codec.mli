(** Wire helpers shared by the snapshot and journal codecs.

    All decoders are total: a torn or corrupted input line comes back as
    [Error], never an exception, because these formats are read during
    crash recovery when anything may be half-written. *)

val hex : string -> string

val add_hex : Buffer.t -> string -> unit
(** Appends [hex s]. *)

val add_int : Buffer.t -> int -> unit
(** Appends [string_of_int n] without allocating ({!Efsm.Value.add_decimal}). *)

val unhex : string -> (string, string) result

val crc32 : string -> int
(** IEEE CRC-32 of the bytes, as a non-negative int. *)

val crc32_sub : string -> off:int -> len:int -> int
(** [crc32 (String.sub s off len)] without the copy.  Raises
    [Invalid_argument] if the range is not within [s]. *)

val crc32_update : int -> Bytes.t -> off:int -> len:int -> int
(** [crc32_update (crc32 a) b ~off ~len] is the CRC-32 of [a] followed by
    those bytes of [b], so a stream is checksummed chunk by chunk from
    [0].  Raises [Invalid_argument] if the range is not within [b]. *)

val crc32_hex : string -> string
(** Zero-padded 8-digit lowercase hex. *)

val int_tok : string -> (int, string) result

val time_tok : string -> (Dsim.Time.t, string) result

val opt_time_tok : string -> (Dsim.Time.t option, string) result
(** ["-"] denotes [None]. *)

val add_opt_time : Buffer.t -> Dsim.Time.t option -> unit
(** Appends the microseconds, or ["-"] for [None]. *)

val add_event : Buffer.t -> Efsm.Event.t -> unit
(** Appends the event's space-separated tokens.  Self-delimiting: an
    explicit argument count precedes the key/value pairs, so the encoding
    can be embedded in a longer token list. *)

val event_of_tokens : string list -> (Efsm.Event.t * string list, string) result
(** Returns the decoded event and the unconsumed tail. *)

val add_alert : Buffer.t -> Alert.t -> unit
(** Appends the alert's five space-separated tokens. *)

val alert_of_tokens : string list -> (Alert.t, string) result
