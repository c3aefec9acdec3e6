(** Index scanners over a range [\[start, stop)] of a string, shared by the
    SIP and SDP parsers.  Only {!sub}, {!sub_span} and {!params} allocate: a
    parser built on them copies only the fields it returns, one
    [String.sub] each. *)

(** White space is what [String.trim] removes: space, tab, CR, LF and form
    feed. *)

val skip_space : string -> int -> int -> int
(** [skip_space s i stop] is the first index in [\[i, stop)] that is not
    white space, or [stop]. *)

val trim_end : string -> int -> int -> int
(** [trim_end s start stop] is [stop] moved back over trailing white space,
    never before [start]. *)

val index : string -> int -> int -> char -> int
(** [index s i stop c] is the first index of [c] in [\[i, stop)], or [-1]. *)

val until : string -> int -> int -> char -> int
(** [until s i stop c] is the first index of [c] in [\[i, stop)], or [stop]. *)

val skip : string -> int -> int -> char -> int
(** [skip s i stop c] is the first index in [\[i, stop)] that is not [c], or
    [stop]. *)

val sub : string -> int -> int -> string
(** [sub s start stop] is [String.sub s start (stop - start)]. *)

val equal : string -> int -> int -> string -> bool
(** [equal s start stop t] holds when [s.\[start .. stop - 1\]] equals [t]. *)

val equal_ci : string -> int -> int -> string -> bool
(** [equal_ci s start stop t] holds when [s.\[start .. stop - 1\]] equals [t]
    ignoring ASCII case. *)

val equal_ci_at : string -> int -> int -> string -> int -> bool
(** [equal_ci_at s start stop t j] holds when [s.\[start .. stop - 1\]]
    equals as many characters of [t] from [j] on, ignoring ASCII case; [t]
    must hold that many. *)

val item_end : string -> int -> int -> int
(** [item_end s start stop] is the index of the comma that ends the first
    item of a comma-separated header value in [\[start, stop)], or [stop].
    Commas inside ["..."] or [<...>] do not count. *)

val params : string -> int -> int -> (string * string option) list
(** [params s start stop] are the header parameters in [\[start, stop)]:
    [';']-separated, each trimmed, empty ones dropped, in order; [name] is
    [(name, None)] and [name=value] is [(name, Some value)].  Name-addr and
    Via parameters are read this way; URI parameters are not trimmed. *)

(** {1 Spans}

    A locator returns the range [\[i, j)] it finds packed into one
    immediate [int], so finding a field allocates nothing; a negative
    result means none.  Both ends must be below [2{^31}], which every SIP
    datagram is. *)

val span : int -> int -> int
(** [span i j] packs [\[i, j)]. *)

val span_start : int -> int

val span_stop : int -> int

val sub_span : string -> int -> string
(** [sub_span s p] is [sub s (span_start p) (span_stop p)]. *)

val param_value : string -> int -> int -> string -> int
(** [param_value s start stop name] is the span of the value of the first
    of the {!params} in [\[start, stop)] named [name], and negative when
    there is none or it is a flag: what looking [name] up in
    [params s start stop] finds, without the list.  [name] is not
    empty. *)

(** {1 Lines}

    A line ends at LF, or at CRLF when its content is read.  A line that
    starts with a space or tab continues the one before it (RFC 3261
    §7.3.1). *)

val line_end : string -> int -> int -> int
(** [line_end s i stop] is the index of the first LF in [\[i, stop)], or
    [stop]. *)

val content_end : string -> int -> int -> int
(** [content_end s start nl] is [nl] less one trailing CR, never before
    [start]. *)

val folded : string -> int -> int -> bool
(** [folded s i stop] holds when the line that starts at [i] continues the
    one before it: [i < stop] and [s.\[i\]] is a space or tab. *)

(** {1 Numbers} *)

val decimal : string -> int -> int -> int
(** [decimal s start stop] is the value of [s.\[start .. stop - 1\]] when
    that range is [1*DIGIT] (RFC 3261 §25.1) and the value fits in an
    [int], and [-1] otherwise.  Signs, [0x] prefixes and ['_'] separators
    are rejected, unlike [int_of_string]. *)
