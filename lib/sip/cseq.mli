(** The CSeq header: a sequence number and the request method. *)

type t = { number : int; meth : Msg_method.t }

val make : int -> Msg_method.t -> t

val parse : string -> (t, string) result

val parse_range : string -> int -> int -> (t, string) result
(** [parse_range s start stop] is [parse (String.sub s start (stop - start))]
    without the copy: the sensor reads a CSeq where it lies in the
    payload. *)

val to_string : t -> string
