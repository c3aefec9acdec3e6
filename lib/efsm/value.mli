(** Values carried by EFSM state variables and event parameters.

    The paper's model (Definition 1) works over a vector of typed state
    variables [v] with domains [D]; this is the value universe. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Addr of string * int  (** host, port *)
  | Unset  (** A declared variable before initialization. *)

val equal : t -> t -> bool

val to_string : t -> string

(** {1 Checkpoint serialization}

    Space-free wire tokens: {!of_token} reads back exactly the value that
    {!add_token} wrote, for every value — strings round-trip through hex,
    so arbitrary bytes survive. *)

val add_token : Buffer.t -> t -> unit
(** Appends the token for the value. *)

val of_token : string -> (t, string) result

val hex_of_string : string -> string
(** Two lowercase hex digits per byte. *)

val add_hex : Buffer.t -> string -> unit
(** Appends [hex_of_string s]. *)

val add_decimal : Buffer.t -> int -> unit
(** Appends [string_of_int n], allocating nothing beyond the buffer's own
    growth. *)

val string_of_hex : string -> (string, string) result
(** Accepts exactly [[0-9a-fA-F]] digits, in pairs. *)
