(** Location service: AOR → registered contact bindings (paper §2.1). *)

type t

val create : unit -> t

val bind : t -> aor:string -> contact:Dsim.Addr.t -> unit
(** [aor] is the canonical ["user@domain"] form. *)

val unbind : t -> aor:string -> unit

val lookup : t -> aor:string -> Dsim.Addr.t option

val aor_of_uri : Sip.Uri.t -> string
