(* Canonical source identity.  See source_key.mli for the contract. *)

type t = Host of string | Endpoint of string * int

let host h = Host (Vids.Keys.canonical_host h)

let endpoint h p =
  if p < 0 || p > 65535 then invalid_arg "Source_key.endpoint: port out of range";
  Endpoint (Vids.Keys.canonical_host h, p)

let of_addr (a : Dsim.Addr.t) = endpoint a.Dsim.Addr.host a.Dsim.Addr.port
let host_of_addr (a : Dsim.Addr.t) = host a.Dsim.Addr.host

let to_string = function
  | Host h -> h
  | Endpoint (h, p) -> h ^ ":" ^ string_of_int p

let of_string s =
  if s = "" then Error "Source_key.of_string: empty key"
  else
    match String.rindex_opt s ':' with
    | None -> Ok (host s)
    | Some i -> (
        let h = String.sub s 0 i in
        let p = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt p with
        | Some port when port >= 0 && port <= 65535 ->
            if h = "" then Error "Source_key.of_string: empty host" else Ok (endpoint h port)
        | Some _ -> Error "Source_key.of_string: port out of range"
        | None -> Ok (host s))
