type t = { host : string; port : int }

let v host port = { host; port }
let equal a b = String.equal a.host b.host && Int.equal a.port b.port

let compare a b =
  let c = String.compare a.host b.host in
  if c <> 0 then c else Int.compare a.port b.port

let hash = Hashtbl.hash
let host t = t.host
let port t = t.port
let to_string t = t.host ^ ":" ^ string_of_int t.port

let of_string s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i -> (
      let host = String.sub s 0 i in
      let port_str = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port_str with
      | Some port when port >= 0 && port <= 65535 && host <> "" -> Some { host; port }
      | Some _ | None -> None)
