type t = {
  scheme : string;
  user : string option;
  host : string;
  port : int option;
  params : (string * string option) list;
  headers : string option;
}

let make ?(scheme = "sip") ?user ?port ?(params = []) ?headers host =
  { scheme; user; host; port; params; headers }

(* The ';'-separated parameters of [s.[i .. stop-1]], empty ones dropped,
   in order. *)
let rec params s i stop =
  let e = Scan.until s i stop ';' in
  let rest = if e < stop then params s (e + 1) stop else [] in
  if e = i then rest
  else
    match Scan.index s i e '=' with
    | -1 -> (Scan.sub s i e, None) :: rest
    | eq -> (Scan.sub s i eq, Some (Scan.sub s (eq + 1) e)) :: rest

let scheme_of s start stop =
  if Scan.equal_ci s start stop "sip" then "sip"
  else if Scan.equal_ci s start stop "sips" then "sips"
  else if Scan.equal_ci s start stop "tel" then "tel"
  else ""

(* [scheme:[user@]host[:port][;params][?headers]].  The scheme ends at
   the first ':' and the user at the first '@' after it: a user may hold
   ';' and '?' (RFC 3261 user-unreserved), and no later part may hold an
   '@'.  From the host on, each part ends where the next one's separator
   first appears. *)
let scheme_end s start stop = Scan.index s start stop ':'

(* The end of the host: its first ':', ';' or '?' from [i], or [stop]. *)
let rec host_end s i stop =
  if i < stop && s.[i] <> ':' && s.[i] <> ';' && s.[i] <> '?' then host_end s (i + 1) stop
  else i

(* The end of a host or port: its first ';' or '?' from [i], or [stop]. *)
let rec hostport_end s i stop =
  if i < stop && s.[i] <> ';' && s.[i] <> '?' then hostport_end s (i + 1) stop else i

(* Where the host starts, given the index [rest] past the scheme. *)
let host_start s rest stop = match Scan.index s rest stop '@' with -1 -> rest | at -> at + 1

(* The port after the ':' at [colon]: 1*DIGIT up to 65535, else -1. *)
let port_value s colon stop =
  let p = Scan.decimal s (colon + 1) (hostport_end s (colon + 1) stop) in
  if p > 65535 then -1 else p

let missing_scheme = -1
let unsupported_scheme = -2
let bad_port = -3
let empty_host = -4

let host_span s start stop =
  let colon = scheme_end s start stop in
  if colon < 0 then missing_scheme
  else if scheme_of s start colon = "" then unsupported_scheme
  else
    let a = host_start s (colon + 1) stop in
    let b = host_end s a stop in
    if b < stop && s.[b] = ':' && port_value s b stop < 0 then bad_port
    else if a = b then empty_host
    else Scan.span a b

let error s start stop code =
  let colon = scheme_end s start stop in
  if code = missing_scheme then "URI: missing scheme"
  else if code = unsupported_scheme then
    Printf.sprintf "URI: unsupported scheme %S" (String.lowercase_ascii (Scan.sub s start colon))
  else if code = bad_port then
    let port = host_end s (host_start s (colon + 1) stop) stop + 1 in
    Printf.sprintf "URI: bad port %S" (Scan.sub s port (hostport_end s port stop))
  else "URI: empty host"

let parse_range s start stop =
  let host = host_span s start stop in
  if host < 0 then Error (error s start stop host)
  else
    let colon = scheme_end s start stop in
    let a = Scan.span_start host and b = Scan.span_stop host in
    let port_stop = if b < stop && s.[b] = ':' then hostport_end s (b + 1) stop else b in
    let query = Scan.index s port_stop stop '?' in
    let params_stop = if query < 0 then stop else query in
    Ok
      {
        scheme = scheme_of s start colon;
        user = (if a > colon + 1 then Some (Scan.sub s (colon + 1) (a - 1)) else None);
        host = Scan.sub s a b;
        port = (if port_stop > b then Some (port_value s b stop) else None);
        params = (if port_stop < params_stop then params s (port_stop + 1) params_stop else []);
        headers = (if query < 0 then None else Some (Scan.sub s (query + 1) stop));
      }

let parse s = parse_range s 0 (String.length s)

let to_string t =
  let buffer = Buffer.create 32 in
  Buffer.add_string buffer t.scheme;
  Buffer.add_char buffer ':';
  (match t.user with
  | None -> ()
  | Some u ->
      Buffer.add_string buffer u;
      Buffer.add_char buffer '@');
  Buffer.add_string buffer t.host;
  (match t.port with
  | None -> ()
  | Some p ->
      Buffer.add_char buffer ':';
      Buffer.add_string buffer (string_of_int p));
  List.iter
    (fun (name, value) ->
      Buffer.add_char buffer ';';
      Buffer.add_string buffer name;
      match value with
      | None -> ()
      | Some v ->
          Buffer.add_char buffer '=';
          Buffer.add_string buffer v)
    t.params;
  (match t.headers with
  | None -> ()
  | Some h ->
      Buffer.add_char buffer '?';
      Buffer.add_string buffer h);
  Buffer.contents buffer
