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

(* [scheme:[user@]host[:port][;params][?headers]], split at the first ':',
   then the first '?', ';', '@' and ':' of what is left. *)
let parse_range s start stop =
  let colon = Scan.index s start stop ':' in
  if colon < 0 then Error "URI: missing scheme"
  else
    let scheme = scheme_of s start colon in
    if scheme = "" then
      Error
        (Printf.sprintf "URI: unsupported scheme %S"
           (String.lowercase_ascii (Scan.sub s start colon)))
    else
      let rest = colon + 1 in
      let query = Scan.index s rest stop '?' in
      let rest_stop = if query < 0 then stop else query in
      let semi = Scan.index s rest rest_stop ';' in
      let hostport_stop = if semi < 0 then rest_stop else semi in
      let at = Scan.index s rest hostport_stop '@' in
      let host_start = if at < 0 then rest else at + 1 in
      let port_colon = Scan.index s host_start hostport_stop ':' in
      let host_stop = if port_colon < 0 then hostport_stop else port_colon in
      let port = if port_colon < 0 then 0 else Scan.decimal s (port_colon + 1) hostport_stop in
      if port < 0 || port > 65535 then
        Error (Printf.sprintf "URI: bad port %S" (Scan.sub s (port_colon + 1) hostport_stop))
      else if host_start = host_stop then Error "URI: empty host"
      else
        Ok
          {
            scheme;
            user = (if at < 0 then None else Some (Scan.sub s rest at));
            host = Scan.sub s host_start host_stop;
            port = (if port_colon < 0 then None else Some port);
            params = (if semi < 0 then [] else params s (semi + 1) rest_stop);
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

let pp ppf t = Format.pp_print_string ppf (to_string t)

let equal a b =
  String.equal (String.lowercase_ascii a.scheme) (String.lowercase_ascii b.scheme)
  && Option.equal String.equal a.user b.user
  && String.equal (String.lowercase_ascii a.host) (String.lowercase_ascii b.host)
  && Option.equal Int.equal a.port b.port
  && a.params = b.params
  && Option.equal String.equal a.headers b.headers

let param t name =
  match List.find_opt (fun (n, _) -> String.equal n name) t.params with
  | None -> None
  | Some (_, v) -> Some v

let with_param t name value =
  let params = List.filter (fun (n, _) -> not (String.equal n name)) t.params in
  { t with params = params @ [ (name, value) ] }
