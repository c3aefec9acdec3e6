type t = {
  transport : string;
  host : string;
  port : int option;
  params : (string * string option) list;
}

let magic_cookie = "z9hG4bK"

let make ?(transport = "UDP") ?port ?branch host =
  let params = match branch with None -> [] | Some b -> [ ("branch", Some b) ] in
  { transport; host; port; params }

(* The protocol is exactly "SIP/2.0/<transport>", transport without '/'. *)
let is_protocol s a space =
  space - a >= 8 && Scan.equal s a (a + 8) "SIP/2.0/" && Scan.index s (a + 8) space '/' < 0

let transport_of s a space = if Scan.equal s a space "UDP" then "UDP" else Scan.sub s a space

let missing_sent_by = -1
let bad_protocol = -2
let empty_host = -3
let bad_port = -4

(* The span of the sent-by, host[:port], or a negative error code: the
   protocol ends at the first space, and the sent-by runs from the next
   non-space to the first ';'. *)
let sent_by_span s start stop =
  let a = Scan.skip_space s start stop in
  let b = Scan.trim_end s a stop in
  match Scan.index s a b ' ' with
  | -1 -> missing_sent_by
  | space when not (is_protocol s a space) -> bad_protocol
  | space -> (
      let rest = Scan.skip_space s (space + 1) b in
      let hostport_stop = Scan.until s rest b ';' in
      match Scan.index s rest hostport_stop ':' with
      | -1 when rest = hostport_stop -> empty_host
      | -1 -> Scan.span rest hostport_stop
      | colon ->
          let port = Scan.decimal s (colon + 1) hostport_stop in
          if port < 0 || port > 65535 then bad_port else Scan.span rest hostport_stop)

let branch_span s start stop =
  let sent_by = sent_by_span s start stop in
  if sent_by < 0 then -1
  else
    let hostport_stop = Scan.span_stop sent_by in
    if hostport_stop < stop && s.[hostport_stop] = ';' then
      Scan.param_value s (hostport_stop + 1) stop "branch"
    else -1

let error s start stop code =
  let a = Scan.skip_space s start stop in
  let b = Scan.trim_end s a stop in
  let space = Scan.index s a b ' ' in
  if code = missing_sent_by then "Via: missing sent-by"
  else if code = bad_protocol then Printf.sprintf "Via: bad protocol %S" (Scan.sub s a space)
  else if code = empty_host then "Via: empty host"
  else
    let rest = Scan.skip_space s (space + 1) b in
    let hostport_stop = Scan.until s rest b ';' in
    let colon = Scan.index s rest hostport_stop ':' in
    Printf.sprintf "Via: bad port %S" (Scan.sub s (colon + 1) hostport_stop)

let parse_range s start stop =
  let sent_by = sent_by_span s start stop in
  if sent_by < 0 then Error (error s start stop sent_by)
  else
    let a = Scan.skip_space s start stop in
    let rest = Scan.span_start sent_by and hostport_stop = Scan.span_stop sent_by in
    let colon = Scan.index s rest hostport_stop ':' in
    Ok
      {
        transport = transport_of s (a + 8) (Scan.index s a stop ' ');
        host = Scan.sub s rest (if colon < 0 then hostport_stop else colon);
        port = (if colon < 0 then None else Some (Scan.decimal s (colon + 1) hostport_stop));
        params =
          (if hostport_stop < stop && s.[hostport_stop] = ';' then
             Scan.params s (hostport_stop + 1) stop
           else []);
      }

let parse s = parse_range s 0 (String.length s)

let to_string t =
  let buffer = Buffer.create 48 in
  Buffer.add_string buffer "SIP/2.0/";
  Buffer.add_string buffer t.transport;
  Buffer.add_char buffer ' ';
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
  Buffer.contents buffer

(* The first parameter's own option, so a lookup allocates nothing. *)
let rec value_of name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then v else value_of name rest

let branch t = value_of "branch" t.params

let sent_by t = Dsim.Addr.v t.host (Option.value t.port ~default:5060)
