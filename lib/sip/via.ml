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
let params_after s semi b = if semi < 0 then [] else Scan.params s (semi + 1) b

let parse_range s start stop =
  let a = Scan.skip_space s start stop in
  let b = Scan.trim_end s a stop in
  match Scan.index s a b ' ' with
  | -1 -> Error "Via: missing sent-by"
  | space when not (is_protocol s a space) ->
      Error (Printf.sprintf "Via: bad protocol %S" (Scan.sub s a space))
  | space -> (
      let rest = Scan.skip_space s (space + 1) b in
      let semi = Scan.index s rest b ';' in
      let hostport_stop = if semi < 0 then b else semi in
      match Scan.index s rest hostport_stop ':' with
      | -1 when rest = hostport_stop -> Error "Via: empty host"
      | -1 ->
          let host = Scan.sub s rest hostport_stop in
          Ok
            {
              transport = transport_of s (a + 8) space;
              host;
              port = None;
              params = params_after s semi b;
            }
      | colon ->
          let port = Scan.decimal s (colon + 1) hostport_stop in
          if port < 0 || port > 65535 then
            Error (Printf.sprintf "Via: bad port %S" (Scan.sub s (colon + 1) hostport_stop))
          else
            let host = Scan.sub s rest colon in
            Ok
              {
                transport = transport_of s (a + 8) space;
                host;
                port = Some port;
                params = params_after s semi b;
              })

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

let pp ppf t = Format.pp_print_string ppf (to_string t)

let param t name =
  match List.find_opt (fun (n, _) -> String.equal n name) t.params with
  | None -> None
  | Some (_, v) -> Some v

(* The first parameter's own option, so a lookup allocates nothing. *)
let rec value_of name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then v else value_of name rest

let branch t = value_of "branch" t.params

let with_param t name value =
  let params = List.filter (fun (n, _) -> not (String.equal n name)) t.params in
  { t with params = params @ [ (name, value) ] }

let sent_by t = Dsim.Addr.v t.host (Option.value t.port ~default:5060)
