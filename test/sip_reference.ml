(* Reference model for the SIP and SDP front end: the list-splitting
   parsers the index scanners in lib/sip and lib/sdp replaced, gathered in
   one module and otherwise as they were once numbers became 1*DIGIT.
   Messages keep their headers as a plain (canonical name, value) list.
   Event construction applies the one behaviour added with the scanners,
   the case-insensitive media-type test, in its plainest form.
   [test_sip_diff.ml] holds the scanners to this model, result for result
   and error string for error string. *)

(* 1*DIGIT that fits in an int, or -1. *)
let decimal s =
  let n = String.length s in
  let rec go i acc =
    if i = n then acc
    else
      match s.[i] with
      | '0' .. '9' as c ->
          let d = Char.code c - 48 in
          if acc > (max_int - d) / 10 then -1 else go (i + 1) ((acc * 10) + d)
      | _ -> -1
  in
  if n = 0 then -1 else go 0 0

(* ------------------------------------------------------------------ *)
(* Header                                                              *)
(* ------------------------------------------------------------------ *)

module Header = struct
  let compact_table =
    [
      ("v", "Via");
      ("f", "From");
      ("t", "To");
      ("i", "Call-ID");
      ("m", "Contact");
      ("c", "Content-Type");
      ("l", "Content-Length");
      ("e", "Content-Encoding");
      ("s", "Subject");
      ("k", "Supported");
    ]

  let known_table =
    [
      ("via", "Via");
      ("from", "From");
      ("to", "To");
      ("call-id", "Call-ID");
      ("cseq", "CSeq");
      ("contact", "Contact");
      ("max-forwards", "Max-Forwards");
      ("content-type", "Content-Type");
      ("content-length", "Content-Length");
      ("content-encoding", "Content-Encoding");
      ("route", "Route");
      ("record-route", "Record-Route");
      ("expires", "Expires");
      ("user-agent", "User-Agent");
      ("server", "Server");
      ("allow", "Allow");
      ("supported", "Supported");
      ("require", "Require");
      ("subject", "Subject");
      ("authorization", "Authorization");
      ("www-authenticate", "WWW-Authenticate");
      ("proxy-authorization", "Proxy-Authorization");
      ("warning", "Warning");
      ("timestamp", "Timestamp");
      ("organization", "Organization");
      ("priority", "Priority");
      ("retry-after", "Retry-After");
      ("min-expires", "Min-Expires");
      ("event", "Event");
      ("refer-to", "Refer-To");
      ("rack", "RAck");
      ("rseq", "RSeq");
    ]

  let title_case s =
    String.split_on_char '-' s
    |> List.map (fun word ->
           if word = "" then ""
           else
             String.make 1 (Char.uppercase_ascii word.[0])
             ^ String.lowercase_ascii (String.sub word 1 (String.length word - 1)))
    |> String.concat "-"

  let canonical_name name =
    let lower = String.lowercase_ascii name in
    match List.assoc_opt lower compact_table with
    | Some canon -> canon
    | None -> (
        match List.assoc_opt lower known_table with
        | Some canon -> canon
        | None -> title_case lower)

  let add t name value = t @ [ (canonical_name name, value) ]

  let get t name =
    let name = canonical_name name in
    match List.find_opt (fun (field, _) -> String.equal field name) t with
    | None -> None
    | Some (_, v) -> Some v

  let split_list_value value =
    let parts = ref [] in
    let buffer = Buffer.create 16 in
    let in_quotes = ref false in
    let in_brackets = ref false in
    let flush () =
      let piece = String.trim (Buffer.contents buffer) in
      Buffer.clear buffer;
      if piece <> "" then parts := piece :: !parts
    in
    String.iter
      (fun c ->
        match c with
        | '"' ->
            in_quotes := not !in_quotes;
            Buffer.add_char buffer c
        | '<' when not !in_quotes ->
            in_brackets := true;
            Buffer.add_char buffer c
        | '>' when not !in_quotes ->
            in_brackets := false;
            Buffer.add_char buffer c
        | ',' when (not !in_quotes) && not !in_brackets -> flush ()
        | _ -> Buffer.add_char buffer c)
      value;
    flush ();
    List.rev !parts

  let get_all t name =
    let name = canonical_name name in
    List.concat_map
      (fun (field, v) -> if String.equal field name then split_list_value v else [])
      t
end

(* ------------------------------------------------------------------ *)
(* Field parsers                                                       *)
(* ------------------------------------------------------------------ *)

let uri_params s =
  String.split_on_char ';' s
  |> List.filter (fun p -> p <> "")
  |> List.map (fun p ->
         match String.index_opt p '=' with
         | None -> (p, None)
         | Some i -> (String.sub p 0 i, Some (String.sub p (i + 1) (String.length p - i - 1))))

let uri s : (Sip.Uri.t, string) result =
  let ( let* ) r f = Result.bind r f in
  let* scheme, rest =
    match String.index_opt s ':' with
    | None -> Error "URI: missing scheme"
    | Some i ->
        let scheme = String.lowercase_ascii (String.sub s 0 i) in
        if scheme = "sip" || scheme = "sips" || scheme = "tel" then
          Ok (scheme, String.sub s (i + 1) (String.length s - i - 1))
        else Error (Printf.sprintf "URI: unsupported scheme %S" scheme)
  in
  (* The user may hold ';' and '?', so it is split off first. *)
  let user, rest =
    match String.index_opt rest '@' with
    | None -> (None, rest)
    | Some i -> (Some (String.sub rest 0 i), String.sub rest (i + 1) (String.length rest - i - 1))
  in
  let rest, headers =
    match String.index_opt rest '?' with
    | None -> (rest, None)
    | Some i ->
        (String.sub rest 0 i, Some (String.sub rest (i + 1) (String.length rest - i - 1)))
  in
  let hostport, params =
    match String.index_opt rest ';' with
    | None -> (rest, [])
    | Some i ->
        (String.sub rest 0 i, uri_params (String.sub rest (i + 1) (String.length rest - i - 1)))
  in
  let* host, port =
    match String.index_opt hostport ':' with
    | None -> Ok (hostport, None)
    | Some i ->
        let host = String.sub hostport 0 i in
        let port_str = String.sub hostport (i + 1) (String.length hostport - i - 1) in
        let p = decimal port_str in
        if p >= 0 && p <= 65535 then Ok (host, Some p)
        else Error (Printf.sprintf "URI: bad port %S" port_str)
  in
  if host = "" then Error "URI: empty host"
  else Ok { Sip.Uri.scheme; user; host; port; params; headers }

(* Name-addr and Via header parameters: trimmed, empty ones dropped. *)
let header_params s =
  String.split_on_char ';' s
  |> List.filter (fun p -> String.trim p <> "")
  |> List.map (fun p ->
         let p = String.trim p in
         match String.index_opt p '=' with
         | None -> (p, None)
         | Some i -> (String.sub p 0 i, Some (String.sub p (i + 1) (String.length p - i - 1))))

let name_addr s : (Sip.Name_addr.t, string) result =
  let s = String.trim s in
  match String.index_opt s '<' with
  | Some lt -> (
      match String.index_opt s '>' with
      | None -> Error "name-addr: unmatched '<'"
      | Some gt when gt < lt -> Error "name-addr: '>' before '<'"
      | Some gt -> (
          let display_raw = String.trim (String.sub s 0 lt) in
          let display =
            if display_raw = "" then None
            else if
              String.length display_raw >= 2
              && display_raw.[0] = '"'
              && display_raw.[String.length display_raw - 1] = '"'
            then Some (String.sub display_raw 1 (String.length display_raw - 2))
            else Some display_raw
          in
          let uri_text = String.sub s (lt + 1) (gt - lt - 1) in
          let after = String.sub s (gt + 1) (String.length s - gt - 1) in
          let params =
            match String.index_opt after ';' with
            | None -> []
            | Some i -> header_params (String.sub after (i + 1) (String.length after - i - 1))
          in
          match uri uri_text with
          | Error e -> Error e
          | Ok uri -> Ok { Sip.Name_addr.display; uri; params }))
  | None -> (
      let uri_text, params =
        match String.index_opt s ';' with
        | None -> (s, [])
        | Some i ->
            (String.sub s 0 i, header_params (String.sub s (i + 1) (String.length s - i - 1)))
      in
      match uri uri_text with
      | Error e -> Error e
      | Ok uri -> Ok { Sip.Name_addr.display = None; uri; params })

let via s : (Sip.Via.t, string) result =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> Error "Via: missing sent-by"
  | Some space -> (
      let protocol = String.sub s 0 space in
      let rest = String.trim (String.sub s (space + 1) (String.length s - space - 1)) in
      match String.split_on_char '/' protocol with
      | [ "SIP"; "2.0"; transport ] -> (
          let hostport, params =
            match String.index_opt rest ';' with
            | None -> (rest, [])
            | Some i ->
                ( String.sub rest 0 i,
                  header_params (String.sub rest (i + 1) (String.length rest - i - 1)) )
          in
          match String.index_opt hostport ':' with
          | None ->
              if hostport = "" then Error "Via: empty host"
              else Ok { Sip.Via.transport; host = hostport; port = None; params }
          | Some i ->
              let host = String.sub hostport 0 i in
              let port_str = String.sub hostport (i + 1) (String.length hostport - i - 1) in
              let port = decimal port_str in
              if port >= 0 && port <= 65535 then
                Ok { Sip.Via.transport; host; port = Some port; params }
              else Error (Printf.sprintf "Via: bad port %S" port_str))
      | _ -> Error (Printf.sprintf "Via: bad protocol %S" protocol))

let cseq s : (Sip.Cseq.t, string) result =
  match String.split_on_char ' ' (String.trim s) |> List.filter (fun x -> x <> "") with
  | [ number_str; method_str ] ->
      let number = decimal number_str in
      if number < 0 then Error (Printf.sprintf "CSeq: bad number %S" number_str)
      else Ok { Sip.Cseq.number; meth = Sip.Msg_method.of_string method_str }
  | _ -> Error (Printf.sprintf "CSeq: malformed %S" s)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type msg = { start : Sip.Msg.start_line; headers : (string * string) list; body : string }

let split_head_body text =
  let rec find i =
    if i + 3 < String.length text then
      if text.[i] = '\r' && text.[i + 1] = '\n' && text.[i + 2] = '\r' && text.[i + 3] = '\n'
      then Some (i, i + 4)
      else if text.[i] = '\n' && text.[i + 1] = '\n' then Some (i, i + 2)
      else find (i + 1)
    else if i + 1 < String.length text && text.[i] = '\n' && text.[i + 1] = '\n' then
      Some (i, i + 2)
    else None
  in
  match find 0 with
  | Some (head_end, body_start) ->
      (String.sub text 0 head_end, String.sub text body_start (String.length text - body_start))
  | None -> (text, "")

let split_lines head =
  let raw = String.split_on_char '\n' head in
  let raw =
    List.map
      (fun line ->
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)
      raw
  in
  let rec unfold acc = function
    | [] -> List.rev acc
    | line :: rest when line <> "" && (line.[0] = ' ' || line.[0] = '\t') -> (
        match acc with
        | prev :: acc' -> unfold ((prev ^ " " ^ String.trim line) :: acc') rest
        | [] -> unfold [ String.trim line ] rest)
    | line :: rest -> unfold (line :: acc) rest
  in
  unfold [] raw

let status_code s =
  let code = if String.length s = 3 then decimal s else -1 in
  if code >= 100 && code <= 699 then code else -1

let parse_start_line line : (Sip.Msg.start_line, string) result =
  if String.length line >= 8 && String.sub line 0 8 = "SIP/2.0 " then begin
    let rest = String.sub line 8 (String.length line - 8) in
    match String.index_opt rest ' ' with
    | None ->
        let code = status_code rest in
        if code < 0 then Error (Printf.sprintf "bad status line %S" line)
        else Ok (Response { code; reason = "" })
    | Some i ->
        let code_str = String.sub rest 0 i in
        let reason = String.sub rest (i + 1) (String.length rest - i - 1) in
        let code = status_code code_str in
        if code < 0 then Error (Printf.sprintf "bad status code %S" code_str)
        else Ok (Response { code; reason })
  end
  else
    match String.split_on_char ' ' line with
    | [ method_str; uri_str; version ] when version = "SIP/2.0" -> (
        match uri uri_str with
        | Ok uri -> Ok (Request { meth = Sip.Msg_method.of_string method_str; uri })
        | Error e -> Error e)
    | _ -> Error (Printf.sprintf "bad request line %S" line)

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> Error (Printf.sprintf "bad header line %S" line)
  | Some i ->
      let name = String.trim (String.sub line 0 i) in
      let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      if name = "" then Error (Printf.sprintf "empty header name in %S" line)
      else Ok (name, value)

let decimal_value v = decimal (String.trim v)

let parse text =
  let ( let* ) r f = Result.bind r f in
  let head, body = split_head_body text in
  match split_lines head with
  | [] -> Error "empty message"
  | start_text :: header_lines ->
      let* start = parse_start_line start_text in
      let* headers =
        List.fold_left
          (fun acc line ->
            let* h = acc in
            if String.trim line = "" then Ok h
            else
              let* name, value = parse_header_line line in
              Ok (Header.add h name value))
          (Ok []) header_lines
      in
      let* body =
        match Header.get headers "Content-Length" with
        | None -> Ok body
        | Some len_str ->
            let len = decimal_value len_str in
            if len < 0 then Error (Printf.sprintf "bad Content-Length %S" len_str)
            else if len > String.length body then Error "Content-Length exceeds body"
            else Ok (String.sub body 0 len)
      in
      Ok { start; headers; body }

let msg_cseq t =
  match Header.get t.headers "CSeq" with None -> Error "missing CSeq" | Some v -> cseq v

let method_of t =
  match t.start with
  | Request { meth; _ } -> Some meth
  | Response _ -> ( match msg_cseq t with Ok c -> Some c.Sip.Cseq.meth | Error _ -> None)

let status_of t = match t.start with Response { code; _ } -> Some code | Request _ -> None

let call_id t =
  match Header.get t.headers "Call-ID" with Some v -> Ok v | None -> Error "missing Call-ID"

let name_addr_field t name =
  match Header.get t.headers name with
  | None -> Error (Printf.sprintf "missing %s" name)
  | Some v -> name_addr v

let from_ t = name_addr_field t "From"
let to_ t = name_addr_field t "To"
let contact t = name_addr_field t "Contact"

let top_via t =
  match Header.get_all t.headers "Via" with [] -> Error "missing Via" | v :: _ -> via v

let max_forwards t =
  match Header.get t.headers "Max-Forwards" with
  | None -> None
  | Some v ->
      let n = decimal_value v in
      if n < 0 then None else Some n

let content_type t = Header.get t.headers "Content-Type"

let expires t =
  match Header.get t.headers "Expires" with
  | None -> None
  | Some v ->
      let n = decimal_value v in
      if n < 0 then None else Some n

let transaction_key t =
  let ( let* ) r f = Result.bind r f in
  let* via = top_via t in
  let* c = msg_cseq t in
  let branch = Option.value (Sip.Via.branch via) ~default:"no-branch" in
  let meth =
    match c.Sip.Cseq.meth with Sip.Msg_method.ACK -> Sip.Msg_method.INVITE | m -> m
  in
  Ok
    (Printf.sprintf "%s|%s:%d|%s" branch via.Sip.Via.host
       (Option.value via.Sip.Via.port ~default:5060)
       (Sip.Msg_method.to_string meth))

let invite_key_of_cancel t =
  let ( let* ) r f = Result.bind r f in
  let* via = top_via t in
  let branch = Option.value (Sip.Via.branch via) ~default:"no-branch" in
  Ok
    (Printf.sprintf "%s|%s:%d|INVITE" branch via.Sip.Via.host
       (Option.value via.Sip.Via.port ~default:5060))

(* The media-type test, in its plainest form: type/subtype before any
   parameter, whitespace around the slash dropped, case folded. *)
let content_type_is t expected =
  match content_type t with
  | None -> false
  | Some v ->
      let v = match String.index_opt v ';' with None -> v | Some i -> String.sub v 0 i in
      let norm s =
        match String.index_opt s '/' with
        | None -> [ String.lowercase_ascii (String.trim s) ]
        | Some i ->
            [
              String.lowercase_ascii (String.trim (String.sub s 0 i));
              String.lowercase_ascii (String.trim (String.sub s (i + 1) (String.length s - i - 1)));
            ]
      in
      norm v = norm expected

(* ------------------------------------------------------------------ *)
(* SDP                                                                 *)
(* ------------------------------------------------------------------ *)

let sdp_attribute value =
  match String.index_opt value ':' with
  | None -> (value, None)
  | Some i -> (String.sub value 0 i, Some (String.sub value (i + 1) (String.length value - i - 1)))

let connection_addr value =
  match String.split_on_char ' ' value |> List.filter (fun s -> s <> "") with
  | [ _net; _kind; addr ] -> Some addr
  | _ -> None

let media_line value : (Sdp.media, string) result =
  match String.split_on_char ' ' value |> List.filter (fun s -> s <> "") with
  | media_type :: port_str :: transport :: formats ->
      let port = decimal port_str in
      if port < 0 then Error (Printf.sprintf "SDP: bad media port %S" port_str)
      else
        let formats =
          List.filter_map (fun f -> match decimal f with -1 -> None | n -> Some n) formats
        in
        Ok { Sdp.media_type; port; transport; formats; attributes = [] }
  | _ -> Error (Printf.sprintf "SDP: bad m= line %S" value)

let sdp text : (Sdp.t, string) result =
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           let n = String.length line in
           if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)
    |> List.filter (fun line -> line <> "")
  in
  let ( let* ) r f = Result.bind r f in
  let rec go (acc : Sdp.t) (current_media : Sdp.media option) = function
    | [] ->
        let acc =
          match current_media with None -> acc | Some m -> { acc with media = m :: acc.media }
        in
        Ok { acc with media = List.rev acc.media }
    | line :: rest ->
        if String.length line < 2 || line.[1] <> '=' then
          Error (Printf.sprintf "SDP: bad line %S" line)
        else
          let kind = line.[0] in
          let value = String.sub line 2 (String.length line - 2) in
          let* acc, current_media =
            match kind with
            | 'v' ->
                let v = decimal value in
                if v < 0 then Error "SDP: bad v= line"
                else Ok ({ acc with version = v }, current_media)
            | 'o' -> Ok ({ acc with origin = value }, current_media)
            | 's' -> Ok ({ acc with session_name = value }, current_media)
            | 'c' -> (
                match current_media with
                | None -> Ok ({ acc with connection = connection_addr value }, current_media)
                | Some m -> Ok (acc, Some { m with attributes = m.attributes @ [ ("c", Some value) ] }))
            | 't' -> Ok ({ acc with timing = value }, current_media)
            | 'm' ->
                let* m = media_line value in
                let acc =
                  match current_media with
                  | None -> acc
                  | Some prev -> { acc with media = prev :: acc.media }
                in
                Ok (acc, Some m)
            | 'a' -> (
                let attr = sdp_attribute value in
                match current_media with
                | None ->
                    Ok
                      ( { acc with session_attributes = acc.session_attributes @ [ attr ] },
                        current_media )
                | Some m -> Ok (acc, Some { m with attributes = m.attributes @ [ attr ] }))
            | 'b' | 'k' | 'i' | 'u' | 'e' | 'p' | 'z' | 'r' -> Ok (acc, current_media)
            | _ -> Error (Printf.sprintf "SDP: unknown line type %c" kind)
          in
          go acc current_media rest
  in
  go
    {
      version = 0;
      origin = "";
      session_name = "-";
      connection = None;
      timing = "0 0";
      media = [];
      session_attributes = [];
    }
    None lines

(* ------------------------------------------------------------------ *)
(* Event construction                                                  *)
(* ------------------------------------------------------------------ *)

module V = Efsm.Value
module Keys = Vids.Keys

let opt_arg key value rest = match value with None -> rest | Some v -> (key, v) :: rest

let sdp_args msg =
  if String.length msg.body > 0 && content_type_is msg "application/sdp" then
    match sdp msg.body with
    | Error _ -> []
    | Ok description -> (
        match Sdp.first_audio description with
        | None -> []
        | Some media -> (
            match Sdp.media_addr description media with
            | None -> []
            | Some (host, port) ->
                let pt = match media.Sdp.formats with pt :: _ -> pt | [] -> -1 in
                [
                  ("media_host", V.Str host);
                  ("media_port", V.Int port);
                  ("media_pt", V.Int pt);
                ]))
  else []

let of_msg ~at ~src ~dst msg =
  let name, extra =
    match msg.start with
    | Sip.Msg.Request { meth; _ } -> (Sip.Msg_method.to_string meth, [])
    | Sip.Msg.Response { code; _ } -> (Keys.response, [ ("code", V.Int code) ])
  in
  let tag_of field =
    match field msg with
    | Ok na -> Option.map (fun t -> V.Str t) (Sip.Name_addr.tag na)
    | Error _ -> None
  in
  let contact_host =
    match contact msg with
    | Ok na -> Some (V.Str na.Sip.Name_addr.uri.Sip.Uri.host)
    | Error _ -> None
  in
  let branch =
    match top_via msg with
    | Ok via -> Option.map (fun b -> V.Str b) (Sip.Via.branch via)
    | Error _ -> None
  in
  let cseq =
    match msg_cseq msg with
    | Ok c ->
        [
          ("cseq_method", V.Str (Sip.Msg_method.to_string c.Sip.Cseq.meth));
          ("cseq_number", V.Int c.Sip.Cseq.number);
        ]
    | Error _ -> []
  in
  let call_id =
    match call_id msg with Ok cid -> [ ("call_id", V.Str cid) ] | Error _ -> []
  in
  let args =
    [
      ("src_ip", V.Str (Dsim.Addr.host src));
      ("src_port", V.Int (Dsim.Addr.port src));
      ("dst_ip", V.Str (Dsim.Addr.host dst));
      ("dst_port", V.Int (Dsim.Addr.port dst));
    ]
    @ extra @ cseq @ call_id @ sdp_args msg
  in
  let args = opt_arg "from_tag" (tag_of from_) args in
  let args = opt_arg "to_tag" (tag_of to_) args in
  let args = opt_arg "contact_host" contact_host args in
  let args = opt_arg "branch" branch args in
  Efsm.Event.make ~args (Efsm.Event.Data "SIP") ~at name
