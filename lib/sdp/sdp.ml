type media = {
  media_type : string;
  port : int;
  transport : string;
  formats : int list;
  attributes : (string * string option) list;
}

type t = {
  version : int;
  origin : string;
  session_name : string;
  connection : string option;
  timing : string;
  media : media list;
  session_attributes : (string * string option) list;
}

let make ?(session_name = "-") ~origin_user ~origin_host ~connection ~media () =
  {
    version = 0;
    origin = Printf.sprintf "%s 0 0 IN IP4 %s" origin_user origin_host;
    session_name;
    connection;
    timing = "0 0";
    media;
    session_attributes = [];
  }

let make ?session_name ~origin_user ~origin_host ~connection ~media () =
  make ?session_name ~origin_user ~origin_host ~connection:(Some connection) ~media ()

let audio_media ~port ~formats =
  let attributes =
    List.filter_map
      (fun number ->
        match Payload_type.find number with
        | Some info -> Some ("rtpmap", Some (Payload_type.rtpmap info))
        | None -> None)
      formats
  in
  { media_type = "audio"; port; transport = "RTP/AVP"; formats; attributes }

(* The value of an [a=] line: [name] or [name:value]. *)
let attribute s a b =
  match Sip.Scan.index s a b ':' with
  | -1 -> (Sip.Scan.sub s a b, None)
  | colon -> (Sip.Scan.sub s a colon, Some (Sip.Scan.sub s (colon + 1) b))

(* Fields are separated by runs of spaces. *)
let field_start s i stop = Sip.Scan.skip s i stop ' '
let field_end s i stop = Sip.Scan.until s i stop ' '

(* The c= line is "IN IP4 <addr>"; extract the address. *)
let connection_addr s a b =
  let net_stop = field_end s (field_start s a b) b in
  let kind_stop = field_end s (field_start s net_stop b) b in
  let addr_start = field_start s kind_stop b in
  let addr_stop = field_end s addr_start b in
  if addr_start < b && field_start s addr_stop b = b then
    Some (Sip.Scan.sub s addr_start addr_stop)
  else None

(* Payload type numbers; a format that is not 1*DIGIT is skipped. *)
let rec formats s i stop =
  let a = field_start s i stop in
  if a = stop then []
  else
    let e = field_end s a stop in
    let rest = formats s e stop in
    match Sip.Scan.decimal s a e with -1 -> rest | pt -> pt :: rest

let media_line s a b =
  let type_start = field_start s a b in
  let type_stop = field_end s type_start b in
  let port_start = field_start s type_stop b in
  let port_stop = field_end s port_start b in
  let transport_start = field_start s port_stop b in
  let transport_stop = field_end s transport_start b in
  if transport_start = b then Error (Printf.sprintf "SDP: bad m= line %S" (Sip.Scan.sub s a b))
  else
    let port = Sip.Scan.decimal s port_start port_stop in
    if port < 0 then
      Error (Printf.sprintf "SDP: bad media port %S" (Sip.Scan.sub s port_start port_stop))
    else
      Ok
        {
          media_type = Sip.Scan.sub s type_start type_stop;
          port;
          transport = Sip.Scan.sub s transport_start transport_stop;
          formats = formats s transport_stop b;
          attributes = [];
        }

(* The description read so far: lists last first, and the open m= block
   with its attributes apart. *)
type state = {
  mutable version : int;
  mutable origin : string;
  mutable session_name : string;
  mutable connection : string option;
  mutable timing : string;
  mutable closed : media list;
  mutable session_attrs : (string * string option) list;
  mutable block : media option;
  mutable block_attrs : (string * string option) list;
}

let close_block st =
  match st.block with
  | None -> ()
  | Some m ->
      st.closed <- { m with attributes = List.rev st.block_attrs } :: st.closed;
      st.block_attrs <- []

(* One [k=value] line on [s.[a .. b-1]]; [Some] error stops the parse. *)
let line st s a b =
  if b - a < 2 || s.[a + 1] <> '=' then
    Some (Printf.sprintf "SDP: bad line %S" (Sip.Scan.sub s a b))
  else
    let v = a + 2 in
    match s.[a] with
    | 'v' ->
        let version = Sip.Scan.decimal s v b in
        if version < 0 then Some "SDP: bad v= line"
        else (
          st.version <- version;
          None)
    | 'o' ->
        st.origin <- Sip.Scan.sub s v b;
        None
    | 's' ->
        st.session_name <- Sip.Scan.sub s v b;
        None
    | 'c' ->
        (* A media-level c= overrides; it is stored as an attribute. *)
        (match st.block with
        | None -> st.connection <- connection_addr s v b
        | Some _ -> st.block_attrs <- ("c", Some (Sip.Scan.sub s v b)) :: st.block_attrs);
        None
    | 't' ->
        st.timing <- Sip.Scan.sub s v b;
        None
    | 'm' -> (
        match media_line s v b with
        | Error e -> Some e
        | Ok m ->
            close_block st;
            st.block <- Some m;
            None)
    | 'a' ->
        let attr = attribute s v b in
        (match st.block with
        | None -> st.session_attrs <- attr :: st.session_attrs
        | Some _ -> st.block_attrs <- attr :: st.block_attrs);
        None
    | 'b' | 'k' | 'i' | 'u' | 'e' | 'p' | 'z' | 'r' -> None (* tolerated, ignored *)
    | kind -> Some (Printf.sprintf "SDP: unknown line type %c" kind)

(* LF or CRLF lines, empty ones skipped, in one pass. *)
let rec lines st s i stop =
  if i >= stop then begin
    close_block st;
    Ok
      ({
        version = st.version;
        origin = st.origin;
        session_name = st.session_name;
        connection = st.connection;
        timing = st.timing;
        media = List.rev st.closed;
        session_attributes = List.rev st.session_attrs;
      }
        : t)
  end
  else
    let nl = Sip.Scan.line_end s i stop in
    let e = Sip.Scan.content_end s i nl in
    match if e > i then line st s i e else None with
    | Some error -> Error error
    | None -> lines st s (nl + 1) stop

let parse_range s start stop =
  let st =
    {
      version = 0;
      origin = "";
      session_name = "-";
      connection = None;
      timing = "0 0";
      closed = [];
      session_attrs = [];
      block = None;
      block_attrs = [];
    }
  in
  lines st s start stop

let parse text = parse_range text 0 (String.length text)

let to_string (t : t) =
  let buffer = Buffer.create 256 in
  let line kind value =
    Buffer.add_char buffer kind;
    Buffer.add_char buffer '=';
    Buffer.add_string buffer value;
    Buffer.add_string buffer "\r\n"
  in
  line 'v' (string_of_int t.version);
  line 'o' t.origin;
  line 's' t.session_name;
  (match t.connection with None -> () | Some addr -> line 'c' ("IN IP4 " ^ addr));
  line 't' t.timing;
  List.iter
    (fun (name, value) ->
      line 'a' (match value with None -> name | Some v -> name ^ ":" ^ v))
    t.session_attributes;
  List.iter
    (fun m ->
      line 'm'
        (Printf.sprintf "%s %d %s %s" m.media_type m.port m.transport
           (String.concat " " (List.map string_of_int m.formats)));
      List.iter
        (fun (name, value) ->
          match (name, value) with
          | "c", Some v -> line 'c' v
          | _ -> line 'a' (match value with None -> name | Some v -> name ^ ":" ^ v))
        m.attributes)
    t.media;
  Buffer.contents buffer

(* Port 0 declines a stream (RFC 3264 §6). *)
let first_audio t = List.find_opt (fun m -> m.media_type = "audio" && m.port <> 0) t.media

(* The block's own c= line, kept among its attributes, overrides the
   session's (RFC 4566 §5.7). *)
let media_addr (t : t) m =
  let media_level =
    match List.assoc_opt "c" m.attributes with
    | Some (Some line) -> connection_addr line 0 (String.length line)
    | Some None | None -> None
  in
  match media_level with
  | Some addr -> Some (addr, m.port)
  | None -> Option.map (fun addr -> (addr, m.port)) t.connection

module Payload_type = Payload_type
