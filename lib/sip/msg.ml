type start_line =
  | Request of { meth : Msg_method.t; uri : Uri.t }
  | Response of { code : Status.t; reason : string }

type t = { start : start_line; headers : Header.t; body : string }

let sip_version = "SIP/2.0"

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let request ~meth ~uri ~via ~from_ ~to_ ~call_id ~cseq ?contact ?(max_forwards = 70)
    ?(headers = []) ?(body = "") ?content_type () =
  let h = Header.empty in
  let h = Header.add h "Via" (Via.to_string via) in
  let h = Header.add h "Max-Forwards" (string_of_int max_forwards) in
  let h = Header.add h "From" (Name_addr.to_string from_) in
  let h = Header.add h "To" (Name_addr.to_string to_) in
  let h = Header.add h "Call-ID" call_id in
  let h = Header.add h "CSeq" (Cseq.to_string cseq) in
  let h =
    match contact with None -> h | Some c -> Header.add h "Contact" (Name_addr.to_string c)
  in
  let h =
    match content_type with None -> h | Some ct -> Header.add h "Content-Type" ct
  in
  let h = List.fold_left (fun h (name, value) -> Header.add h name value) h headers in
  { start = Request { meth; uri }; headers = h; body }

let response_to req ~code ?reason ?(body = "") ?content_type ?(headers = []) ?to_tag () =
  match req.start with
  | Response _ -> invalid_arg "Msg.response_to: argument is a response"
  | Request _ ->
      let copy name h =
        List.fold_left
          (fun h v -> Header.add h name v)
          h
          (List.filter_map
             (fun (n, v) -> if String.equal n (Header.canonical_name name) then Some v else None)
             (Header.to_list req.headers))
      in
      let h = Header.empty in
      let h = copy "Via" h in
      (* Dialog-forming responses echo the Record-Route set (§12.1.1). *)
      let h = copy "Record-Route" h in
      let h = copy "From" h in
      let h =
        match (Header.get req.headers "To", to_tag) with
        | Some to_value, Some tag -> (
            match Name_addr.parse to_value with
            | Ok na when Name_addr.tag na = None ->
                Header.add h "To" (Name_addr.to_string (Name_addr.with_tag na tag))
            | Ok _ | Error _ -> Header.add h "To" to_value)
        | Some to_value, None -> Header.add h "To" to_value
        | None, _ -> h
      in
      let h =
        match Header.get req.headers "Call-ID" with
        | Some v -> Header.add h "Call-ID" v
        | None -> h
      in
      let h =
        match Header.get req.headers "CSeq" with Some v -> Header.add h "CSeq" v | None -> h
      in
      let h =
        match content_type with None -> h | Some ct -> Header.add h "Content-Type" ct
      in
      let h = List.fold_left (fun h (name, value) -> Header.add h name value) h headers in
      let reason = match reason with Some r -> r | None -> Status.reason_phrase code in
      { start = Response { code; reason }; headers = h; body }

let ack_for req ~response =
  match req.start with
  | Response _ -> invalid_arg "Msg.ack_for: argument is a response"
  | Request { uri; _ } ->
      let copy_from src name h =
        match Header.get src name with Some v -> Header.add h name v | None -> h
      in
      let h = Header.empty in
      (* Same top Via (and branch) as the INVITE for non-2xx ACK. *)
      let h =
        match Header.get req.headers "Via" with Some v -> Header.add h "Via" v | None -> h
      in
      let h = copy_from req.headers "From" h in
      (* To comes from the response so it carries the remote tag. *)
      let h = copy_from response.headers "To" h in
      let h = copy_from req.headers "Call-ID" h in
      let h =
        match Header.get req.headers "CSeq" with
        | Some v -> (
            match Cseq.parse v with
            | Ok c -> Header.add h "CSeq" (Cseq.to_string { c with meth = Msg_method.ACK })
            | Error _ -> h)
        | None -> h
      in
      let h = Header.add h "Max-Forwards" "70" in
      { start = Request { meth = Msg_method.ACK; uri }; headers = h; body = "" }

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

(* The start of the blank line that ends the head: the first CRLF CRLF or
   LF LF, or -1. *)
let rec head_end text i len =
  if i + 1 >= len then -1
  else
    match text.[i] with
    | '\r' when i + 3 < len && text.[i + 1] = '\n' && text.[i + 2] = '\r' && text.[i + 3] = '\n'
      ->
        i
    | '\n' when text.[i + 1] = '\n' -> i
    | _ -> head_end text (i + 1) len

(* Status-Code = 3DIGIT, within 100-699; -1 otherwise. *)
let status_code s start stop =
  let code = if stop - start = 3 then Scan.decimal s start stop else -1 in
  if code >= 100 && code <= 699 then code else -1

(* The start line on [s.[a .. b-1]]. *)
let parse_start_line s a b =
  if b - a >= 8 && Scan.equal s a (a + 8) "SIP/2.0 " then begin
    let rest = a + 8 in
    let space = Scan.index s rest b ' ' in
    if space < 0 then
      let code = status_code s rest b in
      if code < 0 then Error (Printf.sprintf "bad status line %S" (Scan.sub s a b))
      else Ok (Response { code; reason = "" })
    else
      let code = status_code s rest space in
      if code < 0 then Error (Printf.sprintf "bad status code %S" (Scan.sub s rest space))
      else Ok (Response { code; reason = Scan.sub s (space + 1) b })
  end
  else
    (* Method, URI and version: exactly two spaces. *)
    let sp1 = Scan.index s a b ' ' in
    let sp2 = if sp1 < 0 then -1 else Scan.index s (sp1 + 1) b ' ' in
    if sp2 < 0 || Scan.index s (sp2 + 1) b ' ' >= 0 || not (Scan.equal s (sp2 + 1) b sip_version)
    then Error (Printf.sprintf "bad request line %S" (Scan.sub s a b))
    else
      match Uri.parse_range s (sp1 + 1) sp2 with
      | Ok uri -> Ok (Request { meth = Msg_method.of_string (Scan.sub s a sp1); uri })
      | Error e -> Error e

(* A trimmed 1*DIGIT header value, or -1. *)
let decimal_value v =
  let start = Scan.skip_space v 0 (String.length v) in
  Scan.decimal v start (Scan.trim_end v start (String.length v))

let with_body start headers text body_start =
  let available = String.length text - body_start in
  match Header.get_canonical headers "Content-Length" with
  | None -> Ok { start; headers; body = String.sub text body_start available }
  | Some len_str ->
      let len = decimal_value len_str in
      if len < 0 then Error (Printf.sprintf "bad Content-Length %S" len_str)
      else if len > available then Error "Content-Length exceeds body"
      else Ok { start; headers; body = String.sub text body_start len }

let with_headers start text nl stop body_start =
  match start with
  | Error e -> Error e
  | Ok start -> (
      let headers = if nl < stop then Header.parse_range text (nl + 1) stop else Ok Header.empty in
      match headers with
      | Error e -> Error e
      | Ok headers -> with_body start headers text body_start)

(* One pass over the payload: the head is split into lines in place and
   only the fields the message keeps are copied.  A folded start line is
   the one line materialised before it is split. *)
let parse text =
  let len = String.length text in
  let blank = head_end text 0 len in
  let stop = if blank < 0 then len else blank in
  let body_start =
    if blank < 0 then len else if text.[blank] = '\r' then blank + 4 else blank + 2
  in
  let nl = Scan.line_end text 0 stop in
  if Scan.folded text (nl + 1) stop || Scan.folded text 0 stop then
    let line, nl = Scan.unfold text 0 stop in
    with_headers (parse_start_line line 0 (String.length line)) text nl stop body_start
  else with_headers (parse_start_line text 0 (Scan.content_end text 0 nl)) text nl stop body_start

let serialize t =
  let buffer = Buffer.create 512 in
  (match t.start with
  | Request { meth; uri } ->
      Buffer.add_string buffer (Msg_method.to_string meth);
      Buffer.add_char buffer ' ';
      Buffer.add_string buffer (Uri.to_string uri);
      Buffer.add_char buffer ' ';
      Buffer.add_string buffer sip_version
  | Response { code; reason } ->
      Buffer.add_string buffer sip_version;
      Buffer.add_char buffer ' ';
      Buffer.add_string buffer (string_of_int code);
      Buffer.add_char buffer ' ';
      Buffer.add_string buffer reason);
  Buffer.add_string buffer "\r\n";
  let headers = Header.set t.headers "Content-Length" (string_of_int (String.length t.body)) in
  Header.fold
    (fun name value () ->
      Buffer.add_string buffer name;
      Buffer.add_string buffer ": ";
      Buffer.add_string buffer value;
      Buffer.add_string buffer "\r\n")
    headers ();
  Buffer.add_string buffer "\r\n";
  Buffer.add_string buffer t.body;
  Buffer.contents buffer

let pp ppf t =
  match t.start with
  | Request { meth; uri } ->
      Format.fprintf ppf "%a %s (cid=%s)" Msg_method.pp meth (Uri.to_string uri)
        (Option.value (Header.get_canonical t.headers "Call-ID") ~default:"?")
  | Response { code; reason } ->
      Format.fprintf ppf "%d %s (cid=%s)" code reason
        (Option.value (Header.get_canonical t.headers "Call-ID") ~default:"?")

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let is_request t = match t.start with Request _ -> true | Response _ -> false
let is_response t = not (is_request t)

(* The accessors name fields by their canonical spelling, so they look
   them up with [Header.get_canonical]. *)

let cseq t =
  match Header.get_canonical t.headers "CSeq" with
  | None -> Error "missing CSeq"
  | Some v -> Cseq.parse v

let method_of t =
  match t.start with
  | Request { meth; _ } -> Some meth
  | Response _ -> ( match cseq t with Ok c -> Some c.Cseq.meth | Error _ -> None)

let status_of t = match t.start with Response { code; _ } -> Some code | Request _ -> None

let call_id t =
  match Header.get_canonical t.headers "Call-ID" with
  | Some v -> Ok v
  | None -> Error "missing Call-ID"

let name_addr_field t name =
  match Header.get_canonical t.headers name with
  | None -> Error (Printf.sprintf "missing %s" name)
  | Some v -> Name_addr.parse v

let from_ t = name_addr_field t "From"
let to_ t = name_addr_field t "To"

(* [read] of the first item of the first Via, where it lies.  Only a first
   Via with no item before its first comma needs the whole list. *)
let read_top_via t ~missing read =
  match Header.get_canonical t.headers "Via" with
  | None -> missing
  | Some v -> (
      let e = Scan.item_end v 0 (String.length v) in
      let a = Scan.skip_space v 0 e in
      let b = Scan.trim_end v a e in
      if a < b then read v a b
      else
        match Header.get_all t.headers "Via" with
        | [] -> missing
        | v :: _ -> read v 0 (String.length v))

let top_via t = read_top_via t ~missing:(Error "missing Via") Via.parse_range
let contact t = name_addr_field t "Contact"

(* The span [locate] finds in a field's value, copied. *)
let copy_span v locate start stop =
  let p = locate v start stop in
  if p < 0 then None else Some (Scan.sub_span v p)

let located_field t name locate =
  match Header.get_canonical t.headers name with
  | None -> None
  | Some v -> copy_span v locate 0 (String.length v)

let from_tag t = located_field t "From" Name_addr.tag_span
let to_tag t = located_field t "To" Name_addr.tag_span
let contact_host t = located_field t "Contact" Name_addr.host_span
let branch t = read_top_via t ~missing:None (fun v a b -> copy_span v Via.branch_span a b)

let decimal_field t name =
  match Header.get_canonical t.headers name with
  | None -> None
  | Some v ->
      let n = decimal_value v in
      if n < 0 then None else Some n

let content_type t = Header.get_canonical t.headers "Content-Type"

let content_type_is t media_type =
  match content_type t with
  | None -> false
  | Some v ->
      let stop = Scan.until v 0 (String.length v) ';' in
      let slash = Scan.index v 0 stop '/' in
      slash >= 0
      &&
      let type_start = Scan.skip_space v 0 slash in
      let type_stop = Scan.trim_end v type_start slash in
      let sub_start = Scan.skip_space v (slash + 1) stop in
      let sub_stop = Scan.trim_end v sub_start stop in
      let n = type_stop - type_start in
      String.length media_type = n + 1 + (sub_stop - sub_start)
      && media_type.[n] = '/'
      && Scan.equal_ci_at v type_start type_stop media_type 0
      && Scan.equal_ci_at v sub_start sub_stop media_type (n + 1)

let expires t = decimal_field t "Expires"

(* ------------------------------------------------------------------ *)
(* Proxy helpers                                                       *)
(* ------------------------------------------------------------------ *)

let push_via t via = { t with headers = Header.add_first t.headers "Via" (Via.to_string via) }
let pop_via t = { t with headers = Header.remove_first t.headers "Via" }

let decrement_max_forwards t =
  match Header.get_canonical t.headers "Max-Forwards" with
  | None -> Ok { t with headers = Header.set t.headers "Max-Forwards" "70" }
  | Some v -> (
      match decimal_value v with
      | 0 -> Error `Exhausted
      | n when n < 0 -> Error `Malformed
      | n -> Ok { t with headers = Header.set t.headers "Max-Forwards" (string_of_int (n - 1)) })

let transaction_key t =
  let ( let* ) r f = Result.bind r f in
  let* via = top_via t in
  let* c = cseq t in
  let branch = Option.value (Via.branch via) ~default:"no-branch" in
  let meth =
    (* ACK for a non-2xx matches the INVITE server transaction.  CANCEL
       keeps its own transaction; routing a CANCEL to the INVITE it cancels
       is the transaction user's job. *)
    match c.Cseq.meth with Msg_method.ACK -> Msg_method.INVITE | m -> m
  in
  Ok
    (Printf.sprintf "%s|%s:%d|%s" branch via.Via.host
       (Option.value via.Via.port ~default:5060)
       (Msg_method.to_string meth))

let invite_key_of_cancel t =
  let ( let* ) r f = Result.bind r f in
  let* via = top_via t in
  let branch = Option.value (Via.branch via) ~default:"no-branch" in
  Ok
    (Printf.sprintf "%s|%s:%d|INVITE" branch via.Via.host
       (Option.value via.Via.port ~default:5060))
