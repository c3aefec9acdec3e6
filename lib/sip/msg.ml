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

(* A trimmed 1*DIGIT header value, or -1. *)
let decimal_value v =
  let start = Scan.skip_space v 0 (String.length v) in
  Scan.decimal v start (Scan.trim_end v start (String.length v))

let of_index idx =
  let s = Index.text idx and target = Index.target idx in
  let start =
    if Index.code idx >= 0 then Response { code = Index.code idx; reason = Scan.sub_span s target }
    else
      let uri = Uri.parse_range s (Scan.span_start target) (Scan.span_stop target) in
      Request { meth = Index.meth idx; uri = Result.get_ok uri }
  in
  let field i = (Index.name idx i, Scan.sub_span s (Index.value idx i)) in
  let headers = Header.of_list (List.init (Index.count idx) field) in
  { start; headers; body = Scan.sub_span s (Index.body idx) }

let parse text =
  let idx = Index.create () in
  match Index.read idx text with Ok () -> Ok (of_index idx) | Error e -> Error e

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

(* The first item of the first Via, parsed where it lies.  Only a first
   Via with no item before its first comma needs the whole list. *)
let top_via t =
  match Header.get_canonical t.headers "Via" with
  | None -> Error "missing Via"
  | Some v -> (
      let e = Scan.item_end v 0 (String.length v) in
      let a = Scan.skip_space v 0 e in
      let b = Scan.trim_end v a e in
      if a < b then Via.parse_range v a b
      else
        match Header.get_all t.headers "Via" with
        | [] -> Error "missing Via"
        | v :: _ -> Via.parse_range v 0 (String.length v))

let contact t = name_addr_field t "Contact"

let decimal_field t name =
  match Header.get_canonical t.headers name with
  | None -> None
  | Some v ->
      let n = decimal_value v in
      if n < 0 then None else Some n

let content_type t = Header.get_canonical t.headers "Content-Type"

let media_type_is v start stop media_type =
  let stop = Scan.until v start stop ';' in
  let slash = Scan.index v start stop '/' in
  slash >= 0
  &&
  let type_start = Scan.skip_space v start slash in
  let type_stop = Scan.trim_end v type_start slash in
  let sub_start = Scan.skip_space v (slash + 1) stop in
  let sub_stop = Scan.trim_end v sub_start stop in
  let n = type_stop - type_start in
  String.length media_type = n + 1 + (sub_stop - sub_start)
  && media_type.[n] = '/'
  && Scan.equal_ci_at v type_start type_stop media_type 0
  && Scan.equal_ci_at v sub_start sub_stop media_type (n + 1)

let content_type_is t media_type =
  match content_type t with
  | None -> false
  | Some v -> media_type_is v 0 (String.length v) media_type

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
