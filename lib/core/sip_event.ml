module E = Efsm.Event
module F = Keys.Field
module V = Efsm.Value
module Scan = Sip.Scan

(* A header value or the body where [build] reads it:
   [text.[start .. stop - 1]]. *)
type field = { mutable text : string; mutable start : int; mutable stop : int }

(* [find slot n f] points [f] at the [n]th header in [slot], or at the
   body for [body]; false when there is none. *)
type lookup = int -> int -> field -> bool

let slot name = Sip.Header.slot name 0 (String.length name)
let via = slot "Via"
let from_ = slot "From"
let to_ = slot "To"
let call_id = slot "Call-ID"
let cseq = slot "CSeq"
let contact = slot "Contact"
let content_type = slot "Content-Type"
let body = -1

let set_sdp ?prof event f =
  let parsed =
    match prof with
    | None -> Sdp.parse_range f.text f.start f.stop
    | Some p ->
        Obs.Prof.enter p Obs.Prof.Sdp_parse;
        let r = Sdp.parse_range f.text f.start f.stop in
        Obs.Prof.exit p Obs.Prof.Sdp_parse;
        r
  in
  match parsed with
  | Error _ -> ()
  | Ok description -> (
      match Sdp.first_audio description with
      | None -> ()
      | Some media -> (
          match Sdp.media_addr description media with
          | None -> ()
          | Some (host, port) ->
              let pt = match media.Sdp.formats with pt :: _ -> pt | [] -> -1 in
              E.set event F.media_host (V.Str host);
              E.set event F.media_port (V.Int port);
              E.set event F.media_pt (V.Int pt)))

(* The part [locate] finds in [f], copied. *)
let located event key f locate =
  let p = locate f.text f.start f.stop in
  if p >= 0 then E.set event key (V.Str (Scan.sub_span f.text p))

(* The first non-empty item of the Via headers, as [Msg.top_via] reads
   it: the first Via's first item, unless that one is empty. *)
let rec top_via (find : lookup) f n =
  find via n f && (first_item f f.start || top_via find f (n + 1))

and first_item f i =
  let e = Scan.item_end f.text i f.stop in
  let a = Scan.skip_space f.text i e in
  let b = Scan.trim_end f.text a e in
  if a < b then begin
    f.start <- a;
    f.stop <- b;
    true
  end
  else e < f.stop && first_item f (e + 1)

(* The one way an event is built, from a parsed message or an index.
   Each header the machines read goes to its slot; a header that is
   missing or does not parse leaves its field absent.  Tags, the Contact host and the
   branch are located in their header values, so the only strings built
   are the ones the event keeps. *)
let build ?prof ~at ~src ~dst ~name ~code (find : lookup) =
  let f = { text = ""; start = 0; stop = 0 } in
  let event = E.blank (E.Data "SIP") ~at ~last:F.media_pt name in
  if
    find content_type 0 f
    && Sip.Msg.media_type_is f.text f.start f.stop "application/sdp"
    && find body 0 f && f.start < f.stop
  then set_sdp ?prof event f;
  if find call_id 0 f then E.set event F.call_id (V.Str (Scan.sub f.text f.start f.stop));
  (if find cseq 0 f then
     match Sip.Cseq.parse_range f.text f.start f.stop with
     | Ok c ->
         E.set event F.cseq_method (V.Str (Sip.Msg_method.to_string c.Sip.Cseq.meth));
         E.set event F.cseq_number (V.Int c.Sip.Cseq.number)
     | Error _ -> ());
  if code >= 0 then E.set event F.code (V.Int code);
  E.set event F.src_ip (V.Str (Dsim.Addr.host src));
  E.set event F.src_port (V.Int (Dsim.Addr.port src));
  E.set event F.dst_ip (V.Str (Dsim.Addr.host dst));
  E.set event F.dst_port (V.Int (Dsim.Addr.port dst));
  if find from_ 0 f then located event F.from_tag f Sip.Name_addr.tag_span;
  if find to_ 0 f then located event F.to_tag f Sip.Name_addr.tag_span;
  if find contact 0 f then located event F.contact_host f Sip.Name_addr.host_span;
  if top_via find f 0 then located event F.branch f Sip.Via.branch_span;
  event

let point f text start stop =
  f.text <- text;
  f.start <- start;
  f.stop <- stop;
  true

let of_msg ?prof ~at ~src ~dst (msg : Sip.Msg.t) =
  let name, code =
    match msg.start with
    | Request { meth; _ } -> (Sip.Msg_method.to_string meth, -1)
    | Response { code; _ } -> (Keys.response, code)
  in
  build ?prof ~at ~src ~dst ~name ~code (fun slot n f ->
      match if slot = body then Some msg.body else Sip.Header.find_slot msg.headers slot n with
      | None -> false
      | Some v -> point f v 0 (String.length v))

let of_index ?prof ~at ~src ~dst idx =
  let code = Sip.Index.code idx in
  let name = if code >= 0 then Keys.response else Sip.Msg_method.to_string (Sip.Index.meth idx) in
  let text = Sip.Index.text idx in
  build ?prof ~at ~src ~dst ~name ~code (fun slot n f ->
      let p = if slot = body then Sip.Index.body idx else Sip.Index.find idx slot n in
      p >= 0 && point f text (Scan.span_start p) (Scan.span_stop p))

let media_of_event event =
  match (E.get event F.media_host, E.get event F.media_port) with
  | V.Str host, V.Int port -> Some (Dsim.Addr.v host port)
  | _ -> None

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* An escaped unreserved character is the character itself (RFC 3261
   §19.1.4, unreserved = alphanum / mark), so one user must key one
   detector however it is escaped.  A reserved one ([%40], [%3B]) is not
   equivalent to the raw character and stays escaped, its hex digits
   uppercased.  Escapes are rare on the wire: copy only a user with a
   [%]. *)
let unescape_user u =
  if not (String.contains u '%') then u
  else begin
    let n = String.length u in
    let b = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      let hi = if u.[!i] = '%' && !i + 2 < n then hex_digit u.[!i + 1] else -1 in
      let lo = if hi < 0 then -1 else hex_digit u.[!i + 2] in
      if lo < 0 then begin
        Buffer.add_char b u.[!i];
        incr i
      end
      else begin
        (match Char.chr ((16 * hi) + lo) with
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '!' | '~' | '*' | '\'' | '('
          | ')') as c ->
            Buffer.add_char b c
        | _ ->
            Buffer.add_char b '%';
            Buffer.add_char b (Char.uppercase_ascii u.[!i + 1]);
            Buffer.add_char b (Char.uppercase_ascii u.[!i + 2]));
        i := !i + 3
      end
    done;
    Buffer.contents b
  end

let key ~user ~host = unescape_user user ^ "@" ^ Keys.canonical_host host

let flood_key (msg : Sip.Msg.t) =
  match msg.start with
  | Request { meth = Sip.Msg_method.INVITE; uri } ->
      Some (key ~user:(Option.value uri.user ~default:"") ~host:uri.host)
  | Request _ | Response _ -> None

(* The request-URI is known good: its user, if any, runs from its scheme's
   ':' to the '@' before its host. *)
let index_flood_key idx =
  if Sip.Index.code idx >= 0 then None
  else
    match Sip.Index.meth idx with
    | INVITE ->
        let text = Sip.Index.text idx and uri = Sip.Index.target idx in
        let start = Scan.span_start uri and stop = Scan.span_stop uri in
        let host = Sip.Uri.host_span text start stop in
        let colon = Scan.index text start stop ':' in
        let host_start = Scan.span_start host in
        let user =
          if host_start > colon + 1 then Scan.sub text (colon + 1) (host_start - 1) else ""
        in
        Some (key ~user ~host:(Scan.sub_span text host))
    | _ -> None
