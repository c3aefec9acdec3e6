module E = Efsm.Event
module F = Keys.Field
module V = Efsm.Value

let set_sdp ?prof event msg =
  let body = msg.Sip.Msg.body in
  if String.length body > 0 && Sip.Msg.content_type_is msg "application/sdp" then
    let parsed =
      match prof with
      | None -> Sdp.parse body
      | Some p ->
          Obs.Prof.enter p Obs.Prof.Sdp_parse;
          let r = Sdp.parse body in
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

let set_str event field = function Some v -> E.set event field (V.Str v) | None -> ()

(* Each header the machines read goes to its slot; a header that is
   missing or does not parse leaves its field absent.  Tags, the Contact
   host and the branch are located in their header values, so the only
   strings built are the ones the event keeps. *)
let of_msg ?prof ~at ~src ~dst msg =
  let name =
    match msg.Sip.Msg.start with
    | Sip.Msg.Request { meth; _ } -> Sip.Msg_method.to_string meth
    | Sip.Msg.Response _ -> Keys.response
  in
  let event = E.blank (E.Data "SIP") ~at ~last:F.media_pt name in
  set_sdp ?prof event msg;
  (match Sip.Msg.call_id msg with Ok cid -> E.set event F.call_id (V.Str cid) | Error _ -> ());
  (match Sip.Msg.cseq msg with
  | Ok c ->
      E.set event F.cseq_method (V.Str (Sip.Msg_method.to_string c.Sip.Cseq.meth));
      E.set event F.cseq_number (V.Int c.Sip.Cseq.number)
  | Error _ -> ());
  (match msg.Sip.Msg.start with
  | Sip.Msg.Request _ -> ()
  | Sip.Msg.Response { code; _ } -> E.set event F.code (V.Int code));
  E.set event F.src_ip (V.Str (Dsim.Addr.host src));
  E.set event F.src_port (V.Int (Dsim.Addr.port src));
  E.set event F.dst_ip (V.Str (Dsim.Addr.host dst));
  E.set event F.dst_port (V.Int (Dsim.Addr.port dst));
  set_str event F.from_tag (Sip.Msg.from_tag msg);
  set_str event F.to_tag (Sip.Msg.to_tag msg);
  set_str event F.contact_host (Sip.Msg.contact_host msg);
  set_str event F.branch (Sip.Msg.branch msg);
  event

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

let flood_key msg =
  match msg.Sip.Msg.start with
  | Sip.Msg.Request { meth = Sip.Msg_method.INVITE; uri } ->
      let user = match uri.Sip.Uri.user with Some u -> unescape_user u | None -> "" in
      Some (user ^ "@" ^ Keys.canonical_host uri.Sip.Uri.host)
  | Sip.Msg.Request _ | Sip.Msg.Response _ -> None
