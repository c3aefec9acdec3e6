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

let set_tag event field header =
  match header with
  | Ok na -> (
      match Sip.Name_addr.tag na with Some t -> E.set event field (V.Str t) | None -> ())
  | Error _ -> ()

(* Each header the machines read goes to its slot; a header that is
   missing or does not parse leaves its field absent. *)
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
  set_tag event F.from_tag (Sip.Msg.from_ msg);
  set_tag event F.to_tag (Sip.Msg.to_ msg);
  (match Sip.Msg.contact msg with
  | Ok na -> E.set event F.contact_host (V.Str na.Sip.Name_addr.uri.Sip.Uri.host)
  | Error _ -> ());
  (match Sip.Msg.top_via msg with
  | Ok via -> (
      match Sip.Via.branch via with Some b -> E.set event F.branch (V.Str b) | None -> ())
  | Error _ -> ());
  event

let media_of_event event =
  match (E.get event F.media_host, E.get event F.media_port) with
  | V.Str host, V.Int port -> Some (Dsim.Addr.v host port)
  | _ -> None

(* Hosts compare case-insensitively (RFC 3261 §19.1.4), so one
   destination must key one detector however its host is spelled.  Hosts
   on the wire are almost always lowercase already: copy only the rare
   mixed-case one. *)
let lowercase_host h =
  if String.exists (fun c -> c >= 'A' && c <= 'Z') h then String.lowercase_ascii h else h

let flood_key msg =
  match msg.Sip.Msg.start with
  | Sip.Msg.Request { meth = Sip.Msg_method.INVITE; uri } ->
      let user = Option.value uri.Sip.Uri.user ~default:"" in
      Some (user ^ "@" ^ lowercase_host uri.Sip.Uri.host)
  | Sip.Msg.Request _ | Sip.Msg.Response _ -> None
