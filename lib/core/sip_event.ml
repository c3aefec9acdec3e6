module V = Efsm.Value

let sdp_args ?prof msg =
  let body = msg.Sip.Msg.body in
  if String.length body = 0 || not (Sip.Msg.content_type_is msg "application/sdp") then []
  else
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
                  (Keys.media_host, V.Str host);
                  (Keys.media_port, V.Int port);
                  (Keys.media_pt, V.Int pt);
                ]))

let tag_arg key field args =
  match field with
  | Ok na -> ( match Sip.Name_addr.tag na with Some t -> (key, V.Str t) :: args | None -> args)
  | Error _ -> args

(* Arguments in the order the machines have always seen them: branch,
   Contact host, To and From tags, the addresses, the status code, CSeq,
   Call-ID and the SDP media.  Consed from the tail, never appended. *)
let of_msg ?prof ~at ~src ~dst msg =
  let args = sdp_args ?prof msg in
  let args =
    match Sip.Msg.call_id msg with Ok cid -> (Keys.call_id, V.Str cid) :: args | Error _ -> args
  in
  let args =
    match Sip.Msg.cseq msg with
    | Ok c ->
        (Keys.cseq_method, V.Str (Sip.Msg_method.to_string c.Sip.Cseq.meth))
        :: (Keys.cseq_number, V.Int c.Sip.Cseq.number)
        :: args
    | Error _ -> args
  in
  let args =
    match msg.Sip.Msg.start with
    | Sip.Msg.Request _ -> args
    | Sip.Msg.Response { code; _ } -> (Keys.code, V.Int code) :: args
  in
  let args =
    (Keys.src_ip, V.Str (Dsim.Addr.host src))
    :: (Keys.src_port, V.Int (Dsim.Addr.port src))
    :: (Keys.dst_ip, V.Str (Dsim.Addr.host dst))
    :: (Keys.dst_port, V.Int (Dsim.Addr.port dst))
    :: args
  in
  let args = tag_arg Keys.from_tag (Sip.Msg.from_ msg) args in
  let args = tag_arg Keys.to_tag (Sip.Msg.to_ msg) args in
  let args =
    match Sip.Msg.contact msg with
    | Ok na -> (Keys.contact_host, V.Str na.Sip.Name_addr.uri.Sip.Uri.host) :: args
    | Error _ -> args
  in
  let args =
    match Sip.Msg.top_via msg with
    | Ok via -> (
        match Sip.Via.branch via with Some b -> (Keys.branch, V.Str b) :: args | None -> args)
    | Error _ -> args
  in
  let name =
    match msg.Sip.Msg.start with
    | Sip.Msg.Request { meth; _ } -> Sip.Msg_method.to_string meth
    | Sip.Msg.Response _ -> Keys.response
  in
  Efsm.Event.make ~args (Efsm.Event.Data "SIP") ~at name

let media_of_event event =
  if Efsm.Event.has_arg event Keys.media_host then
    match
      (Efsm.Event.arg event Keys.media_host, Efsm.Event.arg event Keys.media_port)
    with
    | V.Str host, V.Int port -> Some (Dsim.Addr.v host port)
    | _ -> None
  else None

let flood_key msg =
  match msg.Sip.Msg.start with
  | Sip.Msg.Request { meth = Sip.Msg_method.INVITE; uri } ->
      let user = Option.value uri.Sip.Uri.user ~default:"" in
      Some (user ^ "@" ^ uri.Sip.Uri.host)
  | Sip.Msg.Request _ | Sip.Msg.Response _ -> None
