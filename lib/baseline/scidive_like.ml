type session = {
  mutable established : bool;
  mutable bye_at : Dsim.Time.t option;
  mutable invite_src : string option;
  mutable media : Dsim.Addr.t list;
  mutable alerted : (string, unit) Hashtbl.t;
}

type t = {
  sched : Dsim.Scheduler.t;
  bye_grace : Dsim.Time.t;
  sessions : (string, session) Hashtbl.t;
  media_index : (string, string) Hashtbl.t;
  mutable alerts : int;
}

let create ?(bye_grace = Dsim.Time.of_ms 250.0) sched () =
  {
    sched;
    bye_grace;
    sessions = Hashtbl.create 64;
    media_index = Hashtbl.create 64;
    alerts = 0;
  }

let session t call_id =
  match Hashtbl.find_opt t.sessions call_id with
  | Some s -> s
  | None ->
      let s =
        {
          established = false;
          bye_at = None;
          invite_src = None;
          media = [];
          alerted = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.sessions call_id s;
      s

let alert t session ~kind ~subject detail =
  let key = Vids.Alert.kind_to_string kind ^ detail in
  if Hashtbl.mem session.alerted key then []
  else begin
    Hashtbl.replace session.alerted key ();
    t.alerts <- t.alerts + 1;
    [ Vids.Alert.make ~kind ~at:(Dsim.Scheduler.now t.sched) ~subject detail ]
  end

let register_media t session call_id msg =
  let body = msg.Sip.Msg.body in
  if body <> "" && Sip.Msg.content_type_is msg "application/sdp" then
    match Sdp.parse body with
    | Error _ -> ()
    | Ok d -> (
        match Sdp.first_audio d with
        | None -> ()
        | Some m -> (
            match Sdp.media_addr d m with
            | None -> ()
            | Some (host, port) ->
                let addr = Dsim.Addr.v host port in
                session.media <- addr :: session.media;
                Hashtbl.replace t.media_index (Dsim.Addr.to_string addr) call_id))

let on_sip t (packet : Dsim.Packet.t) msg =
  match Sip.Msg.call_id msg with
  | Error _ -> []
  | Ok call_id -> (
      let s = session t call_id in
      register_media t s call_id msg;
      match msg.Sip.Msg.start with
      | Sip.Msg.Request { meth = Sip.Msg_method.INVITE; _ } ->
          (match s.invite_src with
          | None -> s.invite_src <- Some (Dsim.Addr.host packet.src)
          | Some _ -> ());
          []
      | Sip.Msg.Request { meth = Sip.Msg_method.CANCEL; _ } ->
          (* Rule: CANCEL whose source differs from the INVITE's. *)
          let foreign =
            match s.invite_src with
            | Some src -> not (String.equal src (Dsim.Addr.host packet.src))
            | None -> false
          in
          if foreign then
            alert t s ~kind:Vids.Alert.Cancel_dos ~subject:call_id
              "SCIDIVE rule: CANCEL source differs from INVITE source"
          else []
      | Sip.Msg.Request { meth = Sip.Msg_method.BYE; _ } ->
          s.bye_at <- Some (Dsim.Scheduler.now t.sched);
          []
      | Sip.Msg.Request _ -> []
      | Sip.Msg.Response { code; _ } ->
          (match Sip.Msg.cseq msg with
          | Ok c
            when Sip.Msg_method.equal c.Sip.Cseq.meth Sip.Msg_method.INVITE
                 && Sip.Status.is_success code ->
              s.established <- true
          | _ -> ());
          [])

let on_rtp t (packet : Dsim.Packet.t) =
  match Hashtbl.find_opt t.media_index (Dsim.Addr.to_string packet.dst) with
  | None -> []
  | Some call_id -> (
      let s = session t call_id in
      match s.bye_at with
      | Some bye_time
        when Dsim.Time.( > )
               (Dsim.Time.sub (Dsim.Scheduler.now t.sched) bye_time)
               t.bye_grace ->
          (* Rule: media after teardown (SCIDIVE's cross-protocol check). *)
          alert t s ~kind:Vids.Alert.Bye_dos ~subject:call_id
            "SCIDIVE rule: RTP after BYE grace period"
      | Some _ | None -> [])

let process t (packet : Dsim.Packet.t) =
  let dst_port = Dsim.Addr.port packet.dst in
  if dst_port = 5060 || Dsim.Addr.port packet.src = 5060 then
    match Sip.Msg.parse packet.payload with Ok msg -> on_sip t packet msg | Error _ -> []
  else if dst_port >= 16384 && dst_port <= 32767 && dst_port land 1 = 0 then on_rtp t packet
  else []

let alerts_total t = t.alerts
