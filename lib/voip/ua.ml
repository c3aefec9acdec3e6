module Time = Dsim.Time

type call_state = Setup | Active | Ended

type call = {
  call_id : string;
  role : [ `Caller | `Callee ];
  mutable local_media : Dsim.Addr.t;
  mutable state : call_state;
  mutable remote_media : Dsim.Addr.t option;
  mutable peer_contact : Dsim.Addr.t option;
  mutable from_tag : string option; (* our tag when caller, theirs when callee *)
  mutable to_tag : string option;
  mutable local_tag : string; (* our tag regardless of role *)
  mutable remote_tag : string option;
  mutable local_cseq : int;
  mutable sender : Rtp.Session.Sender.t option;
  mutable receiver : Rtp.Session.Receiver.t option;
  mutable playout : Rtp.Playout.t option;
  mutable rtp_timer : Dsim.Scheduler.timer option;
  mutable hangup_timer : Dsim.Scheduler.timer option;
  mutable answer_timer : Dsim.Scheduler.timer option;
  mutable invite_sent_at : Time.t;
  mutable setup_recorded : bool;
  mutable last_rtp_delay : Time.t option;
  mutable invite_server_txn : Sip.Transaction.Server.t option;
  mutable original_invite : Sip.Msg.t option;
  mutable last_ack : Sip.Msg.t option;
  mutable remote_uri : Sip.Uri.t option;
  mutable talking : bool;
  mutable route_set : Dsim.Addr.t list;
}

type t = {
  name : string;
  domain : string;
  local : Dsim.Addr.t;
  proxy : Dsim.Addr.t;
  transport : Transport.t;
  mutable txn_mgr : Txn_manager.t option;
  ident : Sip.Ident.t;
  rng : Dsim.Rng.t;
  codec : Rtp.Codec.t;
  metrics : Metrics.t;
  calls : (string, call) Hashtbl.t;
  media_ports : (int, string) Hashtbl.t;
  mutable next_media_port : int;
  max_concurrent : int;
  vad : bool;
  password : string;
  mutable fraudulent : bool;
}

let sched t = Transport.scheduler t.transport
let now t = Dsim.Scheduler.now (sched t)
let addr t = t.local
let aor t = Sip.Uri.make ~user:t.name t.domain
let set_fraudulent t flag = t.fraudulent <- flag

let txn_mgr t =
  match t.txn_mgr with Some m -> m | None -> failwith "Ua: transaction manager missing"

let cancel_timer = function None -> () | Some timer -> Dsim.Scheduler.cancel timer

let live_calls t =
  Hashtbl.fold (fun _ c acc -> if c.state = Ended then acc else acc + 1) t.calls 0

let alloc_media_port t call_id =
  let port = t.next_media_port in
  t.next_media_port <- t.next_media_port + 2;
  Hashtbl.replace t.media_ports port call_id;
  port

let local_na t call = Sip.Name_addr.make ~params:[ ("tag", Some call.local_tag) ] (aor t)
let contact_na t = Sip.Name_addr.make (Sip.Uri.make ~user:t.name ~port:(Dsim.Addr.port t.local) (Dsim.Addr.host t.local))

let sdp_body_for t media =
  Sdp.to_string
    (Sdp.make ~origin_user:t.name ~origin_host:(Dsim.Addr.host t.local)
       ~connection:(Dsim.Addr.host media)
       ~media:
         [ Sdp.audio_media ~port:(Dsim.Addr.port media)
             ~formats:[ t.codec.Rtp.Codec.payload_type ] ]
       ())

let sdp_body t call = sdp_body_for t call.local_media

let parse_remote_media body =
  match Sdp.parse body with
  | Error _ -> None
  | Ok description -> (
      match Sdp.first_audio description with
      | None -> None
      | Some media -> (
          match Sdp.media_addr description media with
          | Some (host, port) -> Some (Dsim.Addr.v host port)
          | None -> None))

let route_set_of msg ~reversed =
  let addrs =
    List.filter_map
      (fun value ->
        match Sip.Name_addr.parse value with
        | Ok na ->
            let uri = na.Sip.Name_addr.uri in
            Some (Dsim.Addr.v uri.Sip.Uri.host (Option.value uri.Sip.Uri.port ~default:5060))
        | Error _ -> None)
      (Sip.Header.get_all msg.Sip.Msg.headers "Record-Route")
  in
  if reversed then List.rev addrs else addrs

let contact_addr_of msg =
  match Sip.Msg.contact msg with
  | Ok na ->
      let uri = na.Sip.Name_addr.uri in
      Some (Dsim.Addr.v uri.Sip.Uri.host (Option.value uri.Sip.Uri.port ~default:5060))
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Media                                                               *)
(* ------------------------------------------------------------------ *)

let stop_media call =
  cancel_timer call.rtp_timer;
  call.rtp_timer <- None

let rec media_tick t call =
  match (call.sender, call.remote_media) with
  | Some sender, Some remote when call.state = Active ->
      if call.talking then begin
        let packet = Rtp.Session.Sender.next_packet sender in
        Transport.send_raw t.transport ~src:call.local_media ~dst:remote
          (Rtp.Rtp_packet.encode packet)
      end;
      call.rtp_timer <-
        Some
          (Dsim.Scheduler.schedule_after (sched t)
             (Rtp.Codec.packet_interval t.codec)
             (fun () -> media_tick t call))
  | _ -> ()

(* Speech activity detection: alternate exponentially-distributed
   talkspurts and silences (the paper's G.729 settings enable SAD).  During
   silence no packets are emitted; on resumption the sender's timestamp has
   advanced and its next packet carries the marker bit. *)
let rec vad_cycle t call =
  if call.state = Active then begin
    call.talking <- true;
    let talk = Time.of_sec (Float.max 0.3 (Dsim.Rng.exponential t.rng 1.5)) in
    ignore
      (Dsim.Scheduler.schedule_after (sched t) talk (fun () ->
           if call.state = Active then begin
             call.talking <- false;
             let silence = Time.of_sec (Float.max 0.2 (Dsim.Rng.exponential t.rng 1.0)) in
             ignore
               (Dsim.Scheduler.schedule_after (sched t) silence (fun () ->
                    (match call.sender with
                    | Some sender -> Rtp.Session.Sender.skip_silence sender silence
                    | None -> ());
                    vad_cycle t call))
           end))
  end

(* RFC 3550 §6: periodic sender reports on the RTCP port (media port + 1).
   Fixed 5 s interval — enough to put realistic RTCP on the wire for the
   classifier without modeling the full interval algorithm. *)
let rec rtcp_tick t call =
  if call.state = Active then begin
    (match (call.sender, call.remote_media) with
    | Some sender, Some remote ->
        let report =
          Rtp.Rtcp.Sender_report
            {
              ssrc = Rtp.Session.Sender.ssrc sender;
              ntp_sec = Int32.of_int (Dsim.Time.to_sec (now t) |> int_of_float);
              rtp_ts = Rtp.Session.Sender.current_timestamp sender;
              packet_count = Int32.of_int (Rtp.Session.Sender.packets_sent sender);
              octet_count =
                Int32.of_int
                  (Rtp.Session.Sender.packets_sent sender * Rtp.Codec.payload_size t.codec);
              blocks = [];
            }
        in
        Transport.send_raw t.transport
          ~src:(Dsim.Addr.v (Dsim.Addr.host call.local_media) (Dsim.Addr.port call.local_media + 1))
          ~dst:(Dsim.Addr.v (Dsim.Addr.host remote) (Dsim.Addr.port remote + 1))
          (Rtp.Rtcp.encode report)
    | _ -> ());
    ignore
      (Dsim.Scheduler.schedule_after (sched t) (Time.of_sec 5.0) (fun () -> rtcp_tick t call))
  end

let start_media t call =
  if call.sender = None then begin
    let ssrc = Dsim.Rng.bits64 t.rng |> Int64.to_int32 in
    let initial_seq = Dsim.Rng.int t.rng 0x10000 in
    let initial_ts = Dsim.Rng.bits64 t.rng |> Int64.to_int32 in
    call.sender <-
      Some (Rtp.Session.Sender.create ~ssrc ~codec:t.codec ~initial_seq ~initial_ts);
    call.receiver <- Some (Rtp.Session.Receiver.create ~clock_rate:t.codec.Rtp.Codec.clock_rate);
    (* A WAN-profile de-jitter depth (fixed buffers are provisioned well
       above the nominal path delay). *)
    call.playout <- Some (Rtp.Playout.create ~target_delay:(Time.of_ms 100.0));
    if t.vad then vad_cycle t call;
    media_tick t call;
    rtcp_tick t call
  end

let handle_media t call (packet : Dsim.Packet.t) =
  match Rtp.Rtp_packet.decode packet.payload with
  | Error _ -> ()
  | Ok decoded ->
      let arrival = now t in
      (match call.receiver with
      | Some receiver -> Rtp.Session.Receiver.observe receiver ~arrival decoded
      | None -> ());
      (match call.playout with
      | Some playout ->
          ignore (Rtp.Playout.offer playout ~capture:packet.Dsim.Packet.sent_at ~arrival)
      | None -> ());
      let delay = Time.sub arrival packet.sent_at in
      Metrics.record_rtp_delay t.metrics ~at:arrival ~delay;
      (match call.last_rtp_delay with
      | Some previous ->
          let variation = Float.abs (Time.to_sec delay -. Time.to_sec previous) in
          Metrics.record_delay_variation t.metrics ~at:arrival ~variation
      | None -> ());
      call.last_rtp_delay <- Some delay

(* ------------------------------------------------------------------ *)
(* Call lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let finish_call t call =
  if call.state <> Ended then begin
    call.state <- Ended;
    stop_media call;
    cancel_timer call.hangup_timer;
    cancel_timer call.answer_timer;
    (match call.receiver with
    | Some receiver when Rtp.Session.Receiver.packets_received receiver > 1 ->
        Metrics.record_jitter t.metrics (Rtp.Jitter.jitter_seconds (Rtp.Session.Receiver.jitter receiver))
    | Some _ | None -> ());
    (match call.playout with
    | Some playout when Rtp.Playout.received playout > 0 ->
        Metrics.record_playout_late t.metrics (Rtp.Playout.late_fraction playout)
    | Some _ | None -> ());
    (* Fraudulent endpoints keep the media flowing after teardown. *)
    if t.fraudulent && call.sender <> None && call.remote_media <> None then begin
      call.rtp_timer <- None;
      let rec fraud_tick remaining =
        if remaining > 0 then begin
          (match (call.sender, call.remote_media) with
          | Some sender, Some remote ->
              Transport.send_raw t.transport ~src:call.local_media ~dst:remote
                (Rtp.Rtp_packet.encode (Rtp.Session.Sender.next_packet sender))
          | _ -> ());
          ignore
            (Dsim.Scheduler.schedule_after (sched t)
               (Rtp.Codec.packet_interval t.codec)
               (fun () -> fraud_tick (remaining - 1)))
        end
      in
      fraud_tick 500
    end;
    (* Reap the record after a linger so late packets still find it. *)
    ignore
      (Dsim.Scheduler.schedule_after (sched t) (Time.of_sec 40.0) (fun () ->
           Hashtbl.remove t.media_ports (Dsim.Addr.port call.local_media);
           Hashtbl.remove t.calls call.call_id))
  end

let new_cseq call meth =
  call.local_cseq <- call.local_cseq + 1;
  Sip.Cseq.make call.local_cseq meth

let in_dialog_request ?body ?content_type t call meth =
  let remote_uri =
    match call.remote_uri with
    | Some uri -> uri
    | None -> Sip.Uri.make "unknown.invalid"
  in
  let to_params =
    match call.remote_tag with None -> [] | Some tag -> [ ("tag", Some tag) ]
  in
  let routes =
    List.map
      (fun addr ->
        ("Route", Printf.sprintf "<sip:%s:%d;lr>" (Dsim.Addr.host addr) (Dsim.Addr.port addr)))
      call.route_set
  in
  Sip.Msg.request ~meth ~uri:remote_uri
    ~via:
      (Sip.Via.make ~port:(Dsim.Addr.port t.local) ~branch:(Sip.Ident.branch t.ident)
         (Dsim.Addr.host t.local))
    ~from_:(local_na t call)
    ~to_:(Sip.Name_addr.make ~params:to_params remote_uri)
    ~call_id:call.call_id ~cseq:(new_cseq call meth) ~contact:(contact_na t) ~headers:routes
    ?body ?content_type ()

(* Next hop for in-dialog messages: the first route when the proxies
   record-routed the dialog, else the peer's contact. *)
let in_dialog_next_hop call =
  match call.route_set with addr :: _ -> Some addr | [] -> call.peer_contact

let send_bye t call =
  match in_dialog_next_hop call with
  | None -> finish_call t call
  | Some peer ->
      let bye = in_dialog_request t call Sip.Msg_method.BYE in
      stop_media call;
      ignore
        (Txn_manager.request (txn_mgr t) bye ~dst:peer
           ~on_response:(fun response ->
             match Sip.Msg.status_of response with
             | Some code when Sip.Status.is_final code ->
                 Metrics.incr_completed t.metrics;
                 finish_call t call
             | Some _ | None -> ())
           ~on_timeout:(fun () -> finish_call t call))

let hangup_all t =
  Hashtbl.iter (fun _ call -> if call.state = Active then send_bye t call) t.calls

(* --- Caller side --- *)

let send_ack_for_2xx t call response =
  let remote_target =
    match contact_addr_of response with Some a -> Some a | None -> call.peer_contact
  in
  call.peer_contact <- remote_target;
  (* RFC 3261 §12.1.2: the caller's route set is the Record-Route list in
     reverse order. *)
  if call.route_set = [] then call.route_set <- route_set_of response ~reversed:true;
  (match Sip.Msg.contact response with
  | Ok na -> call.remote_uri <- Some na.Sip.Name_addr.uri
  | Error _ -> ());
  match in_dialog_next_hop call with
  | None -> ()
  | Some peer ->
      let to_value =
        match Sip.Header.get response.Sip.Msg.headers "To" with Some v -> v | None -> ""
      in
      let uri =
        match call.remote_uri with Some u -> u | None -> Sip.Uri.make "unknown.invalid"
      in
      let routes =
        List.map
          (fun addr ->
            ( "Route",
              Printf.sprintf "<sip:%s:%d;lr>" (Dsim.Addr.host addr) (Dsim.Addr.port addr) ))
          call.route_set
      in
      let ack =
        Sip.Msg.request ~meth:Sip.Msg_method.ACK ~uri
          ~via:
            (Sip.Via.make ~port:(Dsim.Addr.port t.local) ~branch:(Sip.Ident.branch t.ident)
               (Dsim.Addr.host t.local))
          ~from_:(local_na t call)
          ~to_:
            (match Sip.Name_addr.parse to_value with
            | Ok na -> na
            | Error _ -> Sip.Name_addr.make uri)
          ~call_id:call.call_id
          ~cseq:(Sip.Cseq.make call.local_cseq Sip.Msg_method.ACK)
          ~headers:routes ()
      in
      call.last_ack <- Some ack;
      Transport.send_msg t.transport ack peer

(* Mid-call media renegotiation: move our receive endpoint to a fresh port
   via an in-dialog INVITE (paper §2.1).  The sender keeps its SSRC and
   sequence space; only the advertised endpoint changes. *)
let reinvite_media t call =
  match in_dialog_next_hop call with
  | None -> ()
  | Some peer when call.state = Active ->
      let new_port = alloc_media_port t call.call_id in
      let new_media = Dsim.Addr.v (Dsim.Addr.host t.local) new_port in
      let invite =
        in_dialog_request t call Sip.Msg_method.INVITE
          ~body:(sdp_body_for t new_media) ~content_type:"application/sdp"
      in
      ignore
        (Txn_manager.request (txn_mgr t) invite ~dst:peer
           ~on_response:(fun response ->
             match Sip.Msg.status_of response with
             | Some code when Sip.Status.is_success code ->
                 Hashtbl.remove t.media_ports (Dsim.Addr.port call.local_media);
                 call.local_media <- new_media;
                 (match parse_remote_media response.Sip.Msg.body with
                 | Some media -> call.remote_media <- Some media
                 | None -> ());
                 send_ack_for_2xx t call response
             | Some _ | None -> ())
           ~on_timeout:(fun () -> ()))
  | Some _ -> ()

let reinvite_all t =
  Hashtbl.iter (fun _ call -> if call.state = Active then reinvite_media t call) t.calls

let on_invite_response t call ~duration response =
  match Sip.Msg.status_of response with
  | None -> ()
  | Some code ->
      if code >= 180 && code <= 199 && not call.setup_recorded then begin
        call.setup_recorded <- true;
        Metrics.record_setup t.metrics ~caller:t.name ~at:(now t)
          ~delay:(Time.sub (now t) call.invite_sent_at)
      end;
      if Sip.Status.is_success code then begin
        if not call.setup_recorded then begin
          call.setup_recorded <- true;
          Metrics.record_setup t.metrics ~caller:t.name ~at:(now t)
            ~delay:(Time.sub (now t) call.invite_sent_at)
        end;
        if call.state = Setup then begin
          (match Sip.Msg.to_ response with
          | Ok to_ -> call.remote_tag <- Sip.Name_addr.tag to_
          | Error _ -> ());
          call.to_tag <- call.remote_tag;
          (match parse_remote_media response.Sip.Msg.body with
          | Some media -> call.remote_media <- Some media
          | None -> ());
          send_ack_for_2xx t call response;
          call.state <- Active;
          Metrics.incr_established t.metrics;
          start_media t call;
          call.hangup_timer <-
            Some
              (Dsim.Scheduler.schedule_after (sched t) duration (fun () ->
                   if call.state = Active then send_bye t call))
        end
      end
      else if code >= 300 then begin
        Metrics.incr_failed t.metrics;
        finish_call t call
      end

let call t ~callee ~duration =
  if live_calls t >= t.max_concurrent then Metrics.incr_failed t.metrics
  else begin
    let call_id = Sip.Ident.call_id t.ident ~host:(Dsim.Addr.host t.local) in
    let local_tag = Sip.Ident.tag t.ident in
    let media_port = alloc_media_port t call_id in
    let record =
      {
        call_id;
        role = `Caller;
        local_media = Dsim.Addr.v (Dsim.Addr.host t.local) media_port;
        state = Setup;
        remote_media = None;
        peer_contact = None;
        from_tag = Some local_tag;
        to_tag = None;
        local_tag;
        remote_tag = None;
        local_cseq = 1;
        sender = None;
        receiver = None;
        playout = None;
        rtp_timer = None;
        hangup_timer = None;
        answer_timer = None;
        invite_sent_at = now t;
        setup_recorded = false;
        last_rtp_delay = None;
        invite_server_txn = None;
        original_invite = None;
        last_ack = None;
        remote_uri = Some callee;
        talking = true;
        route_set = [];
      }
    in
    Hashtbl.replace t.calls call_id record;
    Metrics.incr_attempted t.metrics;
    let invite =
      Sip.Msg.request ~meth:Sip.Msg_method.INVITE ~uri:callee
        ~via:
          (Sip.Via.make ~port:(Dsim.Addr.port t.local) ~branch:(Sip.Ident.branch t.ident)
             (Dsim.Addr.host t.local))
        ~from_:(local_na t record)
        ~to_:(Sip.Name_addr.make callee)
        ~call_id
        ~cseq:(Sip.Cseq.make 1 Sip.Msg_method.INVITE)
        ~contact:(contact_na t) ~content_type:"application/sdp" ~body:(sdp_body t record) ()
    in
    record.invite_sent_at <- now t;
    ignore
      (Txn_manager.request (txn_mgr t) invite ~dst:t.proxy
         ~on_response:(fun response -> on_invite_response t record ~duration response)
         ~on_timeout:(fun () ->
           Metrics.incr_failed t.metrics;
           finish_call t record))
  end

(* --- Callee side --- *)

let answer t call txn invite =
  if call.state = Setup then begin
    let body = sdp_body t call in
    let response =
      Sip.Msg.response_to invite ~code:200 ~to_tag:call.local_tag
        ~headers:[ ("Contact", Sip.Name_addr.to_string (contact_na t)) ]
        ~content_type:"application/sdp" ~body ()
    in
    Sip.Transaction.Server.respond txn response
  end

let on_invite t invite ~src:_ txn =
  if live_calls t >= t.max_concurrent then
    Sip.Transaction.Server.respond txn (Sip.Msg.response_to invite ~code:486 ~to_tag:"busy" ())
  else
    match Sip.Msg.call_id invite with
    | Error _ ->
        Sip.Transaction.Server.respond txn (Sip.Msg.response_to invite ~code:400 ())
    | Ok call_id when Hashtbl.mem t.calls call_id ->
        (* Retransmission already absorbed by the transaction layer; a
           re-INVITE for an active call renegotiates media (paper §2.1: the
           media path only changes through a re-invite). *)
        let call = Hashtbl.find t.calls call_id in
        (match parse_remote_media invite.Sip.Msg.body with
        | Some media -> call.remote_media <- Some media
        | None -> ());
        if call.state = Active then
          Sip.Transaction.Server.respond txn
            (Sip.Msg.response_to invite ~code:200 ~to_tag:call.local_tag
               ~headers:[ ("Contact", Sip.Name_addr.to_string (contact_na t)) ]
               ~content_type:"application/sdp" ~body:(sdp_body t call) ())
        else answer t call txn invite
    | Ok call_id ->
        let local_tag = Sip.Ident.tag t.ident in
        let media_port = alloc_media_port t call_id in
        let record =
          {
            call_id;
            role = `Callee;
            local_media = Dsim.Addr.v (Dsim.Addr.host t.local) media_port;
            state = Setup;
            remote_media = parse_remote_media invite.Sip.Msg.body;
            peer_contact = contact_addr_of invite;
            from_tag =
              (match Sip.Msg.from_ invite with
              | Ok na -> Sip.Name_addr.tag na
              | Error _ -> None);
            to_tag = Some local_tag;
            local_tag;
            remote_tag =
              (match Sip.Msg.from_ invite with
              | Ok na -> Sip.Name_addr.tag na
              | Error _ -> None);
            local_cseq = 0;
            sender = None;
            receiver = None;
            playout = None;
            rtp_timer = None;
            hangup_timer = None;
            answer_timer = None;
            invite_sent_at = now t;
            setup_recorded = true;
            last_rtp_delay = None;
            invite_server_txn = Some txn;
            original_invite = Some invite;
            last_ack = None;
            remote_uri =
              (match Sip.Msg.contact invite with
              | Ok na -> Some na.Sip.Name_addr.uri
              | Error _ -> None);
            talking = true;
            route_set = route_set_of invite ~reversed:false;
          }
        in
        Hashtbl.replace t.calls call_id record;
        Sip.Transaction.Server.respond txn
          (Sip.Msg.response_to invite ~code:180 ~to_tag:local_tag ());
        let delay = Time.of_sec (Dsim.Rng.uniform t.rng 0.5 2.5) in
        record.answer_timer <-
          Some
            (Dsim.Scheduler.schedule_after (sched t) delay (fun () ->
                 answer t record txn invite))

let on_bye t bye ~src:_ txn =
  Sip.Transaction.Server.respond txn (Sip.Msg.response_to bye ~code:200 ());
  match Sip.Msg.call_id bye with
  | Error _ -> ()
  | Ok call_id -> (
      match Hashtbl.find_opt t.calls call_id with
      | None -> ()
      | Some call ->
          stop_media call;
          finish_call t call)

let on_request t msg ~src txn =
  match Sip.Msg.method_of msg with
  | Some Sip.Msg_method.INVITE -> on_invite t msg ~src txn
  | Some Sip.Msg_method.BYE -> on_bye t msg ~src txn
  | Some Sip.Msg_method.OPTIONS ->
      Sip.Transaction.Server.respond txn (Sip.Msg.response_to msg ~code:200 ())
  | Some _ | None ->
      Sip.Transaction.Server.respond txn (Sip.Msg.response_to msg ~code:501 ())

let on_ack t ack ~src:_ =
  match Sip.Msg.call_id ack with
  | Error _ -> ()
  | Ok call_id -> (
      match Hashtbl.find_opt t.calls call_id with
      | None -> ()
      | Some call ->
          if call.role = `Callee && call.state = Setup then begin
            call.state <- Active;
            start_media t call
          end)

let on_cancel t cancel ~src:_ invite_txn =
  (match invite_txn with
  | Some txn ->
      let invite = Sip.Transaction.Server.request txn in
      Sip.Transaction.Server.respond txn (Sip.Msg.response_to invite ~code:487 ())
  | None -> ());
  match Sip.Msg.call_id cancel with
  | Error _ -> ()
  | Ok call_id -> (
      match Hashtbl.find_opt t.calls call_id with
      | None -> ()
      | Some call -> finish_call t call)

let on_stray_response t response ~src:_ =
  (* A retransmitted 2xx whose client transaction already ended: re-ACK. *)
  match (Sip.Msg.status_of response, Sip.Msg.call_id response) with
  | Some code, Ok call_id when Sip.Status.is_success code -> (
      match Hashtbl.find_opt t.calls call_id with
      | Some ({ last_ack = Some ack; _ } as call) -> (
          match in_dialog_next_hop call with
          | Some peer -> Transport.send_msg t.transport ack peer
          | None -> ())
      | Some _ | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let handle_packet t (packet : Dsim.Packet.t) =
  let dst_port = Dsim.Addr.port packet.dst in
  if dst_port = Dsim.Addr.port t.local then Txn_manager.handle_packet (txn_mgr t) packet
  else
    match Hashtbl.find_opt t.media_ports dst_port with
    | Some call_id -> (
        match Hashtbl.find_opt t.calls call_id with
        | Some call -> handle_media t call packet
        | None -> ())
    | None -> ()

let register t =
  let local_tag = Sip.Ident.tag t.ident in
  let call_id = Sip.Ident.call_id t.ident ~host:(Dsim.Addr.host t.local) in
  let build ~cseq ~extra_headers =
    Sip.Msg.request ~meth:Sip.Msg_method.REGISTER
      ~uri:(Sip.Uri.make t.domain)
      ~via:
        (Sip.Via.make ~port:(Dsim.Addr.port t.local) ~branch:(Sip.Ident.branch t.ident)
           (Dsim.Addr.host t.local))
      ~from_:(Sip.Name_addr.make ~params:[ ("tag", Some local_tag) ] (aor t))
      ~to_:(Sip.Name_addr.make (aor t))
      ~call_id
      ~cseq:(Sip.Cseq.make cseq Sip.Msg_method.REGISTER)
      ~contact:(contact_na t)
      ~headers:(("Expires", "3600") :: extra_headers)
      ()
  in
  (* One 401-challenge round (RFC 3261 §22.2): answer the digest challenge
     with our credentials, then give up rather than loop. *)
  let rec send ~cseq ~extra_headers ~may_retry =
    ignore
      (Txn_manager.request (txn_mgr t)
         (build ~cseq ~extra_headers)
         ~dst:t.proxy
         ~on_response:(fun response ->
           match Sip.Msg.status_of response with
           | Some 401 when may_retry -> (
               match Sip.Header.get response.Sip.Msg.headers "WWW-Authenticate" with
               | Some challenge_value -> (
                   match Sip.Auth.parse_challenge challenge_value with
                   | Ok challenge ->
                       let authorization =
                         Sip.Auth.authorization_header ~username:t.name ~password:t.password
                           ~challenge ~meth:Sip.Msg_method.REGISTER
                           ~uri:(Sip.Uri.make t.domain)
                       in
                       send ~cseq:(cseq + 1)
                         ~extra_headers:[ ("Authorization", authorization) ]
                         ~may_retry:false
                   | Error _ -> ())
               | None -> ())
           | Some _ | None -> ())
         ~on_timeout:(fun () -> ()))
  in
  send ~cseq:1 ~extra_headers:[] ~may_retry:true

type call_info = {
  call_id : string;
  role : [ `Caller | `Callee ];
  state : [ `Setup | `Active | `Ended ];
  local_media : Dsim.Addr.t;
  remote_media : Dsim.Addr.t option;
  ssrc : int32 option;
  next_seq : int option;
  next_ts : int32 option;
  peer_contact : Dsim.Addr.t option;
  from_tag : string option;
  to_tag : string option;
}

let active_calls t =
  Hashtbl.fold
    (fun _ (c : call) acc ->
      let state = match c.state with Setup -> `Setup | Active -> `Active | Ended -> `Ended in
      {
        call_id = c.call_id;
        role = c.role;
        state;
        local_media = c.local_media;
        remote_media = c.remote_media;
        ssrc = Option.map Rtp.Session.Sender.ssrc c.sender;
        next_seq = Option.map Rtp.Session.Sender.current_sequence c.sender;
        next_ts = Option.map Rtp.Session.Sender.current_timestamp c.sender;
        peer_contact = c.peer_contact;
        from_tag = c.from_tag;
        to_tag = c.to_tag;
      }
      :: acc)
    t.calls []

let create net node ~name ~host ~domain ~proxy ~rng ~metrics ?(codec = Rtp.Codec.g729)
    ?(max_concurrent = 2) ?(vad = false) ?password () =
  let local = Dsim.Addr.v host 5060 in
  let transport = Transport.create net node ~local in
  let t =
    {
      name;
      domain;
      local;
      proxy;
      transport;
      txn_mgr = None;
      ident = Sip.Ident.create (Dsim.Rng.split rng);
      rng = Dsim.Rng.split rng;
      codec;
      metrics;
      calls = Hashtbl.create 8;
      media_ports = Hashtbl.create 8;
      next_media_port = 16384;
      max_concurrent;
      vad;
      password = (match password with Some p -> p | None -> "pw-" ^ name);
      fraudulent = false;
    }
  in
  let callbacks =
    {
      Txn_manager.on_request = (fun msg ~src txn -> on_request t msg ~src txn);
      on_cancel = (fun msg ~src txn -> on_cancel t msg ~src txn);
      on_ack = (fun msg ~src -> on_ack t msg ~src);
      on_stray_response = (fun msg ~src -> on_stray_response t msg ~src);
    }
  in
  t.txn_mgr <- Some (Txn_manager.create transport callbacks);
  Dsim.Network.set_handler node (fun packet -> handle_packet t packet);
  t
