module Time = Dsim.Time

type t = {
  tb : Voip.Testbed.t;
  transport : Voip.Transport.t;
  ident : Sip.Ident.t;
  rng : Dsim.Rng.t;
  host : string;
}

let create tb ~host =
  let _node, transport = Voip.Testbed.attacker tb ~host in
  {
    tb;
    transport;
    ident = Sip.Ident.create (Dsim.Rng.create (Hashtbl.hash host));
    rng = Dsim.Rng.create (Hashtbl.hash (host, "rng"));
    host;
  }

let sched t = t.tb.Voip.Testbed.sched
let at_time t when_ f = ignore (Dsim.Scheduler.schedule_at (sched t) when_ f)
let after t delay f = ignore (Dsim.Scheduler.schedule_after (sched t) delay f)

let send_sip t msg dst = Voip.Transport.send_msg t.transport msg dst

let send_spoofed t ~src ~dst payload = Voip.Transport.send_raw t.transport ~src ~dst payload

(* ------------------------------------------------------------------ *)
(* INVITE flooding                                                     *)
(* ------------------------------------------------------------------ *)

let invite_flood t ~target ~via_proxy ~count ~interval ~at =
  let dst =
    if via_proxy then t.tb.Voip.Testbed.proxy_b_addr
    else Dsim.Addr.v target.Sip.Uri.host 5060
  in
  at_time t at (fun () ->
      let rec burst i =
        if i < count then begin
          let msg =
            Forge.invite
              ~call_id:(Sip.Ident.call_id t.ident ~host:t.host)
              ~target_uri:target
              ~from_uri:(Sip.Uri.make ~user:"flooder" t.host)
              ~from_tag:(Sip.Ident.tag t.ident) ~via_host:t.host
              ~branch:(Sip.Ident.branch t.ident) ~cseq:1 ()
          in
          send_sip t msg dst;
          after t interval (fun () -> burst (i + 1))
        end
      in
      burst 0)

(* ------------------------------------------------------------------ *)
(* Helpers for call-centric scenarios                                  *)
(* ------------------------------------------------------------------ *)

(* Find the callee-side record of the (single) call between the pair. *)
let callee_call_info callee =
  Voip.Ua.active_calls callee
  |> List.find_opt (fun info ->
         info.Voip.Ua.role = `Callee && info.Voip.Ua.state = `Active)

let caller_call_info caller =
  Voip.Ua.active_calls caller
  |> List.find_opt (fun info ->
         info.Voip.Ua.role = `Caller && info.Voip.Ua.state = `Active)

let start_call t ~caller ~callee ~duration ~at =
  at_time t at (fun () -> Voip.Ua.call caller ~callee:(Voip.Ua.aor callee) ~duration)

(* Answer delay is at most 2.5 s; by [at + settle] the call is active. *)
let settle = Time.of_sec 4.0

(* ------------------------------------------------------------------ *)
(* BYE DoS                                                             *)
(* ------------------------------------------------------------------ *)

let spoofed_bye_call t ~caller ~callee ~at =
  start_call t ~caller ~callee ~duration:(Time.of_sec 60.0) ~at;
  at_time t (Time.add at settle) (fun () ->
      match callee_call_info callee with
      | None -> ()
      | Some info ->
          let bye =
            Forge.spoofed_bye ~call_id:info.Voip.Ua.call_id
              ~from_uri:(Voip.Ua.aor caller)
              ~from_tag:(Option.value info.Voip.Ua.from_tag ~default:"?")
              ~to_uri:(Voip.Ua.aor callee)
              ~to_tag:(Option.value info.Voip.Ua.to_tag ~default:"?")
              ~via_host:t.host
              ~branch:(Sip.Ident.branch t.ident) ~cseq:40 ()
          in
          send_sip t bye (Voip.Ua.addr callee))

(* ------------------------------------------------------------------ *)
(* CANCEL DoS                                                          *)
(* ------------------------------------------------------------------ *)

let cancel_dos_call t ~caller ~callee ~at =
  start_call t ~caller ~callee ~duration:(Time.of_sec 60.0) ~at;
  (* Strike while the call is still ringing (answer takes >= 0.5 s). *)
  at_time t (Time.add at (Time.of_ms 400.0)) (fun () ->
      let setup =
        Voip.Ua.active_calls caller
        |> List.find_opt (fun info ->
               info.Voip.Ua.role = `Caller && info.Voip.Ua.state = `Setup)
      in
      match setup with
      | None -> ()
      | Some info ->
          let cancel =
            Forge.spoofed_cancel ~call_id:info.Voip.Ua.call_id
              ~target_uri:(Voip.Ua.aor callee)
              ~from_uri:(Voip.Ua.aor caller)
              ~from_tag:(Option.value info.Voip.Ua.from_tag ~default:"?")
              ~via_host:t.host
              ~branch:(Sip.Ident.branch t.ident) ~cseq:1 ()
          in
          send_sip t cancel (Voip.Ua.addr callee))

(* ------------------------------------------------------------------ *)
(* Call hijacking                                                      *)
(* ------------------------------------------------------------------ *)

let hijack_call t ~caller ~callee ~at =
  start_call t ~caller ~callee ~duration:(Time.of_sec 60.0) ~at;
  at_time t (Time.add at settle) (fun () ->
      match callee_call_info callee with
      | None -> ()
      | Some info ->
          let reinvite =
            Forge.invite ~call_id:info.Voip.Ua.call_id
              ~target_uri:(Voip.Ua.aor callee)
              ~from_uri:(Sip.Uri.make ~user:"mallory" t.host)
              ~from_tag:(Sip.Ident.tag t.ident)
              ~to_tag:(Option.value info.Voip.Ua.to_tag ~default:"?")
              ~via_host:t.host
              ~branch:(Sip.Ident.branch t.ident) ~cseq:60
              ~sdp:
                (Sdp.to_string
                   (Sdp.make ~origin_user:"mallory" ~origin_host:t.host ~connection:t.host
                      ~media:[ Sdp.audio_media ~port:20000 ~formats:[ 18 ] ]
                      ()))
              ()
          in
          send_sip t reinvite (Voip.Ua.addr callee))

(* ------------------------------------------------------------------ *)
(* DRDoS reflection                                                    *)
(* ------------------------------------------------------------------ *)

let drdos t ~victim_host ~reflectors ~responses ~at =
  let victim = Dsim.Addr.v victim_host 5060 in
  at_time t at (fun () ->
      let rec send i =
        if i < responses then begin
          let reflector = Printf.sprintf "203.0.113.%d" (1 + (i mod reflectors)) in
          let msg =
            Forge.fake_response ~code:200
              ~call_id:(Sip.Ident.call_id t.ident ~host:reflector)
              ~to_host:victim_host
              ~branch:(Sip.Ident.branch t.ident) ()
          in
          send_spoofed t ~src:(Dsim.Addr.v reflector 5060) ~dst:victim
            (Sip.Msg.serialize msg);
          after t (Time.of_ms 20.0) (fun () -> send (i + 1))
        end
      in
      send 0)

(* ------------------------------------------------------------------ *)
(* Media spamming                                                      *)
(* ------------------------------------------------------------------ *)

let media_spam_call t ~caller ~callee ~at =
  start_call t ~caller ~callee ~duration:(Time.of_sec 60.0) ~at;
  at_time t (Time.add at settle) (fun () ->
      match caller_call_info caller with
      | None -> ()
      | Some info -> (
          match (info.Voip.Ua.ssrc, info.Voip.Ua.next_seq, info.Voip.Ua.next_ts,
                 info.Voip.Ua.remote_media)
          with
          | Some ssrc, Some seq, Some ts, Some target ->
              (* Same SSRC, jumped sequence/timestamp: the paper's spam
                 signature ("same SSRC identifier with higher sequence
                 number or timestamp"). *)
              let rec inject i =
                if i < 25 then begin
                  let payload =
                    Forge.rtp_with ~ssrc
                      ~seq:((seq + 2000 + i) land 0xFFFF)
                      ~ts:(Int32.add ts (Int32.of_int (800000 + (160 * i))))
                      ~payload_len:20 ()
                  in
                  send_spoofed t ~src:(Dsim.Addr.v t.host 17000) ~dst:target payload;
                  after t (Time.of_ms 20.0) (fun () -> inject (i + 1))
                end
              in
              inject 0
          | _ -> ()))

(* ------------------------------------------------------------------ *)
(* RTP flooding                                                        *)
(* ------------------------------------------------------------------ *)

let rtp_flood t ~target ~rate_pps ~duration ~at =
  let interval = Time.of_sec (1.0 /. float_of_int rate_pps) in
  let total = rate_pps * int_of_float (Float.max 1.0 (Time.to_sec duration)) in
  let ssrc = Int64.to_int32 (Dsim.Rng.bits64 t.rng) in
  at_time t at (fun () ->
      let rec blast i =
        if i < total then begin
          let payload =
            Forge.rtp_with ~ssrc ~seq:(i land 0xFFFF)
              ~ts:(Int32.of_int (160 * i))
              ~payload_len:160 ()
          in
          send_spoofed t ~src:(Dsim.Addr.v t.host 18000) ~dst:target payload;
          after t interval (fun () -> blast (i + 1))
        end
      in
      blast 0)

(* ------------------------------------------------------------------ *)
(* Registration hijacking                                              *)
(* ------------------------------------------------------------------ *)

let register_hijack t ~victim ~at =
  let victim_uri = Voip.Ua.aor victim in
  at_time t at (fun () ->
      let register =
        Sip.Msg.request ~meth:Sip.Msg_method.REGISTER
          ~uri:(Sip.Uri.make victim_uri.Sip.Uri.host)
          ~via:
            (Sip.Via.make ~port:5060 ~branch:(Sip.Ident.branch t.ident) t.host)
          ~from_:(Sip.Name_addr.make ~params:[ ("tag", Some (Sip.Ident.tag t.ident)) ] victim_uri)
          ~to_:(Sip.Name_addr.make victim_uri)
          ~call_id:(Sip.Ident.call_id t.ident ~host:t.host)
          ~cseq:(Sip.Cseq.make 1 Sip.Msg_method.REGISTER)
          ~contact:(Sip.Name_addr.make (Sip.Uri.make ~user:"mallory" ~port:5060 t.host))
          ~headers:[ ("Expires", "3600") ]
          ()
      in
      send_sip t register t.tb.Voip.Testbed.proxy_b_addr)

(* ------------------------------------------------------------------ *)
(* Billing fraud                                                       *)
(* ------------------------------------------------------------------ *)

let billing_fraud_call t ~caller ~callee ~at =
  at_time t at (fun () ->
      Voip.Ua.set_fraudulent caller true;
      Voip.Ua.call caller ~callee:(Voip.Ua.aor callee) ~duration:(Time.of_sec 8.0))

(* ------------------------------------------------------------------ *)
(* The named scenario list                                             *)
(* ------------------------------------------------------------------ *)

let names =
  [ "bye-dos"; "cancel-dos"; "hijack"; "media-spam"; "billing-fraud"; "invite-flood";
    "rtp-flood"; "drdos" ]

let launch t ~at ~pair name =
  let tb = t.tb in
  let caller = List.nth tb.Voip.Testbed.uas_a pair
  and callee = List.nth tb.Voip.Testbed.uas_b pair in
  let victim_host = Voip.Testbed.ua_b_host tb pair in
  match name with
  | "bye-dos" -> spoofed_bye_call t ~caller ~callee ~at; true
  | "cancel-dos" -> cancel_dos_call t ~caller ~callee ~at; true
  | "hijack" -> hijack_call t ~caller ~callee ~at; true
  | "media-spam" -> media_spam_call t ~caller ~callee ~at; true
  | "billing-fraud" -> billing_fraud_call t ~caller ~callee ~at; true
  | "invite-flood" ->
      invite_flood t ~target:(Voip.Ua.aor callee) ~via_proxy:true ~count:25
        ~interval:(Time.of_ms 40.0) ~at;
      true
  | "rtp-flood" ->
      rtp_flood t ~target:(Dsim.Addr.v victim_host 16500) ~rate_pps:400
        ~duration:(Time.of_sec 2.0) ~at;
      true
  | "drdos" -> drdos t ~victim_host ~reflectors:20 ~responses:60 ~at; true
  | _ -> false

let schedule t ~on_unknown names =
  List.iteri
    (fun i name ->
      let at = Time.of_sec (5.0 +. (25.0 *. float_of_int i)) in
      if not (launch t ~at ~pair:(i mod 8) name) then on_unknown name)
    names
