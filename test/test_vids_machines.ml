(* Direct event-injection tests for the paper's protocol and detector
   machines (Figures 2, 4, 5, 6). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

module M = Efsm.Machine
module E = Efsm.Event
module V = Efsm.Value

let config = Vids.Config.default

(* A system on [sched] whose notifications are consed onto [alerts] and
   [anomalies]. *)
let recording_system ?(anomalies = ref []) sched alerts =
  Efsm.System.create
    ~hooks:
      {
        Efsm.System.on_alert = (fun _ n -> alerts := n :: !alerts);
        on_anomaly = (fun _ n -> anomalies := n :: !anomalies);
      }
    ~owner:"test"
    (Efsm.System.timer_host_of_scheduler sched)

(* A call-machine pair wired into one system, with a controllable clock. *)
type rig = {
  sched : Dsim.Scheduler.t;
  sys : Efsm.System.t;
  sip : M.t;
  rtp : M.t;
  alerts : Efsm.System.notification list ref;
  anomalies : Efsm.System.notification list ref;
}

let make_rig () =
  let sched = Dsim.Scheduler.create () in
  let alerts = ref [] and anomalies = ref [] in
  let sys = recording_system ~anomalies sched alerts in
  let sip = Efsm.System.add_machine sys (M.compile (Vids.Spec_load.spec config Vids.Keys.sip_machine)) in
  let rtp = Efsm.System.add_machine sys (M.compile (Vids.Spec_load.spec config Vids.Keys.rtp_machine)) in
  { sched; sys; sip; rtp; alerts; anomalies }

let now rig = Dsim.Scheduler.now rig.sched

let base_args =
  [
    ("call_id", V.Str "cid-1");
    ("from_tag", V.Str "tag-a");
    ("branch", V.Str "z9hG4bK1");
    ("src_ip", V.Str "10.1.0.2");
    ("dst_ip", V.Str "10.2.0.2");
    ("src_port", V.Int 5060);
    ("dst_port", V.Int 5060);
    ("cseq_method", V.Str "INVITE");
    ("cseq_number", V.Int 1);
    ("contact_host", V.Str "10.1.0.10");
  ]

let sip_event rig ?(extra = []) name =
  E.make ~args:(extra @ base_args) (E.Data "SIP") ~at:(now rig) name

let inject_sip rig ?extra name =
  Efsm.System.inject rig.sys ~machine:Vids.Keys.sip_machine (sip_event rig ?extra name)

let invite_with_sdp rig =
  inject_sip rig
    ~extra:
      [
        ("media_host", V.Str "10.1.0.10");
        ("media_port", V.Int 16384);
        ("media_pt", V.Int 18);
      ]
    "INVITE"

let resp rig ?(cseq_method = "INVITE") ?(extra = []) code =
  inject_sip rig
    ~extra:
      (("code", V.Int code)
      :: ("cseq_method", V.Str cseq_method)
      :: ("to_tag", V.Str "tag-b")
      :: ("contact_host", V.Str "10.2.0.10")
      :: extra)
    Vids.Keys.response

let resp_with_media rig code =
  resp rig
    ~extra:
      [
        ("media_host", V.Str "10.2.0.10");
        ("media_port", V.Int 20000);
        ("media_pt", V.Int 18);
      ]
    code

let rtp_event rig ~src ~dst =
  E.make
    ~args:
      [
        ("src_ip", V.Str src);
        ("dst_ip", V.Str dst);
        ("src_port", V.Int 17000);
        ("dst_port", V.Int 20000);
        ("ssrc", V.Int 1234);
        ("seq", V.Int 1);
        ("ts", V.Int 160);
        ("payload_type", V.Int 18);
        ("size", V.Int 20);
      ]
    (E.Data "RTP") ~at:(now rig) Vids.Keys.rtp_packet

let inject_rtp rig ~src ~dst =
  Efsm.System.inject rig.sys ~machine:Vids.Keys.rtp_machine (rtp_event rig ~src ~dst)

(* Walk a call to CONFIRMED: INVITE, 180, 200, ACK. *)
let establish rig =
  invite_with_sdp rig;
  resp rig 180;
  resp_with_media rig 200;
  inject_sip rig ~extra:[ ("cseq_method", V.Str "ACK") ] "ACK"

let bye ?(src = "10.1.0.10") ?(from_tag = "tag-a") rig =
  inject_sip rig
    ~extra:
      [
        ("cseq_method", V.Str "BYE");
        ("src_ip", V.Str src);
        ("from_tag", V.Str from_tag);
      ]
    "BYE"

(* ------------------------------------------------------------------ *)
(* SIP call machine paths                                              *)
(* ------------------------------------------------------------------ *)

let normal_setup_path () =
  let rig = make_rig () in
  invite_with_sdp rig;
  check_str "invite rcvd" "INVITE_RCVD" (M.state rig.sip);
  check_str "rtp open via sync" "RTP_OPEN" (M.state rig.rtp);
  resp rig 180;
  check_str "proceeding" "PROCEEDING" (M.state rig.sip);
  resp_with_media rig 200;
  check_str "established" "ESTABLISHED" (M.state rig.sip);
  inject_sip rig ~extra:[ ("cseq_method", V.Str "ACK") ] "ACK";
  check_str "confirmed" "CONFIRMED" (M.state rig.sip);
  check "no alerts" true (!(rig.alerts) = []);
  check "no anomalies" true (!(rig.anomalies) = [])

let normal_teardown_path () =
  let rig = make_rig () in
  establish rig;
  bye rig;
  check_str "teardown" "TEARDOWN" (M.state rig.sip);
  resp rig ~cseq_method:"BYE" 200;
  check_str "closed" "CLOSED" (M.state rig.sip);
  check "sip final" true (M.is_final rig.sip);
  check "no alerts" true (!(rig.alerts) = [])

let retransmissions_absorbed () =
  let rig = make_rig () in
  invite_with_sdp rig;
  invite_with_sdp rig;
  check_str "still invite rcvd" "INVITE_RCVD" (M.state rig.sip);
  resp rig 180;
  resp rig 180;
  resp rig 100;
  check_str "proceeding" "PROCEEDING" (M.state rig.sip);
  resp_with_media rig 200;
  resp_with_media rig 200;
  inject_sip rig ~extra:[ ("cseq_method", V.Str "ACK") ] "ACK";
  inject_sip rig ~extra:[ ("cseq_method", V.Str "ACK") ] "ACK";
  check_str "confirmed" "CONFIRMED" (M.state rig.sip);
  check "no anomalies from retransmissions" true (!(rig.anomalies) = [])

let direct_200_without_180 () =
  let rig = make_rig () in
  invite_with_sdp rig;
  resp_with_media rig 200;
  check_str "established" "ESTABLISHED" (M.state rig.sip)

let failed_setup_path () =
  let rig = make_rig () in
  invite_with_sdp rig;
  resp rig 180;
  resp rig 486;
  check_str "failed" "FAILED" (M.state rig.sip);
  inject_sip rig ~extra:[ ("cseq_method", V.Str "ACK") ] "ACK";
  check_str "closed" "CLOSED" (M.state rig.sip)

let cancel_legitimate () =
  let rig = make_rig () in
  invite_with_sdp rig;
  resp rig 180;
  (* CANCEL from the same source as the INVITE. *)
  inject_sip rig ~extra:[ ("cseq_method", V.Str "CANCEL") ] "CANCEL";
  check_str "cancelling" "CANCELLING" (M.state rig.sip);
  resp rig ~cseq_method:"CANCEL" 200;
  resp rig 487;
  inject_sip rig ~extra:[ ("cseq_method", V.Str "ACK") ] "ACK";
  check_str "closed" "CLOSED" (M.state rig.sip);
  check "no alerts" true (!(rig.alerts) = [])

let cancel_dos_detected () =
  let rig = make_rig () in
  invite_with_sdp rig;
  resp rig 180;
  inject_sip rig
    ~extra:
      [ ("cseq_method", V.Str "CANCEL"); ("src_ip", V.Str "203.0.113.66") ]
    "CANCEL";
  check_str "attack state" Vids.Keys.st_cancel_dos (M.state rig.sip);
  check_int "alert" 1 (List.length !(rig.alerts))

let reinvite_legitimate () =
  let rig = make_rig () in
  establish rig;
  (* Re-INVITE from the caller with matching dialog tags and known source. *)
  inject_sip rig
    ~extra:
      [ ("to_tag", V.Str "tag-b"); ("src_ip", V.Str "10.1.0.10") ]
    "INVITE";
  check_str "reinvite pending" "REINVITE_PENDING" (M.state rig.sip);
  resp rig 200;
  check_str "back to confirmed" "CONFIRMED" (M.state rig.sip);
  check "no alerts" true (!(rig.alerts) = [])

let hijack_detected () =
  let rig = make_rig () in
  establish rig;
  (* In-dialog INVITE with foreign tags from a foreign source. *)
  inject_sip rig
    ~extra:
      [
        ("from_tag", V.Str "tag-mallory");
        ("to_tag", V.Str "tag-b");
        ("src_ip", V.Str "203.0.113.66");
      ]
    "INVITE";
  check_str "hijack state" Vids.Keys.st_hijack (M.state rig.sip);
  check_int "alert" 1 (List.length !(rig.alerts))

let hijack_matching_tags_wrong_source () =
  let rig = make_rig () in
  establish rig;
  (* Correct tags but source that is neither participant's contact. *)
  inject_sip rig
    ~extra:
      [ ("to_tag", V.Str "tag-b"); ("src_ip", V.Str "203.0.113.66") ]
    "INVITE";
  check_str "hijack state" Vids.Keys.st_hijack (M.state rig.sip)

let bye_with_unknown_tag_is_anomaly () =
  let rig = make_rig () in
  establish rig;
  bye rig ~from_tag:"tag-nobody";
  check_str "state unchanged" "CONFIRMED" (M.state rig.sip);
  check_int "anomaly" 1 (List.length !(rig.anomalies))

let register_path () =
  let rig = make_rig () in
  inject_sip rig ~extra:[ ("cseq_method", V.Str "REGISTER") ] "REGISTER";
  check_str "registering" "REGISTERING" (M.state rig.sip);
  resp rig ~cseq_method:"REGISTER" 200;
  check_str "closed" "CLOSED" (M.state rig.sip)

let callee_bye_teardown () =
  let rig = make_rig () in
  establish rig;
  (* BYE from the callee side (their tag, their contact). *)
  bye rig ~src:"10.2.0.10" ~from_tag:"tag-b";
  check_str "teardown" "TEARDOWN" (M.state rig.sip);
  check "no alerts" true (!(rig.alerts) = [])

(* ------------------------------------------------------------------ *)
(* RTP machine + cross-protocol BYE check (Figure 5)                   *)
(* ------------------------------------------------------------------ *)

let rtp_opens_on_sync () =
  let rig = make_rig () in
  invite_with_sdp rig;
  check_str "open" "RTP_OPEN" (M.state rig.rtp);
  resp_with_media rig 200;
  check_str "still open after answer" "RTP_OPEN" (M.state rig.rtp);
  inject_rtp rig ~src:"10.1.0.10" ~dst:"10.2.0.10";
  check_str "active" "RTP_RCVD" (M.state rig.rtp)

let bye_then_quiet_closes () =
  let rig = make_rig () in
  establish rig;
  inject_rtp rig ~src:"10.1.0.10" ~dst:"10.2.0.10";
  bye rig;
  check_str "after bye" "RTP_RCVD_AFTER_BYE" (M.state rig.rtp);
  (* In-flight packet inside the grace window: allowed. *)
  Dsim.Scheduler.run_until rig.sched (Dsim.Time.of_ms 100.0);
  inject_rtp rig ~src:"10.2.0.10" ~dst:"10.1.0.10";
  check_str "still grace" "RTP_RCVD_AFTER_BYE" (M.state rig.rtp);
  Dsim.Scheduler.run_until rig.sched (Dsim.Time.of_sec 1.0);
  check_str "closed" "RTP_CLOSED" (M.state rig.rtp);
  check "rtp final" true (M.is_final rig.rtp);
  check "no alerts" true (!(rig.alerts) = [])

let spoofed_bye_dos_detected () =
  let rig = make_rig () in
  establish rig;
  inject_rtp rig ~src:"10.1.0.10" ~dst:"10.2.0.10";
  (* BYE claims the caller (tag-a) but comes from a foreign source. *)
  bye rig ~src:"203.0.113.66";
  Dsim.Scheduler.run_until rig.sched (Dsim.Time.of_sec 1.0);
  (* The real caller keeps talking. *)
  inject_rtp rig ~src:"10.1.0.10" ~dst:"10.2.0.10";
  check_str "bye dos" Vids.Keys.st_bye_dos (M.state rig.rtp);
  check_int "alert" 1 (List.length !(rig.alerts))

let billing_fraud_detected () =
  let rig = make_rig () in
  establish rig;
  inject_rtp rig ~src:"10.1.0.10" ~dst:"10.2.0.10";
  (* Genuine BYE from the caller's contact... *)
  bye rig ~src:"10.1.0.10";
  Dsim.Scheduler.run_until rig.sched (Dsim.Time.of_sec 1.0);
  (* ...who keeps streaming after the grace period. *)
  inject_rtp rig ~src:"10.1.0.10" ~dst:"10.2.0.10";
  check_str "billing fraud" Vids.Keys.st_billing_fraud (M.state rig.rtp);
  check_int "alert" 1 (List.length !(rig.alerts))

let grace_timer_uses_config () =
  let rig = make_rig () in
  establish rig;
  inject_rtp rig ~src:"10.1.0.10" ~dst:"10.2.0.10";
  bye rig;
  (* Just before T (250 ms default) the machine is still in grace. *)
  Dsim.Scheduler.run_until rig.sched (Dsim.Time.of_ms 240.0);
  check_str "still grace" "RTP_RCVD_AFTER_BYE" (M.state rig.rtp);
  Dsim.Scheduler.run_until rig.sched (Dsim.Time.of_ms 260.0);
  check_str "closed at T" "RTP_CLOSED" (M.state rig.rtp)

(* ------------------------------------------------------------------ *)
(* INVITE flood detector (Figure 4)                                    *)
(* ------------------------------------------------------------------ *)

let flood_rig () =
  let sched = Dsim.Scheduler.create () in
  let alerts = ref [] in
  let sys = recording_system sched alerts in
  let m = Efsm.System.add_machine sys (M.compile (Vids.Spec_load.spec config Vids.Keys.flood_machine)) in
  let send () =
    Efsm.System.inject sys ~machine:Vids.Keys.flood_machine
      (E.make (E.Data "SIP") ~at:(Dsim.Scheduler.now sched) "INVITE")
  in
  (sched, m, alerts, send)

let flood_below_threshold () =
  let sched, m, alerts, send = flood_rig () in
  for _ = 1 to config.Vids.Config.invite_flood_threshold do
    send ()
  done;
  check "no alert at N" true (!alerts = []);
  check_str "counting" "PACKET_RCVD" (M.state m);
  (* Window expires: reset. *)
  Dsim.Scheduler.run_until sched (Dsim.Time.of_sec 2.0);
  check_str "reset" "INIT" (M.state m);
  (* A fresh burst of N after the window is still fine. *)
  for _ = 1 to config.Vids.Config.invite_flood_threshold do
    send ()
  done;
  check "still no alert" true (!alerts = [])

let flood_above_threshold () =
  let _sched, m, alerts, send = flood_rig () in
  for _ = 1 to config.Vids.Config.invite_flood_threshold + 1 do
    send ()
  done;
  check_str "flood state" Vids.Keys.st_invite_flood (M.state m);
  check_int "one alert per entry" 1 (List.length !alerts)

let flood_spread_out_no_alert () =
  let sched, _m, alerts, send = flood_rig () in
  (* N+5 INVITEs but only a few per window. *)
  for _ = 1 to config.Vids.Config.invite_flood_threshold + 5 do
    send ();
    Dsim.Scheduler.run_until sched
      (Dsim.Time.add (Dsim.Scheduler.now sched) (Dsim.Time.of_ms 600.0))
  done;
  check "no alert when spread out" true (!alerts = [])

(* ------------------------------------------------------------------ *)
(* Media spam detector (Figure 6)                                      *)
(* ------------------------------------------------------------------ *)

let spam_rig () =
  let sched = Dsim.Scheduler.create () in
  let alerts = ref [] in
  let sys = recording_system sched alerts in
  let m = Efsm.System.add_machine sys (M.compile (Vids.Spec_load.spec config Vids.Keys.spam_machine)) in
  let send ?(ssrc = 7) ~seq ~ts () =
    Efsm.System.inject sys ~machine:Vids.Keys.spam_machine
      (E.make
         ~args:
           [
             ("ssrc", V.Int ssrc);
             ("seq", V.Int seq);
             ("ts", V.Int ts);
             ("src_ip", V.Str "10.1.0.10");
           ]
         (E.Data "RTP") ~at:(Dsim.Scheduler.now sched) Vids.Keys.rtp_packet)
  in
  (sched, m, alerts, send)

let spam_in_order_stream_ok () =
  let sched, m, alerts, send = spam_rig () in
  for i = 0 to 100 do
    send ~seq:(1000 + i) ~ts:(160 * i) ();
    Dsim.Scheduler.run_until sched
      (Dsim.Time.add (Dsim.Scheduler.now sched) (Dsim.Time.of_ms 20.0))
  done;
  check "no alert" true (!alerts = []);
  check_str "streaming" "PACKET_RCVD" (M.state m)

let spam_seq_gap_detected () =
  let _sched, m, alerts, send = spam_rig () in
  send ~seq:1000 ~ts:0 ();
  send ~seq:(1000 + config.Vids.Config.spam_seq_gap + 1) ~ts:160 ();
  check_str "spam" Vids.Keys.st_media_spam (M.state m);
  check_int "alert" 1 (List.length !alerts)

let spam_ts_gap_detected () =
  let _sched, m, _alerts, send = spam_rig () in
  send ~seq:1000 ~ts:0 ();
  (* A non-consecutive sequence advance with a timestamp jump beyond Δt. *)
  send ~seq:1005 ~ts:(config.Vids.Config.spam_ts_gap + 801) ();
  check_str "spam" Vids.Keys.st_media_spam (M.state m)

let spam_talkspurt_tolerated () =
  let _sched, m, alerts, send = spam_rig () in
  send ~seq:1000 ~ts:0 ();
  (* Consecutive sequence number with a multi-second timestamp jump: a
     talkspurt after VAD silence suppression, not an injection. *)
  send ~seq:1001 ~ts:24000 ();
  check_str "talkspurt ok" "PACKET_RCVD" (M.state m);
  check "no alert" true (!alerts = []);
  (* But even a consecutive-sequence packet cannot jump beyond the silence
     allowance. *)
  send ~seq:1002 ~ts:(24000 + config.Vids.Config.spam_silence_ts_gap + 161) ();
  check_str "absurd jump is spam" Vids.Keys.st_media_spam (M.state m)

let spam_foreign_ssrc_detected () =
  let _sched, m, _alerts, send = spam_rig () in
  send ~seq:1000 ~ts:0 ();
  send ~ssrc:999 ~seq:1001 ~ts:160 ();
  check_str "spam" Vids.Keys.st_media_spam (M.state m)

let spam_replay_detected () =
  let _sched, m, _alerts, send = spam_rig () in
  send ~seq:1000 ~ts:160000 ();
  send ~seq:(1000 - config.Vids.Config.spam_reorder_tolerance - 1) ~ts:150000 ();
  check_str "deep reorder is spam" Vids.Keys.st_media_spam (M.state m)

let spam_small_reorder_tolerated () =
  let _sched, m, _alerts, send = spam_rig () in
  send ~seq:1000 ~ts:16000 ();
  send ~seq:999 ~ts:15840 ();
  check_str "tolerated" "PACKET_RCVD" (M.state m)

let spam_seq_wrap_tolerated () =
  let _sched, m, _alerts, send = spam_rig () in
  send ~seq:0xFFFE ~ts:0 ();
  send ~seq:0xFFFF ~ts:160 ();
  send ~seq:0 ~ts:320 ();
  send ~seq:1 ~ts:480 ();
  check_str "wrap ok" "PACKET_RCVD" (M.state m);
  check "no alert" true (!_alerts = [])

let spam_silence_suppression_tolerated () =
  let _sched, m, _alerts, send = spam_rig () in
  send ~seq:1000 ~ts:0 ();
  (* A 0.4 s timestamp jump with consecutive seq: silence suppression. *)
  send ~seq:1001 ~ts:3200 ();
  check_str "tolerated" "PACKET_RCVD" (M.state m)

let rtp_flood_detected () =
  let _sched, m, alerts, send = spam_rig () in
  for i = 1 to config.Vids.Config.rtp_flood_threshold + 1 do
    send ~seq:(1000 + i) ~ts:(160 * i) ()
  done;
  check_str "flood" Vids.Keys.st_rtp_flood (M.state m);
  check_int "alert on entering the attack state" 1 (List.length !alerts)

let spam_dormant_resume () =
  let sched, m, alerts, send = spam_rig () in
  send ~seq:1000 ~ts:0 ();
  (* Idle long enough for two window expiries: counting window then idle. *)
  Dsim.Scheduler.run_until sched (Dsim.Time.of_sec 3.0);
  check_str "dormant" "DORMANT" (M.state m);
  (* Same SSRC resumes with a big jump: tolerated (re-baseline). *)
  send ~seq:3000 ~ts:500000 ();
  check_str "resumed" "PACKET_RCVD" (M.state m);
  check "no alert" true (!alerts = []);
  (* But a foreign SSRC after dormancy is spam. *)
  Dsim.Scheduler.run_until sched (Dsim.Time.of_sec 10.0);
  check_str "dormant again" "DORMANT" (M.state m);
  send ~ssrc:999 ~seq:1 ~ts:0 ();
  check_str "foreign after dormancy" Vids.Keys.st_media_spam (M.state m)

(* ------------------------------------------------------------------ *)
(* DRDoS detector                                                      *)
(* ------------------------------------------------------------------ *)

let drdos_detector () =
  let sched = Dsim.Scheduler.create () in
  let alerts = ref [] in
  let sys = recording_system sched alerts in
  let m = Efsm.System.add_machine sys (M.compile (Vids.Spec_load.spec config Vids.Keys.drdos_machine)) in
  let send () =
    Efsm.System.inject sys ~machine:Vids.Keys.drdos_machine
      (E.make (E.Data "SIP") ~at:(Dsim.Scheduler.now sched) Vids.Keys.orphan_response)
  in
  for _ = 1 to config.Vids.Config.drdos_threshold do
    send ()
  done;
  check "below threshold" true (!alerts = []);
  send ();
  check_str "attack" Vids.Keys.st_drdos (M.state m);
  check_int "alert" 1 (List.length !alerts);
  (* Occasional orphans spread over windows never alert. *)
  let sched2 = Dsim.Scheduler.create () in
  let alerts2 = ref [] in
  let sys2 = recording_system sched2 alerts2 in
  ignore (Efsm.System.add_machine sys2 (M.compile (Vids.Spec_load.spec config Vids.Keys.drdos_machine)));
  for _ = 1 to 100 do
    Efsm.System.inject sys2 ~machine:Vids.Keys.drdos_machine
      (E.make (E.Data "SIP") ~at:(Dsim.Scheduler.now sched2) Vids.Keys.orphan_response);
    Dsim.Scheduler.run_until sched2
      (Dsim.Time.add (Dsim.Scheduler.now sched2) (Dsim.Time.of_sec 1.0))
  done;
  check "spread orphans fine" true (!alerts2 = [])

(* ------------------------------------------------------------------ *)
(* Spec hygiene                                                        *)
(* ------------------------------------------------------------------ *)

let all_specs_validate () =
  List.iter
    (fun spec ->
      match M.validate_spec spec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid spec: %s" e)
    (List.map (fun (_, (spec, _)) -> spec) (Vids.Spec_load.builtins config))

let dot_export_of_paper_figures () =
  (* The three patterns of Figures 4-6 export to non-trivial graphs. *)
  List.iter
    (fun spec ->
      let dot = Efsm.Dot.of_spec spec in
      check "has content" true (String.length dot > 100))
    (List.map
       (Vids.Spec_load.spec config)
       [ Vids.Keys.flood_machine; Vids.Keys.rtp_machine; Vids.Keys.spam_machine ])

let suite =
  [
    ( "vids.sip_machine",
      [
        tc "normal setup" normal_setup_path;
        tc "normal teardown" normal_teardown_path;
        tc "retransmissions absorbed" retransmissions_absorbed;
        tc "200 without 180" direct_200_without_180;
        tc "failed setup" failed_setup_path;
        tc "legitimate CANCEL" cancel_legitimate;
        tc "CANCEL DoS detected" cancel_dos_detected;
        tc "legitimate re-INVITE" reinvite_legitimate;
        tc "hijack detected" hijack_detected;
        tc "hijack by source" hijack_matching_tags_wrong_source;
        tc "BYE with unknown tag = anomaly" bye_with_unknown_tag_is_anomaly;
        tc "REGISTER path" register_path;
        tc "callee-initiated BYE" callee_bye_teardown;
      ] );
    ( "vids.rtp_machine",
      [
        tc "opens on sync" rtp_opens_on_sync;
        tc "bye then quiet closes" bye_then_quiet_closes;
        tc "spoofed BYE DoS" spoofed_bye_dos_detected;
        tc "billing fraud" billing_fraud_detected;
        tc "grace timer T" grace_timer_uses_config;
      ] );
    ( "vids.invite_flood",
      [
        tc "below threshold" flood_below_threshold;
        tc "above threshold" flood_above_threshold;
        tc "spread out fine" flood_spread_out_no_alert;
      ] );
    ( "vids.media_spam",
      [
        tc "in-order ok" spam_in_order_stream_ok;
        tc "seq gap" spam_seq_gap_detected;
        tc "ts gap" spam_ts_gap_detected;
        tc "talkspurt tolerated" spam_talkspurt_tolerated;
        tc "foreign ssrc" spam_foreign_ssrc_detected;
        tc "replay" spam_replay_detected;
        tc "small reorder ok" spam_small_reorder_tolerated;
        tc "seq wraparound ok" spam_seq_wrap_tolerated;
        tc "silence suppression ok" spam_silence_suppression_tolerated;
        tc "rtp flood" rtp_flood_detected;
        tc "dormant/resume" spam_dormant_resume;
      ] );
    ("vids.drdos", [ tc "threshold behaviour" drdos_detector ]);
    ( "vids.specs",
      [ tc "all validate" all_specs_validate; tc "figures export to dot" dot_export_of_paper_figures ] );
  ]
