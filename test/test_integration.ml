(* End-to-end integration tests on the Figure-7 testbed: full SIP/RTP stacks
   over lossy links, with vIDS watching. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

module T = Voip.Testbed

let sec = Dsim.Time.of_sec

let single_call tb ~caller ~callee ~duration ~at =
  ignore
    (Dsim.Scheduler.schedule_at tb.T.sched at (fun () ->
         Voip.Ua.call caller ~callee:(Voip.Ua.aor callee) ~duration))

(* ------------------------------------------------------------------ *)
(* Clean traffic                                                       *)
(* ------------------------------------------------------------------ *)

(* RTP packets the UAs received: each adds one delay sample. *)
let rtp_received m = Dsim.Stat.Series.length (Voip.Metrics.rtp_delay m)

let clean_call_completes () =
  let tb = T.make ~seed:1 ~n_ua:2 ~vids:T.Monitor () in
  single_call tb ~caller:(List.hd tb.T.uas_a) ~callee:(List.hd tb.T.uas_b)
    ~duration:(sec 10.0) ~at:(sec 2.0);
  T.run_until tb (sec 60.0);
  let m = tb.T.metrics in
  check_int "attempted" 1 (Voip.Metrics.attempted m);
  check_int "established" 1 (Voip.Metrics.established m);
  check_int "completed" 1 (Voip.Metrics.completed m);
  check_int "failed" 0 (Voip.Metrics.failed m);
  check "media flowed both ways" true (rtp_received m > 900)

let clean_call_no_false_alarms () =
  let tb = T.make ~seed:2 ~n_ua:2 ~vids:T.Monitor () in
  single_call tb ~caller:(List.hd tb.T.uas_a) ~callee:(List.hd tb.T.uas_b)
    ~duration:(sec 10.0) ~at:(sec 2.0);
  T.run_until tb (sec 60.0);
  let c = Vids.Engine.counters (T.engine_exn tb) in
  check_int "zero alerts" 0 c.Vids.Engine.alerts_raised;
  check_int "zero anomalies" 0 c.Vids.Engine.anomalies

let concurrent_calls () =
  let tb = T.make ~seed:3 ~n_ua:5 ~vids:T.Monitor () in
  List.iteri
    (fun i (caller, callee) ->
      single_call tb ~caller ~callee ~duration:(sec 8.0)
        ~at:(Dsim.Time.add (sec 2.0) (Dsim.Time.of_ms (200.0 *. float_of_int i))))
    (List.combine tb.T.uas_a tb.T.uas_b);
  T.run_until tb (sec 90.0);
  let m = tb.T.metrics in
  check_int "all complete" 5 (Voip.Metrics.completed m);
  let stats = Vids.Engine.memory_stats (T.engine_exn tb) in
  check_int "all records created" 5 stats.Vids.Fact_base.calls_created;
  check "peak tracked" true (stats.Vids.Fact_base.peak_calls >= 4);
  check_int "no alerts" 0 (Vids.Engine.counters (T.engine_exn tb)).Vids.Engine.alerts_raised

let calls_survive_loss () =
  (* 5% loss: transactions must retransmit their way through. *)
  let tb = T.make ~seed:4 ~n_ua:3 ~vids:T.Off ~loss:0.05 () in
  List.iteri
    (fun i (caller, callee) ->
      single_call tb ~caller ~callee ~duration:(sec 6.0)
        ~at:(Dsim.Time.add (sec 2.0) (sec (float_of_int i))))
    (List.combine tb.T.uas_a tb.T.uas_b);
  T.run_until tb (sec 120.0);
  let m = tb.T.metrics in
  check_int "all established despite loss" 3 (Voip.Metrics.established m);
  check_int "all completed" 3 (Voip.Metrics.completed m)

let busy_when_at_capacity () =
  let tb = T.make ~seed:5 ~n_ua:3 ~vids:T.Off () in
  let callee = List.hd tb.T.uas_b in
  (* Three simultaneous calls to one phone with max_concurrent = 2. *)
  List.iteri
    (fun i caller ->
      single_call tb ~caller ~callee ~duration:(sec 20.0)
        ~at:(Dsim.Time.add (sec 2.0) (Dsim.Time.of_ms (float_of_int i))))
    tb.T.uas_a;
  T.run_until tb (sec 60.0);
  let m = tb.T.metrics in
  check_int "two accepted" 2 (Voip.Metrics.established m);
  check_int "one refused busy" 1 (Voip.Metrics.failed m)

(* ------------------------------------------------------------------ *)
(* vIDS deployment modes                                               *)
(* ------------------------------------------------------------------ *)

let setup_delay_measured tb =
  Dsim.Stat.Summary.mean (Voip.Metrics.setup_all tb.T.metrics)

let run_one_call_mode mode seed =
  let tb = T.make ~seed ~n_ua:2 ~vids:mode () in
  single_call tb ~caller:(List.hd tb.T.uas_a) ~callee:(List.hd tb.T.uas_b)
    ~duration:(sec 5.0) ~at:(sec 2.0);
  T.run_until tb (sec 40.0);
  tb

let inline_adds_setup_delay () =
  let with_ = run_one_call_mode T.Inline 6 in
  let without = run_one_call_mode T.Off 6 in
  let delta = setup_delay_measured with_ -. setup_delay_measured without in
  (* Paper §7.2: about 100 ms added to call setup.  Two SIP crossings at
     50 ms each; allow sim noise. *)
  check "delta near 100 ms" true (delta > 0.08 && delta < 0.13)

let monitor_adds_no_delay () =
  let monitored = run_one_call_mode T.Monitor 7 in
  let off = run_one_call_mode T.Off 7 in
  let delta = Float.abs (setup_delay_measured monitored -. setup_delay_measured off) in
  check "no measurable delay" true (delta < 0.001)

let inline_adds_rtp_delay () =
  let with_ = run_one_call_mode T.Inline 8 in
  let without = run_one_call_mode T.Off 8 in
  let d_with = Dsim.Stat.Summary.mean (Dsim.Stat.Series.summary (Voip.Metrics.rtp_delay with_.T.metrics)) in
  let d_without =
    Dsim.Stat.Summary.mean (Dsim.Stat.Series.summary (Voip.Metrics.rtp_delay without.T.metrics))
  in
  let delta = d_with -. d_without in
  (* Paper §7.4: ≈1.5 ms added one-way RTP delay. *)
  check "rtp delay near 1.5 ms" true (delta > 0.001 && delta < 0.003)

(* ------------------------------------------------------------------ *)
(* Attack detection end-to-end                                         *)
(* ------------------------------------------------------------------ *)

let detected tb kind = List.length (Vids.Engine.alerts_of_kind (T.engine_exn tb) kind)

let attack_rig seed =
  let tb = T.make ~seed ~n_ua:4 ~vids:T.Monitor () in
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  (tb, atk)

let detects_bye_dos () =
  let tb, atk = attack_rig 10 in
  Attack.Scenarios.spoofed_bye_call atk ~caller:(List.hd tb.T.uas_a)
    ~callee:(List.hd tb.T.uas_b) ~at:(sec 2.0);
  T.run_until tb (sec 40.0);
  check_int "bye dos" 1 (detected tb Vids.Alert.Bye_dos)

let detects_cancel_dos () =
  let tb, atk = attack_rig 11 in
  Attack.Scenarios.cancel_dos_call atk ~caller:(List.hd tb.T.uas_a)
    ~callee:(List.hd tb.T.uas_b) ~at:(sec 2.0);
  T.run_until tb (sec 30.0);
  check_int "cancel dos" 1 (detected tb Vids.Alert.Cancel_dos)

let detects_hijack () =
  let tb, atk = attack_rig 12 in
  Attack.Scenarios.hijack_call atk ~caller:(List.hd tb.T.uas_a) ~callee:(List.hd tb.T.uas_b)
    ~at:(sec 2.0);
  T.run_until tb (sec 40.0);
  check_int "hijack" 1 (detected tb Vids.Alert.Call_hijack)

let detects_media_spam () =
  let tb, atk = attack_rig 13 in
  Attack.Scenarios.media_spam_call atk ~caller:(List.hd tb.T.uas_a)
    ~callee:(List.hd tb.T.uas_b) ~at:(sec 2.0);
  T.run_until tb (sec 40.0);
  check_int "media spam" 1 (detected tb Vids.Alert.Media_spam)

let detects_billing_fraud () =
  let tb, atk = attack_rig 14 in
  Attack.Scenarios.billing_fraud_call atk ~caller:(List.hd tb.T.uas_a)
    ~callee:(List.hd tb.T.uas_b) ~at:(sec 2.0);
  T.run_until tb (sec 60.0);
  check_int "billing fraud" 1 (detected tb Vids.Alert.Billing_fraud)

let detects_invite_flood () =
  let tb, atk = attack_rig 15 in
  Attack.Scenarios.invite_flood atk ~target:(Voip.Ua.aor (List.hd tb.T.uas_b)) ~via_proxy:true
    ~count:20 ~interval:(Dsim.Time.of_ms 50.0) ~at:(sec 2.0);
  T.run_until tb (sec 20.0);
  check_int "invite flood" 1 (detected tb Vids.Alert.Invite_flood)

let detects_rtp_flood () =
  let tb, atk = attack_rig 16 in
  Attack.Scenarios.rtp_flood atk ~target:(Dsim.Addr.v (T.ua_b_host tb 0) 16500) ~rate_pps:400
    ~duration:(sec 2.0) ~at:(sec 2.0);
  T.run_until tb (sec 20.0);
  check_int "rtp flood" 1 (detected tb Vids.Alert.Rtp_flood)

let detects_drdos () =
  let tb, atk = attack_rig 17 in
  Attack.Scenarios.drdos atk ~victim_host:(T.ua_b_host tb 0) ~reflectors:16 ~responses:50
    ~at:(sec 2.0);
  T.run_until tb (sec 30.0);
  check_int "drdos" 1 (detected tb Vids.Alert.Drdos)

let normal_flood_rate_no_alert () =
  (* Several genuine calls to the same callee spread over time must not
     trip the flood detector. *)
  let tb = T.make ~seed:18 ~n_ua:4 ~vids:T.Monitor () in
  let callee = List.hd tb.T.uas_b in
  List.iteri
    (fun i caller ->
      single_call tb ~caller ~callee ~duration:(sec 3.0)
        ~at:(Dsim.Time.add (sec 2.0) (sec (8.0 *. float_of_int i))))
    tb.T.uas_a;
  T.run_until tb (sec 80.0);
  check_int "no flood alert" 0 (detected tb Vids.Alert.Invite_flood)

let insider_blind_spot () =
  (* An attacker behind the sensor (inside network B) attacking another B
     phone is invisible to vIDS — the placement property of Figure 1/7. *)
  let tb = T.make ~seed:19 ~n_ua:2 ~vids:T.Monitor () in
  (* A compromised host on proxy B's LAN: its traffic to other B hosts
     never crosses the vIDS node. *)
  let transport =
    let host = "10.2.0.99" in
    let node = Dsim.Network.add_node tb.T.net ~name:("insider-" ^ host) ~hosts:[ host ] in
    let proxy_b_node = Option.get (Dsim.Network.find_node tb.T.net ~host:"10.2.0.2") in
    Dsim.Network.connect tb.T.net node proxy_b_node ~rate_bps:100e6
      ~prop_delay:(Dsim.Time.of_us 50) ~loss_prob:0.0;
    Voip.Transport.create tb.T.net node ~local:(Dsim.Addr.v host 5060)
  in
  ignore
    (Dsim.Scheduler.schedule_at tb.T.sched (sec 2.0) (fun () ->
         for i = 0 to 200 do
           Voip.Transport.send_raw transport ~src:(Dsim.Addr.v "10.2.0.99" 18000)
             ~dst:(Dsim.Addr.v (T.ua_b_host tb 0) 16500)
             (Rtp.Rtp_packet.encode
                (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:i
                   ~timestamp:(Int32.of_int (160 * i)) ~ssrc:5l "xxxx"))
         done));
  T.run_until tb (sec 10.0);
  let c = Vids.Engine.counters (T.engine_exn tb) in
  check_int "sensor saw nothing" 0 c.Vids.Engine.rtp_packets;
  check_int "no alert possible" 0 c.Vids.Engine.alerts_raised

let full_sweep_accuracy () =
  (* The paper's detection table: every attack over clean background, all
     detected, zero false positives (§7.5). *)
  let tb, atk = attack_rig 20 in
  let ua_a n = List.nth tb.T.uas_a n and ua_b n = List.nth tb.T.uas_b n in
  single_call tb ~caller:(ua_a 3) ~callee:(ua_b 3) ~duration:(sec 20.0) ~at:(sec 1.0);
  Attack.Scenarios.spoofed_bye_call atk ~caller:(ua_a 0) ~callee:(ua_b 0) ~at:(sec 5.0);
  Attack.Scenarios.cancel_dos_call atk ~caller:(ua_a 1) ~callee:(ua_b 1) ~at:(sec 30.0);
  Attack.Scenarios.hijack_call atk ~caller:(ua_a 2) ~callee:(ua_b 2) ~at:(sec 50.0);
  Attack.Scenarios.media_spam_call atk ~caller:(ua_a 0) ~callee:(ua_b 1) ~at:(sec 75.0);
  Attack.Scenarios.billing_fraud_call atk ~caller:(ua_a 1) ~callee:(ua_b 2) ~at:(sec 100.0);
  Attack.Scenarios.invite_flood atk ~target:(Voip.Ua.aor (ua_b 3)) ~via_proxy:true ~count:20
    ~interval:(Dsim.Time.of_ms 40.0) ~at:(sec 120.0);
  Attack.Scenarios.rtp_flood atk ~target:(Dsim.Addr.v (T.ua_b_host tb 2) 16500) ~rate_pps:400
    ~duration:(sec 2.0) ~at:(sec 130.0);
  Attack.Scenarios.drdos atk ~victim_host:(T.ua_b_host tb 3) ~reflectors:16 ~responses:50
    ~at:(sec 140.0);
  T.run_until tb (sec 220.0);
  List.iter
    (fun kind -> check_int (Vids.Alert.kind_to_string kind) 1 (detected tb kind))
    [
      Vids.Alert.Bye_dos;
      Vids.Alert.Cancel_dos;
      Vids.Alert.Call_hijack;
      Vids.Alert.Media_spam;
      Vids.Alert.Billing_fraud;
      Vids.Alert.Invite_flood;
      Vids.Alert.Rtp_flood;
      Vids.Alert.Drdos;
    ];
  check_int "no spec deviations on clean background" 0
    (detected tb Vids.Alert.Spec_deviation)

let soak_no_false_positives () =
  (* 10 minutes of the standard workload, 0.42% loss, no attacks: vIDS must
     stay silent (critical alerts = 0). *)
  let tb = T.make ~seed:21 ~vids:T.Monitor () in
  T.run_workload tb
    ~profile:
      {
        Voip.Call_generator.mean_interarrival = sec 60.0;
        mean_duration = sec 30.0;
        min_duration = sec 5.0;
      }
    ~duration:(sec 600.0) ();
  let e = T.engine_exn tb in
  let critical =
    List.filter (fun a -> a.Vids.Alert.severity = Vids.Alert.Critical) (Vids.Engine.alerts e)
  in
  check_int "no critical alerts" 0 (List.length critical);
  let m = tb.T.metrics in
  check "calls happened" true (Voip.Metrics.established m > 5);
  check "most calls complete" true
    (Voip.Metrics.completed m >= Voip.Metrics.established m - 2)

let vad_no_false_alarms () =
  (* Speech-activity detection (the paper's own codec setting) makes the
     RTP stream bursty with timestamp jumps over silences; the refined
     Figure-6 rule must not flag it. *)
  let tb = T.make ~seed:23 ~n_ua:2 ~vids:T.Monitor ~vad:true () in
  single_call tb ~caller:(List.hd tb.T.uas_a) ~callee:(List.hd tb.T.uas_b)
    ~duration:(sec 30.0) ~at:(sec 2.0);
  T.run_until tb (sec 90.0);
  let m = tb.T.metrics in
  check_int "call completed" 1 (Voip.Metrics.completed m);
  let received = rtp_received m in
  (* Roughly a 60% talk duty cycle: well below the 3000 packets of
     always-on media, well above silence. *)
  check "vad reduced packet count" true (received > 500 && received < 2700);
  let c = Vids.Engine.counters (T.engine_exn tb) in
  check_int "no alerts over vad stream" 0 c.Vids.Engine.alerts_raised;
  check_int "no anomalies" 0 c.Vids.Engine.anomalies

let vad_spam_still_detected () =
  (* The talkspurt tolerance must not blind the detector to injection. *)
  let tb = T.make ~seed:24 ~n_ua:2 ~vids:T.Monitor ~vad:true () in
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  Attack.Scenarios.media_spam_call atk ~caller:(List.hd tb.T.uas_a)
    ~callee:(List.hd tb.T.uas_b) ~at:(sec 2.0);
  T.run_until tb (sec 40.0);
  check_int "spam detected despite vad" 1 (detected tb Vids.Alert.Media_spam)

let record_route_mode () =
  (* With record-routing the in-dialog BYE flows through both proxies; the
     call still completes and vIDS still closes the record cleanly. *)
  let tb = T.make ~seed:25 ~n_ua:2 ~vids:T.Monitor ~record_route:true () in
  single_call tb ~caller:(List.hd tb.T.uas_a) ~callee:(List.hd tb.T.uas_b)
    ~duration:(sec 8.0) ~at:(sec 2.0);
  T.run_until tb (sec 60.0);
  let m = tb.T.metrics in
  check_int "completed" 1 (Voip.Metrics.completed m);
  let c = Vids.Engine.counters (T.engine_exn tb) in
  check_int "no critical alerts" 0
    (List.length
       (List.filter
          (fun a -> a.Vids.Alert.severity = Vids.Alert.Critical)
          (Vids.Engine.alerts (T.engine_exn tb))));
  ignore c;
  (* The BYE crossed the proxies: both forwarded more requests than the
     INVITE alone. *)
  check "proxy stayed on path" true (Voip.Proxy.requests_forwarded tb.T.proxy_b >= 2)

let midcall_reinvite () =
  (* The caller renegotiates its media endpoint mid-call (paper §2.1: the
     media path changes only through a re-invite); the call survives, media
     keeps flowing to the new port, and vIDS tracks the change without
     raising anything. *)
  let tb = T.make ~seed:27 ~n_ua:2 ~vids:T.Monitor () in
  let caller = List.hd tb.T.uas_a in
  single_call tb ~caller ~callee:(List.hd tb.T.uas_b) ~duration:(sec 20.0) ~at:(sec 2.0);
  ignore
    (Dsim.Scheduler.schedule_at tb.T.sched (sec 10.0) (fun () -> Voip.Ua.reinvite_all caller));
  let received_before = ref 0 in
  ignore
    (Dsim.Scheduler.schedule_at tb.T.sched (sec 12.0) (fun () ->
         received_before := rtp_received tb.T.metrics));
  T.run_until tb (sec 60.0);
  let m = tb.T.metrics in
  check_int "call completed" 1 (Voip.Metrics.completed m);
  check "media continued after renegotiation" true
    (rtp_received m > !received_before + 200);
  let c = Vids.Engine.counters (T.engine_exn tb) in
  check_int "no alerts" 0 c.Vids.Engine.alerts_raised;
  check_int "no anomalies" 0 c.Vids.Engine.anomalies

let rtcp_flows () =
  let tb = T.make ~seed:26 ~n_ua:2 ~vids:T.Monitor () in
  single_call tb ~caller:(List.hd tb.T.uas_a) ~callee:(List.hd tb.T.uas_b)
    ~duration:(sec 12.0) ~at:(sec 2.0);
  T.run_until tb (sec 60.0);
  (* 12 s call, SR every 5 s from each side: at least two reports cross
     the sensor. *)
  let c = Vids.Engine.counters (T.engine_exn tb) in
  check "vids classified rtcp" true (c.Vids.Engine.rtcp_packets >= 2);
  check_int "no alerts" 0 c.Vids.Engine.alerts_raised

let proxy_counters () =
  let tb = T.make ~seed:22 ~n_ua:2 ~vids:T.Off () in
  single_call tb ~caller:(List.hd tb.T.uas_a) ~callee:(List.hd tb.T.uas_b)
    ~duration:(sec 5.0) ~at:(sec 2.0);
  T.run_until tb (sec 30.0);
  check "proxy A forwarded requests" true (Voip.Proxy.requests_forwarded tb.T.proxy_a > 0);
  check "proxy B forwarded requests" true (Voip.Proxy.requests_forwarded tb.T.proxy_b > 0);
  (* The caller saw the call established, so the responses came back. *)
  check_int "responses came back" 1 (Voip.Metrics.established tb.T.metrics);
  List.iter
    (fun ua ->
      check "registered with proxy B" true
        (Voip.Location.lookup (Voip.Proxy.location tb.T.proxy_b)
           ~aor:(Voip.Location.aor_of_uri (Voip.Ua.aor ua))
        <> None))
    tb.T.uas_b

let deterministic_replay () =
  (* The whole stack — RNG, scheduler, network, stacks, IDS — is
     deterministic: the same seed reproduces the experiment exactly.  This
     is what makes every number in EXPERIMENTS.md reproducible. *)
  let run () =
    let tb = T.make ~seed:99 ~n_ua:3 ~vids:T.Inline ~vad:true () in
    T.run_workload tb
      ~profile:
        {
          Voip.Call_generator.mean_interarrival = sec 40.0;
          mean_duration = sec 15.0;
          min_duration = sec 5.0;
        }
      ~duration:(sec 180.0) ();
    let m = tb.T.metrics in
    let c = Vids.Engine.counters (T.engine_exn tb) in
    ( Voip.Metrics.attempted m,
      Voip.Metrics.completed m,
      rtp_received m,
      Dsim.Stat.Summary.mean (Voip.Metrics.setup_all m),
      c.Vids.Engine.sip_packets,
      c.Vids.Engine.rtp_packets )
  in
  let first = run () and second = run () in
  check "bit-identical runs" true (first = second)

let engine_handles_reinvite_media_move () =
  (* After a mid-call renegotiation the sensor routes RTP for the NEW
     media address to the same call record. *)
  let tb = T.make ~seed:28 ~n_ua:2 ~vids:T.Monitor () in
  let caller = List.hd tb.T.uas_a in
  single_call tb ~caller ~callee:(List.hd tb.T.uas_b) ~duration:(sec 15.0) ~at:(sec 2.0);
  ignore
    (Dsim.Scheduler.schedule_at tb.T.sched (sec 8.0) (fun () -> Voip.Ua.reinvite_all caller));
  T.run_until tb (sec 12.0);
  let base = Vids.Engine.fact_base (T.engine_exn tb) in
  (* The renegotiated endpoint (second port drawn from the caller's pool)
     is indexed. *)
  check "new media indexed" true
    (Vids.Fact_base.known_media base (Dsim.Addr.v "10.1.0.10" 16386));
  T.run_until tb (sec 60.0);
  check_int "still no alerts" 0
    (Vids.Engine.counters (T.engine_exn tb)).Vids.Engine.alerts_raised

let suite =
  [
    ( "integration.calls",
      [
        tc "clean call completes" clean_call_completes;
        tc "no false alarms" clean_call_no_false_alarms;
        tc "concurrent calls" concurrent_calls;
        tc_slow "calls survive 5% loss" calls_survive_loss;
        tc "busy at capacity" busy_when_at_capacity;
        tc "proxy counters" proxy_counters;
        tc "vad: no false alarms" vad_no_false_alarms;
        tc "vad: spam still detected" vad_spam_still_detected;
        tc "record-route mode" record_route_mode;
        tc "mid-call re-INVITE" midcall_reinvite;
        tc "rtcp flows" rtcp_flows;
      ] );
    ( "integration.deployment",
      [
        tc "inline adds ~100ms setup" inline_adds_setup_delay;
        tc "monitor adds none" monitor_adds_no_delay;
        tc "inline adds ~1.5ms rtp" inline_adds_rtp_delay;
      ] );
    ( "integration.attacks",
      [
        tc "bye dos" detects_bye_dos;
        tc "cancel dos" detects_cancel_dos;
        tc "hijack" detects_hijack;
        tc "media spam" detects_media_spam;
        tc "billing fraud" detects_billing_fraud;
        tc "invite flood" detects_invite_flood;
        tc "rtp flood" detects_rtp_flood;
        tc "drdos" detects_drdos;
        tc "normal rate no flood alert" normal_flood_rate_no_alert;
        tc "insider blind spot" insider_blind_spot;
        tc_slow "full sweep accuracy" full_sweep_accuracy;
        tc_slow "soak: no false positives" soak_no_false_positives;
        tc_slow "deterministic replay" deterministic_replay;
        tc "reinvite media move tracked" engine_handles_reinvite_media_move;
      ] );
  ]
