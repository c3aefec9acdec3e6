(* Launches every attack of the paper's threat model (§3) against the
   testbed and prints the detection report — the qualitative content of
   §7.5 — together with what the two baseline detectors (a Snort-like
   stateless matcher and a SCIDIVE-like stateful rule engine) see of the
   same traffic.

   Run with: dune exec examples/attack_detection.exe *)

module T = Voip.Testbed

let sec = Dsim.Time.of_sec

let () =
  let tb = T.make ~seed:31337 ~vids:T.Monitor () in
  let engine = T.engine_exn tb in

  (* Baselines tap the same vantage point. *)
  let snort = Baseline.Snort_like.create Baseline.Snort_like.default_rules in
  let scidive = Baseline.Scidive_like.create tb.T.sched () in
  let scidive_alerts = ref [] in
  Dsim.Network.set_tap tb.T.vids_node
    (Some
       (fun packet ->
         Vids.Engine.process_packet engine packet;
         ignore (Baseline.Snort_like.process snort packet);
         scidive_alerts := Baseline.Scidive_like.process scidive packet @ !scidive_alerts));

  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  let ua_a n = List.nth tb.T.uas_a n and ua_b n = List.nth tb.T.uas_b n in

  (* Clean background call, then one of each attack. *)
  ignore
    (Dsim.Scheduler.schedule_at tb.T.sched (sec 1.0) (fun () ->
         Voip.Ua.call (ua_a 9) ~callee:(Voip.Ua.aor (ua_b 9)) ~duration:(sec 30.0)));
  Attack.Scenarios.spoofed_bye_call atk ~caller:(ua_a 0) ~callee:(ua_b 0) ~at:(sec 5.0);
  Attack.Scenarios.cancel_dos_call atk ~caller:(ua_a 1) ~callee:(ua_b 1) ~at:(sec 30.0);
  Attack.Scenarios.hijack_call atk ~caller:(ua_a 2) ~callee:(ua_b 2) ~at:(sec 50.0);
  Attack.Scenarios.media_spam_call atk ~caller:(ua_a 3) ~callee:(ua_b 3) ~at:(sec 70.0);
  Attack.Scenarios.billing_fraud_call atk ~caller:(ua_a 4) ~callee:(ua_b 4) ~at:(sec 90.0);
  Attack.Scenarios.invite_flood atk ~target:(Voip.Ua.aor (ua_b 5)) ~via_proxy:true ~count:30
    ~interval:(Dsim.Time.of_ms 50.0) ~at:(sec 110.0);
  Attack.Scenarios.rtp_flood atk
    ~target:(Dsim.Addr.v (T.ua_b_host tb 6) 16500)
    ~rate_pps:400 ~duration:(sec 2.0) ~at:(sec 115.0);
  Attack.Scenarios.drdos atk ~victim_host:(T.ua_b_host tb 7) ~reflectors:20 ~responses:60
    ~at:(sec 120.0);
  T.run_until tb (sec 200.0);

  print_endline "Attack detection report (paper §7.5)";
  print_endline "------------------------------------";
  List.iter (fun a -> Format.printf "%a@." Vids.Alert.pp a) (Vids.Engine.alerts engine);
  let c = Vids.Engine.counters engine in
  Format.printf
    "@.vIDS: %d distinct alerts (%d duplicate notifications suppressed), %d anomalies@."
    c.Vids.Engine.alerts_raised c.Vids.Engine.alerts_suppressed c.Vids.Engine.anomalies;
  Format.printf "Snort-like stateless baseline: %d alerts on the same traffic@."
    (Baseline.Snort_like.alerts_total snort);
  Format.printf "SCIDIVE-like stateful baseline: %d alerts (its rules cover BYE/CANCEL only)@."
    (Baseline.Scidive_like.alerts_total scidive);
  List.iter (fun a -> Format.printf "  scidive: %a@." Vids.Alert.pp a) !scidive_alerts
