(* Robustness: resource governance (caps, ageing sweep), fault containment
   (quarantine via the chaos self-test knob), graceful degradation, and the
   dsim fault-injection layer.  Everything here feeds attacker-shaped input
   and asserts the engine bends — evicts, sheds, quarantines — but never
   breaks. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let tc name f = Alcotest.test_case name `Quick f

let sec = Dsim.Time.of_sec
let alloc = Dsim.Packet.allocator ()
let sip_addr host = Dsim.Addr.v host 5060

let invite ?(to_user = "bob") ~call_id () =
  Printf.sprintf
    "INVITE sip:%s@b.example SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\n\
     From: <sip:alice@a.example>;tag=ta-%s\r\n\
     To: <sip:%s@b.example>\r\n\
     Call-ID: %s\r\n\
     CSeq: 1 INVITE\r\n\
     Contact: <sip:alice@10.1.0.10:5060>\r\n\
     \r\n"
    to_user call_id call_id to_user call_id

type rig = { sched : Dsim.Scheduler.t; engine : Vids.Engine.t }

let rig ?(config = Vids.Config.default) () =
  let sched = Dsim.Scheduler.create () in
  { sched; engine = Vids.Engine.create ~config sched }

let feed r ~src ~dst payload =
  Vids.Engine.process_packet r.engine
    (Dsim.Packet.make alloc ~src ~dst ~sent_at:(Dsim.Scheduler.now r.sched) payload)

let feed_invite ?to_user r ~call_id =
  feed r ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.2") (invite ?to_user ~call_id ())

let rtp_bytes =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:1 ~timestamp:0l ~ssrc:7l "x")

let feed_rtp r ~dst_port =
  feed r ~src:(Dsim.Addr.v "203.0.113.66" 16400) ~dst:(Dsim.Addr.v "10.2.0.10" dst_port) rtp_bytes

let pressure_alerts r = Vids.Engine.alerts_of_kind r.engine Vids.Alert.Resource_pressure
let fault_alerts r = Vids.Engine.alerts_of_kind r.engine Vids.Alert.Engine_fault

(* --- total create_call ----------------------------------------------- *)

let t_create_call_total () =
  let sched = Dsim.Scheduler.create () in
  let base =
    Vids.Fact_base.create ~config:Vids.Config.default
      ~timer_host:(Efsm.System.timer_host_of_scheduler sched)
      ~on_alert:(fun ~machine:_ ~state:_ ~subject:_ ~detail:_ -> ())
      ~on_anomaly:(fun ~machine:_ ~state:_ ~subject:_ ~event:_ ~detail:_ -> ())
      ()
  in
  let a = Vids.Fact_base.create_call base ~call_id:"dup" in
  let b = Vids.Fact_base.create_call base ~call_id:"dup" in
  check "same record returned" true (a == b);
  check_int "one call" 1 (Vids.Fact_base.stats base).Vids.Fact_base.active_calls

let t_duplicate_invite_via_engine () =
  let r = rig () in
  feed_invite r ~call_id:"same";
  feed_invite r ~call_id:"same";
  check_int "one record" 1 (Vids.Engine.memory_stats r.engine).Vids.Fact_base.active_calls

(* --- cap eviction ----------------------------------------------------- *)

(* A cap of 5 under 20 INVITEs, and the governed preset (10 000 calls)
   under 20 000 distinct Call-IDs.  The preset also degrades at 9 000
   calls, which raises the second pressure alert. *)
let t_call_cap_eviction () =
  List.iter
    (fun (config, n, pressure) ->
      let cap = config.Vids.Config.max_calls in
      let what label = Printf.sprintf "%s (cap %d, %d INVITEs)" label cap n in
      let r = rig ~config () in
      for i = 0 to n - 1 do
        feed_invite r ~call_id:(Printf.sprintf "cap-%d" i)
      done;
      let stats = Vids.Engine.memory_stats r.engine in
      check_int (what "active at cap") cap stats.Vids.Fact_base.active_calls;
      check_int (what "peak at cap") cap stats.Vids.Fact_base.peak_calls;
      check_int (what "evicted") (n - cap) stats.Vids.Fact_base.calls_evicted;
      let base = Vids.Engine.fact_base r.engine in
      check (what "oldest gone") true (Vids.Fact_base.find_call base "cap-0" = None);
      check (what "newest kept") true
        (Vids.Fact_base.find_call base (Printf.sprintf "cap-%d" (n - 1)) <> None);
      check (what "pressure alert raised") true (pressure_alerts r <> []);
      (* The alert log must not grow with the flood: dedup by kind|subject. *)
      check_int (what "pressure alerts") pressure (List.length (pressure_alerts r)))
    [
      ({ Vids.Config.default with Vids.Config.max_calls = 5 }, 20, 1);
      (Vids.Config.governed Vids.Config.default, 20_000, 2);
    ]

let t_detector_cap_eviction () =
  let config = { Vids.Config.default with Vids.Config.max_detectors = 3 } in
  let r = rig ~config () in
  (* Each RTP stream to a new destination grows a spam detector; even
     ports only, odd ports would classify as RTCP. *)
  for i = 0 to 9 do
    feed_rtp r ~dst_port:(20000 + (2 * i))
  done;
  let stats = Vids.Engine.memory_stats r.engine in
  check_int "detectors at cap" 3 stats.Vids.Fact_base.detectors;
  check_int "detectors evicted" 7 stats.Vids.Fact_base.detectors_evicted;
  check "pressure alert raised" true (pressure_alerts r <> []);
  (* The newest three streams survive, in creation order, as their
     snapshot lines name them. *)
  let snap = Vids.Snapshot.capture ~at:(Dsim.Scheduler.now r.sched) r.engine in
  let streams =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | "DET" :: "spam" :: key :: _ -> Result.to_option (Vids.Codec.unhex key)
        | _ -> None)
      (String.split_on_char '\n' (Vids.Snapshot.to_string snap))
  in
  Alcotest.(check (list string))
    "surviving streams"
    [ "10.2.0.10:20014"; "10.2.0.10:20016"; "10.2.0.10:20018" ]
    streams

(* --- scheduled sweep --------------------------------------------------- *)

let t_scheduled_sweep () =
  let config =
    { Vids.Config.default with
      Vids.Config.call_max_age = sec 10.0;
      Vids.Config.sweep_interval = sec 4.0
    }
  in
  let r = rig ~config () in
  (* An INVITE that never progresses: an abandoned setup parked in the
     fact base.  The sweep, not any lifecycle event, must reclaim it. *)
  feed_invite r ~call_id:"abandoned";
  check_int "recorded" 1 (Vids.Engine.memory_stats r.engine).Vids.Fact_base.active_calls;
  Dsim.Scheduler.run_until r.sched (sec 30.0);
  let stats = Vids.Engine.memory_stats r.engine in
  check_int "reclaimed" 0 stats.Vids.Fact_base.active_calls;
  check_int "swept counted" 1 stats.Vids.Fact_base.calls_swept;
  check "sweep pressure alert" true
    (List.exists (fun a -> a.Vids.Alert.subject = "sweep") (pressure_alerts r))

let t_sweep_disabled_by_default () =
  let r = rig () in
  feed_invite r ~call_id:"keep";
  Dsim.Scheduler.run_until r.sched (sec 3600.0);
  check_int "untouched" 1 (Vids.Engine.memory_stats r.engine).Vids.Fact_base.active_calls

(* --- fault containment (chaos self-test) ------------------------------- *)

let t_chaos_quarantine () =
  let config = { Vids.Config.default with Vids.Config.chaos_inject_every = 1 } in
  let r = rig ~config () in
  (* Every machine injection blows up inside the boundary; the packet loop
     must survive, count the faults, and quarantine the records. *)
  feed_invite r ~call_id:"boom-1";
  let c1 = Vids.Engine.counters r.engine in
  check "faults counted" true (c1.Vids.Engine.faults > 0);
  check "fault alert raised" true (fault_alerts r <> []);
  check_int "faulting call quarantined" 0
    (Vids.Engine.memory_stats r.engine).Vids.Fact_base.active_calls;
  (* The engine keeps processing after the fault. *)
  feed_invite r ~call_id:"boom-2";
  let c2 = Vids.Engine.counters r.engine in
  check "still counting sip" true (c2.Vids.Engine.sip_packets = 2);
  check "faults keep accumulating" true (c2.Vids.Engine.faults > c1.Vids.Engine.faults)

let t_chaos_spares_other_calls () =
  (* Fault on the 4th injection only: earlier calls' records survive a
     later call's quarantine. *)
  let config = { Vids.Config.default with Vids.Config.chaos_inject_every = 4 } in
  let r = rig ~config () in
  feed_invite r ~call_id:"ok-1";
  (* injections so far: flood detector (1) + call (2) *)
  feed_invite r ~call_id:"victim";
  (* flood detector (3) + call (4 = boom) *)
  let base = Vids.Engine.fact_base r.engine in
  check "earlier call intact" true (Vids.Fact_base.find_call base "ok-1" <> None);
  check "faulting call quarantined" true (Vids.Fact_base.find_call base "victim" = None);
  check_int "one fault" 1 (Vids.Engine.counters r.engine).Vids.Engine.faults

let t_listener_fault_contained () =
  let r = rig () in
  Vids.Engine.on_alert r.engine (fun _ -> failwith "bad listener");
  feed r ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.2") "NOT SIP AT ALL";
  let c = Vids.Engine.counters r.engine in
  check_int "alert kept" 1 c.Vids.Engine.alerts_raised;
  check_int "listener fault counted" 1 c.Vids.Engine.faults

(* --- graceful degradation ---------------------------------------------- *)

let t_degradation_sheds_rtp () =
  let config = { Vids.Config.default with Vids.Config.degrade_high_water = 3 } in
  let r = rig ~config () in
  for i = 0 to 3 do
    feed_invite r ~call_id:(Printf.sprintf "load-%d" i)
  done;
  check "degraded" true (Vids.Engine.degraded r.engine);
  check "degradation alert" true
    (List.exists (fun a -> a.Vids.Alert.subject = "engine") (pressure_alerts r));
  let detectors_before = (Vids.Engine.memory_stats r.engine).Vids.Fact_base.detectors in
  feed_rtp r ~dst_port:20000;
  let c = Vids.Engine.counters r.engine in
  check_int "rtp packet still counted" 1 c.Vids.Engine.rtp_packets;
  check_int "stream analysis shed" 1 c.Vids.Engine.rtp_shed;
  check_int "no new stream detector" detectors_before
    (Vids.Engine.memory_stats r.engine).Vids.Fact_base.detectors;
  (* SIP signaling checks stay live while degraded. *)
  let active = (Vids.Engine.memory_stats r.engine).Vids.Fact_base.active_calls in
  feed_invite r ~call_id:"still-analyzed";
  check_int "sip still tracked" (active + 1)
    (Vids.Engine.memory_stats r.engine).Vids.Fact_base.active_calls

let t_degradation_recovers () =
  let config = { Vids.Config.default with Vids.Config.degrade_high_water = 3 } in
  let r = rig ~config () in
  for i = 0 to 3 do
    feed_invite r ~call_id:(Printf.sprintf "load-%d" i)
  done;
  check "degraded under load" true (Vids.Engine.degraded r.engine);
  (* Drain the base below the low-water mark (3/4 of high = 2). *)
  let base = Vids.Engine.fact_base r.engine in
  for i = 0 to 3 do
    match Vids.Fact_base.find_call base (Printf.sprintf "load-%d" i) with
    | Some call -> Vids.Fact_base.quarantine_call base call
    | None -> ()
  done;
  (* Degradation state is re-evaluated on the next packet. *)
  feed r ~src:(Dsim.Addr.v "h" 53) ~dst:(Dsim.Addr.v "h2" 53) "dns?";
  check "recovered" false (Vids.Engine.degraded r.engine);
  match Vids.Engine.degraded_intervals r.engine with
  | [ (_, Some _) ] -> ()
  | intervals ->
      Alcotest.failf "expected one closed interval, got %d" (List.length intervals)

(* --- dsim fault injection ---------------------------------------------- *)

type net_rig = {
  net : Dsim.Network.t;
  nsched : Dsim.Scheduler.t;
  a : Dsim.Network.node;
  received : string list ref;
}

let net_rig ~seed =
  let nsched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create nsched (Dsim.Rng.create seed) in
  let a = Dsim.Network.add_node net ~name:"a" ~hosts:[ "a.host" ] in
  let b = Dsim.Network.add_node net ~name:"b" ~hosts:[ "b.host" ] in
  Dsim.Network.connect net a b ~rate_bps:1e7 ~prop_delay:(Dsim.Time.of_ms 1.0) ~loss_prob:0.0;
  let received = ref [] in
  Dsim.Network.set_handler b (fun p -> received := p.Dsim.Packet.payload :: !received);
  { net; nsched; a; received }

let blast r n =
  for i = 0 to n - 1 do
    let p =
      Dsim.Network.make_packet r.net
        ~src:(Dsim.Addr.v "a.host" 5060)
        ~dst:(Dsim.Addr.v "b.host" 5060)
        (Printf.sprintf "payload-%04d" i)
    in
    Dsim.Network.send r.net ~from:r.a p
  done;
  Dsim.Scheduler.run r.nsched

let t_fault_profile_corruption () =
  let r = net_rig ~seed:11 in
  Dsim.Network.set_fault_profile r.net
    (Some { Dsim.Network.pristine with Dsim.Network.corrupt_prob = 1.0 });
  blast r 50;
  let fs = Dsim.Network.fault_stats r.net in
  check_int "all corrupted" 50 fs.Dsim.Network.corrupted;
  check_int "all delivered" 50 (List.length !(r.received));
  check "payloads mangled" true
    (List.exists (fun p -> not (String.length p = 12 && String.sub p 0 8 = "payload-")) !(r.received))

let t_fault_profile_duplication_and_truncation () =
  let r = net_rig ~seed:12 in
  Dsim.Network.set_fault_profile r.net
    (Some
       { Dsim.Network.pristine with
         Dsim.Network.duplicate_prob = 1.0;
         Dsim.Network.truncate_prob = 1.0
       });
  blast r 30;
  let fs = Dsim.Network.fault_stats r.net in
  check_int "all truncated" 30 fs.Dsim.Network.truncated;
  check_int "all duplicated" 30 fs.Dsim.Network.duplicated;
  check_int "two copies each" 60 (List.length !(r.received));
  check "truncation shortens" true
    (List.for_all (fun p -> String.length p < 12) !(r.received))

let t_fault_profile_burst_loss () =
  let r = net_rig ~seed:13 in
  Dsim.Network.set_fault_profile r.net
    (Some
       { Dsim.Network.pristine with
         Dsim.Network.burst_loss_prob = 1.0;
         Dsim.Network.burst_length = 5
       });
  blast r 20;
  let fs = Dsim.Network.fault_stats r.net in
  check_int "everything burst-lost" 20 fs.Dsim.Network.burst_lost;
  check_int "nothing delivered" 0 (List.length !(r.received))

let t_fault_injection_deterministic () =
  let run seed =
    let r = net_rig ~seed in
    Dsim.Network.set_fault_profile r.net
      (Some
         { Dsim.Network.truncate_prob = 0.2;
           corrupt_prob = 0.2;
           duplicate_prob = 0.2;
           reorder_prob = 0.3;
           reorder_delay = Dsim.Time.of_ms 20.0;
           burst_loss_prob = 0.05;
           burst_length = 3
         });
    blast r 200;
    (Dsim.Network.fault_stats r.net, !(r.received))
  in
  let s1, p1 = run 99 and s2, p2 = run 99 in
  check "same stats" true (s1 = s2);
  check "same deliveries" true (p1 = p2);
  let s3, _ = run 100 in
  check "seed matters" true (s1 <> s3)

let suite =
  [
    ( "robustness.governance",
      [
        tc "create_call is total" t_create_call_total;
        tc "duplicate INVITE via engine" t_duplicate_invite_via_engine;
        tc "call cap evicts oldest" t_call_cap_eviction;
        tc "detector cap evicts oldest" t_detector_cap_eviction;
        tc "scheduled sweep reclaims abandoned calls" t_scheduled_sweep;
        tc "sweep disabled by default" t_sweep_disabled_by_default;
      ] );
    ( "robustness.containment",
      [
        tc "chaos fault quarantines and continues" t_chaos_quarantine;
        tc "quarantine spares other calls" t_chaos_spares_other_calls;
        tc "listener fault contained" t_listener_fault_contained;
      ] );
    ( "robustness.degradation",
      [
        tc "high water sheds stream analysis" t_degradation_sheds_rtp;
        tc "recovers below low water" t_degradation_recovers;
      ] );
    ( "robustness.faults",
      [
        tc "corruption" t_fault_profile_corruption;
        tc "duplication + truncation" t_fault_profile_duplication_and_truncation;
        tc "burst loss" t_fault_profile_burst_loss;
        tc "deterministic replay" t_fault_injection_deterministic;
      ] );
  ]
