(* Tests for the vIDS pipeline: classifier, fact base, engine — fed with
   synthetic wire packets. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let alloc = Dsim.Packet.allocator ()

let packet ?(at = 0) ~src ~dst payload = Dsim.Packet.make alloc ~src ~dst ~sent_at:at payload

let sip_addr host = Dsim.Addr.v host 5060

(* ------------------------------------------------------------------ *)
(* Classifier                                                          *)
(* ------------------------------------------------------------------ *)

let no_media _ = false

(* An SDP body from its origin, its session-level c= address, if any,
   and its m= blocks. *)
let sdp ~user ~origin ?session blocks =
  Printf.sprintf "v=0\r\no=%s 0 0 IN IP4 %s\r\ns=-\r\n%st=0 0\r\n%s" user origin
    (match session with Some host -> "c=IN IP4 " ^ host ^ "\r\n" | None -> "")
    (String.concat "" blocks)

(* An m=audio block with its own c= address, if any. *)
let audio ?c port =
  Printf.sprintf "m=audio %d RTP/AVP 18\r\n%s" port
    (match c with Some host -> "c=IN IP4 " ^ host ^ "\r\n" | None -> "")

let caller_sdp = sdp ~user:"alice" ~origin:"10.1.0.10" ~session:"10.1.0.10" [ audio 16384 ]
let callee_sdp = sdp ~user:"bob" ~origin:"10.2.0.10" ~session:"10.2.0.10" [ audio 20000 ]

let invite ~content_type body =
  "INVITE sip:bob@b.example SIP/2.0\r\n\
   Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKc1\r\n\
   From: <sip:alice@a.example>;tag=ta\r\n\
   To: <sip:bob@b.example>\r\n\
   Call-ID: c-1\r\n\
   CSeq: 1 INVITE\r\n\
   Contact: <sip:alice@10.1.0.10:5060>\r\n\
   Content-Type: " ^ content_type ^ "\r\n\r\n" ^ body

let invite_text = invite ~content_type:"application/sdp" caller_sdp

let classify_sip () =
  let p = packet ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text in
  match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Sip msg -> check "is invite" true (Sip.Msg.method_of msg = Some Sip.Msg_method.INVITE)
  | _ -> Alcotest.fail "expected SIP"

let classify_malformed_sip () =
  let p = packet ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") "NOT SIP AT ALL" in
  match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Malformed_sip _ -> ()
  | _ -> Alcotest.fail "expected malformed SIP"

let classify_rtp () =
  let rtp =
    Rtp.Rtp_packet.encode
      (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:5 ~timestamp:0l ~ssrc:9l "x")
  in
  let p = packet ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000) rtp in
  (match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Rtp size ->
      check_int "payload length" 1 size;
      check_int "seq" 5 (Rtp.Rtp_packet.sequence_of p.Dsim.Packet.payload)
  | _ -> Alcotest.fail "expected RTP (port range)");
  (* Outside the range but registered as media. *)
  let p2 = packet ~src:(Dsim.Addr.v "h" 999) ~dst:(Dsim.Addr.v "10.2.0.10" 40002) rtp in
  match Vids.Classifier.classify ~known_media:(fun _ -> true) p2 with
  | Vids.Classifier.Rtp _ -> ()
  | _ -> Alcotest.fail "expected RTP (registered)"

let classify_rtcp () =
  let rtcp = Rtp.Rtcp.encode (Rtp.Rtcp.Receiver_report { ssrc = 1l; blocks = [] }) in
  let p = packet ~src:(Dsim.Addr.v "h" 16385) ~dst:(Dsim.Addr.v "h2" 20001) rtcp in
  match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Rtcp _ -> ()
  | _ -> Alcotest.fail "expected RTCP"

let classify_other () =
  let p = packet ~src:(Dsim.Addr.v "h" 53) ~dst:(Dsim.Addr.v "h2" 53) "dns?" in
  match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Other -> ()
  | _ -> Alcotest.fail "expected Other"

let quick_protocol () =
  check "sip by dst" true
    (Vids.Classifier.quick_protocol (packet ~src:(Dsim.Addr.v "h" 9) ~dst:(sip_addr "h2") "")
    = `Sip);
  check "media" true
    (Vids.Classifier.quick_protocol
       (packet ~src:(Dsim.Addr.v "h" 9) ~dst:(Dsim.Addr.v "h2" 16500) "")
    = `Media);
  check "other" true
    (Vids.Classifier.quick_protocol
       (packet ~src:(Dsim.Addr.v "h" 9) ~dst:(Dsim.Addr.v "h2" 80) "")
    = `Other)

(* ------------------------------------------------------------------ *)
(* Engine pipeline                                                     *)
(* ------------------------------------------------------------------ *)

type pipeline = { sched : Dsim.Scheduler.t; engine : Vids.Engine.t }

let make_pipeline ?config () =
  let sched = Dsim.Scheduler.create () in
  { sched; engine = Vids.Engine.create ?config sched }

let feed p ~src ~dst payload =
  Vids.Engine.process_packet p.engine
    (packet ~at:(Dsim.Scheduler.now p.sched) ~src ~dst payload)

let response_text ?(code = 200) ?(cseq = "1 INVITE") ?(to_tag = "tb") ?(sdp = true)
    ?(content_type = "application/sdp") ?(body = callee_sdp) () =
  let body = if sdp then body else "" in
  Printf.sprintf
    "SIP/2.0 %d X\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKc1\r\nFrom: <sip:alice@a.example>;tag=ta\r\nTo: <sip:bob@b.example>;tag=%s\r\nCall-ID: c-1\r\nCSeq: %s\r\nContact: <sip:bob@10.2.0.10:5060>\r\n%sContent-Length: %d\r\n\r\n%s"
    code to_tag cseq
    (if sdp then "Content-Type: " ^ content_type ^ "\r\n" else "")
    (String.length body) body

let bye_text ?(src_tag = "ta") () =
  Printf.sprintf
    "BYE sip:bob@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKb9\r\nFrom: <sip:alice@a.example>;tag=%s\r\nTo: <sip:bob@b.example>;tag=tb\r\nCall-ID: c-1\r\nCSeq: 2 BYE\r\n\r\n"
    src_tag

let ack_text =
  "ACK sip:bob@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKa7\r\nFrom: <sip:alice@a.example>;tag=ta\r\nTo: <sip:bob@b.example>;tag=tb\r\nCall-ID: c-1\r\nCSeq: 1 ACK\r\n\r\n"

let rtp_bytes ?(ssrc = 77l) ~seq ~ts () =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:seq ~timestamp:(Int32.of_int ts) ~ssrc
       (String.make 20 'v'))

let run_call ?(content_type = "application/sdp") ?(caller = caller_sdp) ?(callee = callee_sdp) p =
  feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") (invite ~content_type caller);
  feed p ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2") (response_text ~code:180 ~sdp:false ());
  feed p ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2")
    (response_text ~content_type ~body:callee ());
  feed p ~src:(sip_addr "10.1.0.10") ~dst:(sip_addr "10.2.0.10") ack_text

let engine_tracks_call () =
  let p = make_pipeline () in
  run_call p;
  let stats = Vids.Engine.memory_stats p.engine in
  check_int "one call" 1 stats.Vids.Fact_base.active_calls;
  check_int "modeled 490 B" 490 stats.Vids.Fact_base.modeled_bytes;
  check "measured > 0" true (stats.Vids.Fact_base.measured_bytes > 0);
  let c = Vids.Engine.counters p.engine in
  check_int "four sip packets" 4 c.Vids.Engine.sip_packets;
  check_int "no alerts" 0 c.Vids.Engine.alerts_raised;
  check_int "no anomalies" 0 c.Vids.Engine.anomalies

let engine_routes_rtp_to_call () =
  let p = make_pipeline () in
  run_call p;
  (* Media both ways: to callee media (20000) and caller media (16384). *)
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:1 ~ts:160 ());
  feed p ~src:(Dsim.Addr.v "10.2.0.10" 20000) ~dst:(Dsim.Addr.v "10.1.0.10" 16384)
    (rtp_bytes ~ssrc:88l ~seq:1 ~ts:160 ());
  let c = Vids.Engine.counters p.engine in
  check_int "rtp seen" 2 c.Vids.Engine.rtp_packets;
  check_int "no alerts" 0 c.Vids.Engine.alerts_raised;
  (* The call's RTP machine is active now. *)
  let call = Option.get (Vids.Fact_base.find_call (Vids.Engine.fact_base p.engine) "c-1") in
  check_str "rtp active" "RTP_RCVD"
    (Efsm.Machine.state call.Vids.Fact_base.rtp)

(* A spoofed BYE (right tags, wrong network source) while the caller's
   RTP keeps flowing; the BYE DoS alerts it raises. *)
let spoofed_bye p =
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:1 ~ts:160 ());
  feed p ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") (bye_text ());
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 1.0);
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:30 ~ts:4800 ());
  Vids.Engine.alerts_of_kind p.engine Vids.Alert.Bye_dos

(* Media types are case-insensitive and may carry parameters (RFC 3261
   §20.15), so every spelling of the SDP type registers the call's media;
   so does an address given only by each m= block's own c= line (RFC 4566
   §5.7). *)
let engine_detects_bye_dos_end_to_end () =
  List.iter
    (fun (what, start) ->
      let p = make_pipeline () in
      start p;
      let alerts = spoofed_bye p in
      check_int ("bye dos alert, " ^ what) 1 (List.length alerts);
      check_str "subject is the call" "c-1" (List.hd alerts).Vids.Alert.subject)
    (List.map
       (fun content_type -> (content_type, fun p -> run_call ~content_type p))
       [ "application/sdp"; "Application/SDP"; "application/sdp;charset=utf-8" ]
    @ [
        ( "media-level c= only",
          fun p ->
            run_call p
              ~caller:(sdp ~user:"alice" ~origin:"10.1.0.10" [ audio ~c:"10.1.0.10" 16384 ])
              ~callee:(sdp ~user:"bob" ~origin:"10.2.0.10" [ audio ~c:"10.2.0.10" 20000 ]) );
      ])

let engine_clean_teardown_no_alert () =
  let p = make_pipeline () in
  run_call p;
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:1 ~ts:160 ());
  (* Genuine BYE from the caller's contact host. *)
  feed p ~src:(sip_addr "10.1.0.10") ~dst:(sip_addr "10.2.0.10") (bye_text ());
  feed p ~src:(sip_addr "10.2.0.10") ~dst:(sip_addr "10.1.0.10")
    (response_text ~code:200 ~cseq:"2 BYE" ~sdp:false ());
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 2.0);
  let c = Vids.Engine.counters p.engine in
  check_int "no alerts" 0 c.Vids.Engine.alerts_raised;
  (* Record reaped after the linger. *)
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 60.0);
  let stats = Vids.Engine.memory_stats p.engine in
  check_int "deleted" 0 stats.Vids.Fact_base.active_calls;
  check_int "created 1" 1 stats.Vids.Fact_base.calls_created;
  check_int "deleted 1" 1 stats.Vids.Fact_base.calls_deleted

let engine_malformed_sip_alert () =
  let p = make_pipeline () in
  feed p ~src:(sip_addr "203.0.113.1") ~dst:(sip_addr "10.2.0.2") "\x01\x02garbage";
  let c = Vids.Engine.counters p.engine in
  check_int "malformed counted" 1 c.Vids.Engine.malformed_packets;
  check_int "alert raised" 1
    (List.length (Vids.Engine.alerts_of_kind p.engine Vids.Alert.Spec_deviation))

(* A call's machines report as that call: a request its SIP machine
   rejects raises a deviation whose subject starts with the Call-ID. *)
let engine_anomaly_names_the_call () =
  let p = make_pipeline () in
  run_call p;
  feed p ~src:(sip_addr "10.1.0.10") ~dst:(sip_addr "10.2.0.10")
    "INFO sip:bob@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKi1\r\nFrom: <sip:alice@a.example>;tag=ta\r\nTo: <sip:bob@b.example>;tag=tb\r\nCall-ID: c-1\r\nCSeq: 2 INFO\r\n\r\n";
  check_int "one anomaly" 1 (Vids.Engine.counters p.engine).Vids.Engine.anomalies;
  match Vids.Engine.alerts_of_kind p.engine Vids.Alert.Spec_deviation with
  | [ a ] ->
      let subject = a.Vids.Alert.subject in
      check "subject names the call" true (String.starts_with ~prefix:"c-1/INFO@" subject)
  | alerts -> Alcotest.failf "%d deviations, expected 1" (List.length alerts)

let engine_orphan_request_warns () =
  let p = make_pipeline () in
  feed p ~src:(sip_addr "10.1.0.10") ~dst:(sip_addr "10.2.0.10") (bye_text ());
  let c = Vids.Engine.counters p.engine in
  check_int "orphan request" 1 c.Vids.Engine.orphan_requests

let engine_orphan_responses_feed_drdos () =
  let p = make_pipeline () in
  let n = Vids.Config.default.Vids.Config.drdos_threshold + 1 in
  for i = 1 to n do
    let text =
      Printf.sprintf
        "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP refl%d:5060;branch=z9hG4bKr%d\r\nFrom: <sip:v@x>;tag=1\r\nTo: <sip:v@x>;tag=2\r\nCall-ID: refl-%d\r\nCSeq: 1 OPTIONS\r\n\r\n"
        i i i
    in
    feed p ~src:(sip_addr (Printf.sprintf "refl%d" i)) ~dst:(sip_addr "10.2.0.10") text
  done;
  check_int "drdos alert" 1
    (List.length (Vids.Engine.alerts_of_kind p.engine Vids.Alert.Drdos));
  let c = Vids.Engine.counters p.engine in
  check_int "orphans counted" n c.Vids.Engine.orphan_responses

let engine_dedup () =
  let p = make_pipeline () in
  run_call p;
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:1 ~ts:160 ());
  feed p ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") (bye_text ());
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 1.0);
  for i = 0 to 9 do
    feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
      (rtp_bytes ~seq:(40 + i) ~ts:(6400 + (160 * i)) ())
  done;
  let c = Vids.Engine.counters p.engine in
  check_int "one distinct" 1 (List.length (Vids.Engine.alerts_of_kind p.engine Vids.Alert.Bye_dos));
  check "duplicates suppressed" true (c.Vids.Engine.alerts_suppressed >= 9)

let engine_listener () =
  let p = make_pipeline () in
  let heard = ref 0 in
  Vids.Engine.on_alert p.engine (fun _ -> incr heard);
  feed p ~src:(sip_addr "x") ~dst:(sip_addr "10.2.0.2") "junk";
  check_int "listener invoked" 1 !heard

let engine_cpu_accounting () =
  let p = make_pipeline () in
  run_call p;
  let expected = 4 * Vids.Config.default.Vids.Config.sip_cpu_cost in
  check_int "busy time" expected (Vids.Engine.cpu_busy p.engine)

let engine_transit_delay_queueing () =
  let p = make_pipeline () in
  let sip_packet = packet ~src:(sip_addr "a") ~dst:(sip_addr "b") "x" in
  let d1 = Vids.Engine.transit_delay p.engine sip_packet in
  let d2 = Vids.Engine.transit_delay p.engine sip_packet in
  let cfg = Vids.Config.default in
  check_int "first is pipeline latency" cfg.Vids.Config.sip_transit_delay d1;
  check_int "second queues behind cpu" (cfg.Vids.Config.sip_transit_delay + cfg.Vids.Config.sip_cpu_cost) d2;
  let other = packet ~src:(Dsim.Addr.v "a" 1) ~dst:(Dsim.Addr.v "b" 2) "x" in
  check_int "other free" 0 (Vids.Engine.transit_delay p.engine other)

let fact_base_sweep () =
  let calls p = (Vids.Engine.memory_stats p.engine).Vids.Fact_base.active_calls in
  let p = make_pipeline () in
  feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text;
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 3600.0);
  check_int "still there (never finished, no sweep)" 1 (calls p);
  (* A sweep every 600 s reclaims it once it is older than 1 800 s. *)
  let config =
    {
      Vids.Config.default with
      Vids.Config.sweep_interval = Dsim.Time.of_sec 600.0;
      call_max_age = Dsim.Time.of_sec 1800.0;
    }
  in
  let p = make_pipeline ~config () in
  feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text;
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 1800.0);
  check_int "not yet older than the limit" 1 (calls p);
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 2400.0);
  check_int "swept" 0 (calls p)

(* The same media addresses whether the SDP gives them at the session
   level, at both levels over a decoy session address (the media level
   wins, RFC 4566 §5.7), or after a stream declined with port 0 (RFC 3264
   §6). *)
let fact_base_media_index () =
  List.iter
    (fun (what, caller, callee) ->
      let p = make_pipeline () in
      run_call p ~caller ~callee;
      let base = Vids.Engine.fact_base p.engine in
      let known host port = Vids.Fact_base.known_media base (Dsim.Addr.v host port) in
      check ("caller media known, " ^ what) true (known "10.1.0.10" 16384);
      check ("callee media known, " ^ what) true (known "10.2.0.10" 20000);
      check "unknown" false (known "10.9.9.9" 1000);
      check "decoy session address" false (known "10.9.9.9" 20000);
      check "declined stream" false (known "10.2.0.10" 0);
      match Vids.Fact_base.call_for_media base (Dsim.Addr.v "10.2.0.10" 20000) with
      | call -> check_str "routes to call" "c-1" call.Vids.Fact_base.call_id
      | exception Not_found -> Alcotest.fail "media not indexed")
    [
      ("session level", caller_sdp, callee_sdp);
      ( "both levels",
        sdp ~user:"alice" ~origin:"10.1.0.10" ~session:"10.9.9.9" [ audio ~c:"10.1.0.10" 16384 ],
        sdp ~user:"bob" ~origin:"10.2.0.10" ~session:"10.9.9.9" [ audio ~c:"10.2.0.10" 20000 ] );
      ( "declined first stream",
        sdp ~user:"alice" ~origin:"10.1.0.10" ~session:"10.1.0.10" [ audio 0; audio 16384 ],
        sdp ~user:"bob" ~origin:"10.2.0.10" ~session:"10.2.0.10" [ audio 0; audio 20000 ] );
    ]

let memory_scales_linearly () =
  let p = make_pipeline () in
  let per_call =
    Vids.Config.default.Vids.Config.sip_state_bytes
    + Vids.Config.default.Vids.Config.rtp_state_bytes
  in
  for i = 1 to 100 do
    let text =
      Printf.sprintf
        "INVITE sip:u%d@b.example SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKm%d\r\nFrom: <sip:a@a.example>;tag=t%d\r\nTo: <sip:u%d@b.example>\r\nCall-ID: scale-%d\r\nCSeq: 1 INVITE\r\n\r\n"
        i i i i i
    in
    feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") text
  done;
  let stats = Vids.Engine.memory_stats p.engine in
  check_int "100 calls" 100 stats.Vids.Fact_base.active_calls;
  check_int "linear model" (100 * per_call) stats.Vids.Fact_base.modeled_bytes

(* Every record of one base runs on the same spec objects, however it was
   created: a record owns only its machines' state, variables, history
   and timers. *)
let fact_base_shares_specs () =
  let base = Vids.Engine.fact_base (make_pipeline ()).engine in
  let module F = Vids.Fact_base in
  let same m1 m2 = Efsm.Machine.spec m1 == Efsm.Machine.spec m2 in
  let a = F.create_call base ~call_id:"share-a" in
  let b = F.create_call base ~call_id:"share-b" in
  let c = F.restore_call base ~call_id:"share-c" ~created_at:Dsim.Time.zero in
  check "sip spec shared" true (same a.F.sip b.F.sip && same a.F.sip c.F.sip);
  check "rtp spec shared" true (same a.F.rtp b.F.rtp && same a.F.rtp c.F.rtp);
  let shared kind (k1, k2) k3 =
    let d1 = F.detector base kind k1 and d2 = F.detector base kind k2 in
    let d3 =
      F.restore_detector base (F.kind_of kind) ~key:k3 ~created_at:Dsim.Time.zero
        ~touched:Dsim.Time.zero
    in
    check
      (F.kind_label (F.kind_of kind) ^ " spec shared")
      true
      (same d1.F.d_machine d2.F.d_machine && same d1.F.d_machine d3.F.d_machine)
  in
  shared F.Dst ("k1", "k2") "k3";
  shared F.Stream (Dsim.Addr.v "10.0.0.1" 16384, Dsim.Addr.v "10.0.0.2" 16384) "10.0.0.3:16384";
  shared F.Victim ("k1", "k2") "k3"

let flood_invite ?(user = "bob") ?(host = "b.example") i =
  Printf.sprintf
    "INVITE sip:%s@%s SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKf%d\r\nFrom: <sip:a@a.example>;tag=f%d\r\nTo: <sip:%s@%s>\r\nCall-ID: flood-%d\r\nCSeq: 1 INVITE\r\n\r\n"
    user host i i user host i

(* A user may hold ';' and '?' (RFC 3261 user-unreserved), so a URI's
   user ends at its first '@', and its parameters and headers come after
   the host.  Cut at the first ';' before the '@' was looked for,
   [sip:bob;x@b.example] read as host [bob] with a parameter [x@b.example],
   and the flood key of an INVITE to it was [@bob]. *)
let uri_user_holds_separators () =
  let uri text =
    let u = ok (Sip.Uri.parse text) in
    (u.Sip.Uri.user, u.Sip.Uri.host, u.Sip.Uri.port, u.Sip.Uri.params, u.Sip.Uri.headers)
  in
  let parts = Alcotest.(pair (option string) (pair string (option int))) in
  let rest = Alcotest.(pair (list (pair string (option string))) (option string)) in
  List.iter
    (fun (text, (user, host, port, params, headers)) ->
      let user', host', port', params', headers' = uri text in
      Alcotest.check parts
        (text ^ ": user, host, port")
        (user, (host, port))
        (user', (host', port'));
      Alcotest.check rest (text ^ ": params, headers") (params, headers) (params', headers'))
    [
      ("sip:bob;x@b.example", (Some "bob;x", "b.example", None, [], None));
      ("sip:bob?x@b.example", (Some "bob?x", "b.example", None, [], None));
      ( "sip:a;b?c@h.example:5070;lr;transport=udp?subject=x",
        ( Some "a;b?c",
          "h.example",
          Some 5070,
          [ ("lr", None); ("transport", Some "udp") ],
          Some "subject=x" ) );
      ("sip:h.example;lr?subject=x", (None, "h.example", None, [ ("lr", None) ], Some "subject=x"));
    ];
  List.iter
    (fun (user, key) ->
      let msg = ok (Sip.Msg.parse (flood_invite ~user 0)) in
      Alcotest.(check (option string))
        ("flood key of " ^ user) (Some key) (Vids.Sip_event.flood_key msg))
    [ ("bob;x", "bob;x@b.example"); ("bob?x=1", "bob?x=1@b.example"); ("b;%6Fb", "b;ob@b.example") ]

(* Specs are shared within an engine, never across engines: two engines
   tuned differently, fed the same INVITE burst side by side, disagree. *)
let thresholds_stay_per_engine () =
  let engine threshold =
    make_pipeline ~config:{ Vids.Config.default with Vids.Config.invite_flood_threshold = threshold } ()
  in
  let strict = engine 5 and lax = engine 1000 in
  for i = 1 to 20 do
    List.iter
      (fun p -> feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") (flood_invite i))
      [ strict; lax ]
  done;
  let flooded p =
    List.exists
      (fun (a : Vids.Alert.t) -> a.Vids.Alert.kind = Vids.Alert.Invite_flood)
      (Vids.Engine.alerts p.engine)
  in
  check "strict engine alerts" true (flooded strict);
  check "lax engine stays quiet" false (flooded lax)

(* Hosts compare case-insensitively and an escaped unreserved character
   of the user is the character itself (RFC 3261 §19.1.4): forty INVITEs
   to one callee in 0.4 s are one flood however the request-URI is
   spelled.  Keyed on the URI as sent, a new host spelling per INVITE
   raised no alert, two alternating host spellings raised two, and a new
   spelling per INVITE with the user escaped raised none.  An escaped
   reserved character is not the raw one: [bob%40x] and [bob@x] (whose
   host reads [x@b.example]) stay two callees. *)
let flood_key_ignores_host_case () =
  (* Spelling [i] of "b.example": letter [k] uppercase when bit [k] of [i]
     is set. *)
  let spelling i =
    let s =
      String.mapi
        (fun k c -> if i land (1 lsl k) <> 0 then Char.uppercase_ascii c else c)
        "bexample"
    in
    String.sub s 0 1 ^ "." ^ String.sub s 1 7
  in
  (* The twelve spellings of "bob": each 'b' raw or %62, the 'o' raw,
     %6F or %6f. *)
  let escaped i =
    let b k = if i land (1 lsl k) <> 0 then "%62" else "b" in
    b 0 ^ [| "o"; "%6F"; "%6f" |].(i / 4 mod 3) ^ b 1
  in
  List.iter
    (fun (what, uri, alerts) ->
      let p = make_pipeline () in
      for i = 0 to 39 do
        Dsim.Scheduler.run_until p.sched (Dsim.Time.of_ms (10. *. float i));
        let user, host = uri i in
        feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") (flood_invite ~user ~host i)
      done;
      check_int what alerts
        (List.length (Vids.Engine.alerts_of_kind p.engine Vids.Alert.Invite_flood)))
    [
      ("one spelling", (fun _ -> ("bob", "b.example")), 1);
      ("a new host spelling per INVITE", (fun i -> ("bob", spelling i)), 1);
      ("two alternating host spellings", (fun i -> ("bob", spelling (i mod 2))), 1);
      ( "a new spelling per INVITE, the user escaped",
        (fun i -> (escaped (i mod 12), spelling i)),
        1 );
      ( "%40 and a raw '@' alternating",
        (fun i -> if i mod 2 = 0 then ("bob%40x", "b.example") else ("bob", "x@b.example")),
        2 );
    ];
  List.iter
    (fun (user, key) ->
      let msg = ok (Sip.Msg.parse (flood_invite ~user 0)) in
      Alcotest.(check (option string))
        ("flood key of " ^ user) (Some key) (Vids.Sip_event.flood_key msg))
    [
      ("%62%6fb", "bob@b.example");
      ("b%6Fb", "bob@b.example");
      ("bob%40x", "bob%40x@b.example");
      ("bob%3bx", "bob%3Bx@b.example");
      ("bob%3B%7e", "bob%3B~@b.example");
      ("bob%4", "bob%4@b.example");
      ("bob%zz%", "bob%zz%@b.example");
    ]

let held_call_texts i =
  let call_id = Printf.sprintf "held-%d" i and port = 16384 + (2 * (i mod 4096)) in
  (* A callee per call, so the INVITE-flood detector stays quiet. *)
  let head first cseq to_tag =
    Printf.sprintf
      "%s\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKh%d\r\nFrom: <sip:alice@a.example>;tag=ta%d\r\nTo: <sip:bob%d@b.example>%s\r\nCall-ID: %s\r\nCSeq: %s\r\n"
      first i i i to_tag call_id cseq
  in
  let sdp host =
    let body =
      Printf.sprintf "v=0\r\no=x 0 0 IN IP4 %s\r\ns=-\r\nc=IN IP4 %s\r\nt=0 0\r\nm=audio %d RTP/AVP 18\r\n"
        host host port
    in
    Printf.sprintf "Content-Type: application/sdp\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let tb = Printf.sprintf ";tag=tb%d" i in
  [
    (true, head (Printf.sprintf "INVITE sip:bob%d@b.example SIP/2.0" i) "1 INVITE" "" ^ sdp "10.1.0.10");
    (false, head "SIP/2.0 180 Ringing" "1 INVITE" tb ^ "\r\n");
    (false, head "SIP/2.0 200 OK" "1 INVITE" tb ^ sdp "10.2.0.10");
    (true, head (Printf.sprintf "ACK sip:bob%d@10.2.0.10 SIP/2.0" i) "1 ACK" tb ^ "\r\n");
  ]

let hold_calls p n =
  for i = 1 to n do
    List.iter
      (fun (from_caller, text) ->
        let a = sip_addr "10.1.0.2" and b = sip_addr "10.2.0.2" in
        if from_caller then feed p ~src:a ~dst:b text else feed p ~src:b ~dst:a text)
      (held_call_texts i)
  done

(* The paper's §7.3 claim is ≈490 B of state per call.  Holding 1 000
   established calls open must stay within 2 200 B of live heap per call.
   Building each record its own copy of the specs cost ≈55 KB; giving each
   call's and detector's system closures and a [Queue] of its own, and
   interning Call-IDs beside the call table, ≈2 374 B. *)
let open_call_footprint () =
  let n = 1000 in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let p = make_pipeline () in
  hold_calls p n;
  Gc.full_major ();
  let per_call = 8 * ((Gc.stat ()).Gc.live_words - live0) / n in
  check_int "calls held" n (Vids.Engine.memory_stats p.engine).Vids.Fact_base.active_calls;
  check_int "no alerts" 0 (List.length (Vids.Engine.alerts p.engine));
  if per_call > 2200 then Alcotest.failf "%d B live per open call, limit 2200" per_call

(* A media call steps three machines on every packet: its RTP machine and
   a spam detector per direction.  Holding 200 calls after 300 in-order
   RTP packets each way must stay within 6 000 B of live heap per call.
   Keeping each machine's last 32–64 transitions as a list of
   [(time, label)] tuples, 48 B an entry, cost ≈10 200 B; closures and a
   [Queue] in every system, ≈6 241 B. *)
let media_call_footprint () =
  let n = 200 and packets = 300 in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let p = make_pipeline () in
  hold_calls p n;
  (* [held_call_texts] gives both ends of call [i] this media port. *)
  let port i = 16384 + (2 * (i mod 4096)) in
  let start = Dsim.Scheduler.now p.sched in
  for k = 0 to packets - 1 do
    Dsim.Scheduler.run_until p.sched (Dsim.Time.add start (Dsim.Time.of_ms (20. *. float k)));
    let rtp = rtp_bytes ~seq:(k + 1) ~ts:(160 * (k + 1)) () in
    for i = 1 to n do
      let caller = Dsim.Addr.v "10.1.0.10" (port i) and callee = Dsim.Addr.v "10.2.0.10" (port i) in
      feed p ~src:caller ~dst:callee rtp;
      feed p ~src:callee ~dst:caller rtp
    done
  done;
  Gc.full_major ();
  let per_call = 8 * ((Gc.stat ()).Gc.live_words - live0) / n in
  let stats = Vids.Engine.memory_stats p.engine in
  check_int "calls held" n stats.Vids.Fact_base.active_calls;
  (* A flood detector per callee, a spam detector per direction. *)
  check_int "detectors" (3 * n) stats.Vids.Fact_base.detectors;
  check_int "rtp seen" (2 * n * packets) (Vids.Engine.counters p.engine).Vids.Engine.rtp_packets;
  check_int "no alerts" 0 (List.length (Vids.Engine.alerts p.engine));
  if per_call > 6000 then Alcotest.failf "%d B live per media call, limit 6000" per_call

(* No address is formatted, no name is resolved and no history entry is
   allocated on the per-packet path: 2 000 RTP packets of an established
   call, each through the spam detector and the call's RTP machine,
   allocate at most 390 B apiece (360 measured).  Formatting the
   media-index key, the stream key and both containment subjects through
   [Format] cost ≈12 KB; an event as a list of named arguments, stepped by
   searching the spec's transitions, ≈2.4 KB; a history entry per step as
   a cons and a tuple, ≈1 280 B; a (system, machine) pair per detector
   lookup, ≈1 146 B.  Before the header was read where it lies, the same
   packets cost 976 B: a [host:port] string per packet as the spam
   detector's key, a decoded packet with two boxed [int32]s and a copy of
   its payload, two span closures in the classifier and the fact base's
   [known_media] closure per packet, a containment closure per
   injection, and an option per detector, call and machine lookup. *)
let rtp_packet_allocation () =
  let p = make_pipeline () in
  run_call p;
  let src = Dsim.Addr.v "10.1.0.10" 16384 and dst = Dsim.Addr.v "10.2.0.10" 20000 in
  let n = 2000 in
  let start = Dsim.Scheduler.now p.sched in
  (* [Gc.minor_words] is exact and allocates nothing; OCaml 5.1's
     [Gc.allocated_bytes] lags between minor collections.  The first
     round, which creates the stream's spam detector, is not measured. *)
  let round r =
    let words = ref 0. in
    for i = 1 to n do
      let seq = (r * n) + i in
      let pkt = packet ~src ~dst (rtp_bytes ~seq ~ts:(160 * seq) ()) in
      Dsim.Scheduler.run_until p.sched
        (Dsim.Time.add start (Dsim.Time.of_ms (20. *. float_of_int (seq - 1))));
      let w0 = Gc.minor_words () in
      Vids.Engine.process_packet p.engine pkt;
      words := !words +. (Gc.minor_words () -. w0)
    done;
    !words
  in
  ignore (round 0);
  let words = round 1 in
  check_int "rtp seen" (2 * n) (Vids.Engine.counters p.engine).Vids.Engine.rtp_packets;
  check_int "no alerts" 0 (List.length (Vids.Engine.alerts p.engine));
  let per_packet = 8. *. words /. float_of_int n in
  if per_packet > 390. then Alcotest.failf "%.0f B allocated per RTP packet, limit 390" per_packet

(* Words allocated so far, blocks too large for the minor heap included:
   [Gc.minor_words], plus the major words that were not promoted.  OCaml
   5.1 adds a block allocated in the major heap to [major_words] only at a
   later major slice, so a reading can count words from before it: a first
   measured loop of small blocks once read 44 418 major words with no
   minor collection and no promotion, and the next three runs of it none.
   A full major cycle first brings the count up to date.  Only the tests
   that allocate large blocks by design read it; the others read
   [Gc.minor_words] alone, which is exact and allocates nothing (OCaml
   5.1's [Gc.allocated_bytes] lags between minor collections). *)
let allocated_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* [f ()] and the words it allocates by [words], on its second run: the
   first, unmeasured, fills whatever a run fills once. *)
let second_run words f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = words () in
  let r = f () in
  (r, words () -. w0)

(* A folded line is joined in one buffer, so a message folded 20 000 times
   (100 KB) allocates at most 16 B per byte.  Joining each continuation
   with [^] copied the line once per fold, ≈1 GB, which made a single
   datagram cost a tenth of a second. *)
let folded_message_allocation () =
  let folds = String.concat "" (List.init 20_000 (fun i -> Printf.sprintf "\r\n x%d" (i mod 10))) in
  let text = "OPTIONS sip:b@y SIP/2.0\r\nSubject: a" ^ folds ^ "\r\n\r\n" in
  let m, words = second_run allocated_words (fun () -> ok (Sip.Msg.parse text)) in
  let per_byte = 8. *. words /. float_of_int (String.length text) in
  check_int "one field" 1 (List.length (Sip.Header.to_list m.Sip.Msg.headers));
  if per_byte > 16. then
    Alcotest.failf "parsing allocated %.0f B per byte of %d, limit 16" per_byte (String.length text)

(* The engine's SIP path, from payload to event, copies only what the
   event keeps: [Classifier.read] indexes the payload without allocating,
   and [Sip_event.of_index] builds the event from the spans.  An INVITE
   with SDP costs at most 1 320 B (1 208 measured) and an ACK at most
   610 B (560).  Parsing each message into a header list and building the
   event from that (the path before the index) cost 2 472 and 1 496 B. *)
let sip_path_allocation () =
  let src = sip_addr "10.1.0.2" and dst = sip_addr "10.2.0.2" in
  let index = Sip.Index.create () in
  List.iter
    (fun (name, text, limit) ->
      let p = packet ~src ~dst text in
      let n = 100 in
      let (), words =
        second_run Gc.minor_words (fun () ->
            for _ = 1 to n do
              match Vids.Classifier.read index ~known_media:no_media p with
              | Vids.Classifier.Sip () ->
                  ignore (Sys.opaque_identity (Vids.Sip_event.of_index ~at:0 ~src ~dst index))
              | _ -> Alcotest.fail "expected SIP"
            done)
      in
      let per_message = 8. *. words /. float_of_int n in
      if per_message > limit then
        Alcotest.failf "%s: %.0f B allocated per message, limit %.0f" name per_message limit)
    [ ("INVITE with SDP", invite_text, 1320.); ("ACK", ack_text, 610.) ]

(* A checkpoint of 1 000 held calls is ≈870 KB of text.  Encoding it
   must allocate at most 16 B per output byte (one Printf per hex byte
   cost ≈154).  [save], which streams the body through one chunk instead
   of going through [to_string], must allocate at most 1 B per byte
   (growing one buffer to the whole body and copying it out, with a
   string per integer, cost ≈4) and write exactly its bytes. *)
let snapshot_encoding_cost () =
  let p = make_pipeline () in
  hold_calls p 1000;
  let snap = Vids.Snapshot.capture ~seq:1 ~at:(Dsim.Scheduler.now p.sched) p.engine in
  let text, words = second_run allocated_words (fun () -> Vids.Snapshot.to_string snap) in
  let per_byte = 8. *. words /. float_of_int (String.length text) in
  if per_byte > 16. then
    Alcotest.failf "to_string allocated %.1f B per byte of %d, limit 16" per_byte
      (String.length text);
  let path = Filename.temp_file "vids-snapshot" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ path; Vids.Snapshot.previous_path path ])
    (fun () ->
      let (), words = second_run allocated_words (fun () -> Vids.Snapshot.save ~path snap) in
      let per_byte = 8. *. words /. float_of_int (String.length text) in
      if per_byte > 1. then
        Alcotest.failf "save allocated %.2f B per byte of %d, limit 1" per_byte
          (String.length text);
      check "save writes the bytes of to_string" true
        (String.equal text (In_channel.with_open_bin path In_channel.input_all)))

(* A dialog of each of churn's shapes, spelled as the suite's workload
   spells them: a call set up with SDP offer and answer and hung up
   (INVITE, 100, 180, 200, ACK, BYE, 200), and one cancelled while ringing
   (INVITE, 100, 180, CANCEL, 200, 487, ACK).  Churn completes two calls
   for each one it cancels. *)
let churn_dialogs =
  let sdp host port =
    Printf.sprintf
      "v=0\r\no=a001 2890844526 2890844526 IN IP4 %s\r\ns=call\r\nc=IN IP4 %s\r\nt=0 0\r\n\
       m=audio %d RTP/AVP 18\r\na=rtpmap:18 G729/8000\r\na=ptime:20\r\n"
      host host port
  in
  let message start ?(branch = "z9hG4bK1f2e3d4c") ?(to_tag = true) ?(extra = "") body =
    Printf.sprintf
      "%s\r\nVia: SIP/2.0/UDP 172.16.0.1:5060;branch=%s\r\nMax-Forwards: 69\r\n\
       From: <sip:a001@corp-a.example>;tag=8c9d0e1f\r\nTo: <sip:b002@corp-b.example>%s\r\n\
       Call-ID: bg-0a1b2c3d-4e5f6a7b@corp-a.example\r\n%s%s\r\n\r\n%s"
      start branch
      (if to_tag then ";tag=2a3b4c5d" else "")
      extra
      (if body = "" then "Content-Length: 0"
       else
         Printf.sprintf "Content-Type: application/sdp\r\nContent-Length: %d"
           (String.length body))
      body
  in
  let contact user host = Printf.sprintf "Contact: <sip:%s@%s:5060>\r\n" user host in
  let invite =
    message "INVITE sip:b002@corp-b.example SIP/2.0" ~to_tag:false
      ~extra:("CSeq: 1 INVITE\r\n" ^ contact "a001" "172.20.1.10")
      (sdp "172.20.1.10" 16384)
  in
  let response ?(to_tag = true) ?(cseq = "1 INVITE") ?(extra = "") ?(body = "") code =
    message ("SIP/2.0 " ^ code) ~to_tag ~extra:(Printf.sprintf "CSeq: %s\r\n%s" cseq extra) body
  in
  let in_dialog meth cseq branch =
    message
      (meth ^ " sip:b002@172.21.1.12:5060 SIP/2.0")
      ~branch ~extra:(Printf.sprintf "CSeq: %d %s\r\n" cseq meth) ""
  in
  let setup = [ invite; response ~to_tag:false "100 Trying"; response "180 Ringing" ] in
  let completed =
    setup
    @ [
        response "200 OK" ~extra:(contact "b002" "172.21.1.12") ~body:(sdp "172.21.1.12" 16384);
        in_dialog "ACK" 1 "z9hG4bKA4c3b2a1f";
        in_dialog "BYE" 2 "z9hG4bKB4c3b2a1f";
        response "200 OK" ~cseq:"2 BYE";
      ]
  in
  let cancelled =
    setup
    @ [
        message "CANCEL sip:b002@corp-b.example SIP/2.0" ~to_tag:false
          ~extra:"CSeq: 1 CANCEL\r\n" "";
        response "200 OK" ~cseq:"1 CANCEL";
        response "487 Request Terminated";
        message "ACK sip:b002@corp-b.example SIP/2.0" ~extra:"CSeq: 1 ACK\r\n" "";
      ]
  in
  completed @ completed @ cancelled

(* [Sip_event.of_msg] copies only the strings its event keeps: over
   churn-shaped messages it allocates at most 990 B per message (906
   measured, 870 before [of_msg] shared its lookup with the index path).
   Parsing From, To and Contact into name-addrs with their URIs and the
   top Via into a record, only to read two tags, a host and a branch, cost
   ≈1 770 B. *)
let of_msg_allocation () =
  let src = sip_addr "172.16.0.1" and dst = sip_addr "172.16.0.2" in
  let msgs = List.map (fun text -> ok (Sip.Msg.parse text)) churn_dialogs in
  let event m = Vids.Sip_event.of_msg ~at:0 ~src ~dst m in
  List.iter
    (fun m ->
      let e = event m in
      check "branch found" true (Efsm.Event.get e Vids.Keys.Field.branch <> Efsm.Value.Unset);
      check "from tag found" true (Efsm.Event.get e Vids.Keys.Field.from_tag <> Efsm.Value.Unset))
    msgs;
  let n = 100 in
  let (), words =
    second_run Gc.minor_words (fun () ->
        for _ = 1 to n do
          List.iter (fun m -> ignore (Sys.opaque_identity (event m))) msgs
        done)
  in
  let per_message = 8. *. words /. float_of_int (n * List.length msgs) in
  if per_message > 990. then
    Alcotest.failf "of_msg allocated %.0f B per message, limit 990" per_message

(* [Pcap.next] copies each record's UDP payload and little else: reading
   1 000 SIP records allocates at most 96 B per record beyond the payload
   string (the record, its item and option), and the records of one
   stream share one address.  Copying each frame before its payload and
   formatting both dotted-quad hosts into new addresses cost ≈620 B. *)
let pcap_read_allocation () =
  let src = Dsim.Addr.v "172.16.0.1" 5060 and dst = Dsim.Addr.v "172.16.0.2" 5060 in
  let n = 1000 in
  let records =
    List.init ((2 * n) + 1) (fun i ->
        { Vids.Trace.at = Dsim.Time.of_ms (float_of_int i); src; dst; payload = invite_text })
  in
  let path = Filename.temp_file "vids-read" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vids.Pcap.write_file path records;
      In_channel.with_open_bin path (fun ic ->
          let r = match Vids.Pcap.of_channel ic with Ok r -> r | Error e -> Alcotest.fail e in
          let read () =
            match Vids.Pcap.next r with
            | Some (Vids.Pcap.Record record) -> record
            | _ -> Alcotest.fail "expected a record"
          in
          (* The first record sizes the frame buffer and fills the cache. *)
          let first = read () in
          let last, words =
            second_run Gc.minor_words (fun () ->
                let last = ref first in
                for _ = 1 to n do
                  last := read ()
                done;
                !last)
          in
          let payload_bytes = 8 * Obj.reachable_words (Obj.repr invite_text) in
          let per_record = (8. *. words /. float_of_int n) -. float_of_int payload_bytes in
          if per_record > 96. then
            Alcotest.failf "Pcap.next allocated %.0f B per record beyond the payload, limit 96"
              per_record;
          check "payload copied" true (String.equal last.Vids.Trace.payload invite_text);
          check "stream shares its source" true (last.Vids.Trace.src == first.Vids.Trace.src);
          check "stream shares its destination" true
            (last.Vids.Trace.dst == first.Vids.Trace.dst);
          check_str "source host" "172.16.0.1" (Dsim.Addr.host last.Vids.Trace.src);
          check_int "destination port" 5060 (Dsim.Addr.port last.Vids.Trace.dst)))

(* Call-IDs sharing a long prefix, as an attacker's generated ones do,
   are distinct calls, each found by its own Call-ID. *)
let long_shared_prefix () =
  let base = Vids.Engine.fact_base (make_pipeline ()).engine in
  let module F = Vids.Fact_base in
  let call_id i = String.make 200 'x' ^ string_of_int i in
  let calls = List.init 64 (fun i -> F.create_call base ~call_id:(call_id i)) in
  check_int "64 records" 64 (F.stats base).F.active_calls;
  check_int "64 serials" 64
    (List.length (List.sort_uniq compare (List.map (fun c -> c.F.serial) calls)));
  List.iteri
    (fun i call ->
      match F.find_call base (call_id i) with
      | Some found -> check "found by its own Call-ID" true (found == call)
      | None -> Alcotest.failf "call %d not found" i)
    calls

(* The creation-order queue names a call by Call-ID and serial, so a
   deleted call's machines are garbage at once, not at the queue's next
   compaction: 500 calls created and deleted beside 1 000 held ones leave
   at most 128 B each.  Queueing the records themselves kept ≈566 B each
   until the compaction. *)
let deleted_calls_keep_no_state () =
  let base = Vids.Engine.fact_base (make_pipeline ()).engine in
  let module F = Vids.Fact_base in
  for i = 1 to 1000 do
    ignore (F.create_call base ~call_id:(Printf.sprintf "held-%d" i))
  done;
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let n = 500 in
  for i = 1 to n do
    F.quarantine_call base (F.create_call base ~call_id:(Printf.sprintf "gone-%d" i))
  done;
  Gc.full_major ();
  let per_deleted = 8 * ((Gc.stat ()).Gc.live_words - live0) / n in
  check_int "held calls" 1000 (F.stats base).F.active_calls;
  if per_deleted > 128 then
    Alcotest.failf "%d B live per deleted call, limit 128" per_deleted

(* A SIP message costs one call-table lookup, which allocates at most
   its [Some] (16 B).  Interning the Call-ID first, with FNV-1a over a
   boxed [Int64] per byte, cost ≈920 B for a 35-byte Call-ID. *)
let call_lookup_allocation () =
  let base = Vids.Engine.fact_base (make_pipeline ()).engine in
  let call_id = "a84b4c76e66710@pc33.atlanta.example" in
  for i = 1 to 1000 do
    ignore (Vids.Fact_base.create_call base ~call_id:(Printf.sprintf "other-%d" i))
  done;
  let held = Vids.Fact_base.create_call base ~call_id in
  (* A copy, as a parsed message carries: no physical-equality shortcut. *)
  let probe = Bytes.to_string (Bytes.of_string call_id) in
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Vids.Fact_base.find_call base probe))
  done;
  let per_lookup = 8. *. (Gc.minor_words () -. w0) /. float_of_int n in
  (match Vids.Fact_base.find_call base probe with
  | Some call -> check "finds the held call" true (call == held)
  | None -> Alcotest.fail "held call not found");
  if per_lookup > 16. then
    Alcotest.failf "%.0f B allocated per call lookup, limit 16" per_lookup

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let snort_stateless_misses_bye_dos () =
  let snort = Baseline.Snort_like.create Baseline.Snort_like.default_rules in
  (* The exact packets of the BYE DoS scenario trigger nothing. *)
  let packets =
    [
      packet ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text;
      packet ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2") (response_text ());
      packet ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") (bye_text ());
      packet ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
        (rtp_bytes ~seq:30 ~ts:4800 ());
    ]
  in
  let alerts = List.concat_map (Baseline.Snort_like.process snort) packets in
  check_int "stateless baseline is blind" 0 (List.length alerts)

let snort_catches_malformed () =
  let snort = Baseline.Snort_like.create Baseline.Snort_like.default_rules in
  let alerts =
    Baseline.Snort_like.process snort
      (packet ~src:(sip_addr "x") ~dst:(sip_addr "y") "garbage message")
  in
  check_int "malformed flagged" 1 (List.length alerts)

let scidive_catches_bye_dos_but_needs_rule () =
  let sched = Dsim.Scheduler.create () in
  let scidive = Baseline.Scidive_like.create sched () in
  let feed pkt = Baseline.Scidive_like.process scidive pkt in
  ignore (feed (packet ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text));
  ignore (feed (packet ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2") (response_text ())));
  ignore (feed (packet ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") (bye_text ())));
  Dsim.Scheduler.run_until sched (Dsim.Time.of_sec 1.0);
  let alerts =
    feed
      (packet ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
         (rtp_bytes ~seq:30 ~ts:4800 ()))
  in
  check_int "stateful cross-protocol rule fires" 1 (List.length alerts);
  (* But an attack with no rule (hijack) passes silently. *)
  let hijack =
    "INVITE sip:bob@b.example SIP/2.0\r\nVia: SIP/2.0/UDP 203.0.113.66:5060;branch=z9hG4bKh\r\nFrom: <sip:m@evil>;tag=tm\r\nTo: <sip:bob@b.example>;tag=tb\r\nCall-ID: c-1\r\nCSeq: 60 INVITE\r\n\r\n"
  in
  let alerts2 = feed (packet ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") hijack) in
  check_int "no rule, no detection" 0 (List.length alerts2)

let alert_formatting () =
  let a =
    Vids.Alert.make ~kind:Vids.Alert.Bye_dos ~at:(Dsim.Time.of_sec 1.0) ~subject:"c-9" "detail"
  in
  let rendered = Format.asprintf "%a" Vids.Alert.pp a in
  check "mentions kind" true
    (String.length rendered > 0
    &&
    let rec contains i =
      i + 7 <= String.length rendered && (String.sub rendered i 7 = "BYE-DoS" || contains (i + 1))
    in
    contains 0);
  check_str "dedup key" "BYE-DoS|c-9" (Vids.Alert.dedup_key a);
  check "severity default" true (a.Vids.Alert.severity = Vids.Alert.Critical);
  check "spec deviation is warning" true
    ((Vids.Alert.make ~kind:Vids.Alert.Spec_deviation ~at:0 ~subject:"c-9" "d").Vids.Alert.severity
    = Vids.Alert.Warning)

let sip_event_encoding () =
  let msg = ok (Sip.Msg.parse invite_text) in
  let event =
    Vids.Sip_event.of_msg ~at:0 ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") msg
  in
  check_str "name" "INVITE" (Efsm.Event.name event);
  let arg name f = check name true (Efsm.Event.get event f = Efsm.Value.Str name) in
  arg "10.1.0.2" Vids.Keys.Field.src_ip;
  arg "c-1" Vids.Keys.Field.call_id;
  arg "10.1.0.10" Vids.Keys.Field.media_host;
  check "media port" true (Efsm.Event.get event Vids.Keys.Field.media_port = Efsm.Value.Int 16384);
  check "flood key" true (Vids.Sip_event.flood_key msg = Some "bob@b.example");
  check "media addr" true
    (Vids.Sip_event.media_of_event event = Some (Dsim.Addr.v "10.1.0.10" 16384))

let suite =
  [
    ( "vids.classifier",
      [
        tc "sip" classify_sip;
        tc "malformed sip" classify_malformed_sip;
        tc "rtp" classify_rtp;
        tc "rtcp" classify_rtcp;
        tc "other" classify_other;
        tc "quick protocol" quick_protocol;
      ] );
    ( "vids.engine",
      [
        tc "tracks a call" engine_tracks_call;
        tc "routes rtp" engine_routes_rtp_to_call;
        tc "bye dos end-to-end" engine_detects_bye_dos_end_to_end;
        tc "clean teardown" engine_clean_teardown_no_alert;
        tc "malformed sip alert" engine_malformed_sip_alert;
        tc "anomaly names the call" engine_anomaly_names_the_call;
        tc "orphan request" engine_orphan_request_warns;
        tc "orphan responses -> drdos" engine_orphan_responses_feed_drdos;
        tc "alert dedup" engine_dedup;
        tc "alert listener" engine_listener;
        tc "cpu accounting" engine_cpu_accounting;
        tc "inline queueing" engine_transit_delay_queueing;
        tc "flood key ignores host case" flood_key_ignores_host_case;
        tc "uri user holds ; and ?" uri_user_holds_separators;
        tc "rtp packet allocation" rtp_packet_allocation;
        tc "sip path allocation" sip_path_allocation;
        tc "folded message allocation" folded_message_allocation;
      ] );
    ( "vids.fact_base",
      [
        tc "sweep" fact_base_sweep;
        tc "media index" fact_base_media_index;
        tc "memory linear" memory_scales_linearly;
        tc "specs shared per base" fact_base_shares_specs;
        tc "thresholds stay per engine" thresholds_stay_per_engine;
        tc "open-call footprint" open_call_footprint;
        tc "media-call footprint" media_call_footprint;
        tc "snapshot encoding cost" snapshot_encoding_cost;
        tc "event construction cost" of_msg_allocation;
        tc "capture read cost" pcap_read_allocation;
        tc "long shared Call-ID prefix" long_shared_prefix;
        tc "call lookup allocates nothing" call_lookup_allocation;
        tc "deleted calls keep no state" deleted_calls_keep_no_state;
      ] );
    ( "vids.sip_event",
      [ tc "encoding" sip_event_encoding; tc "alert formatting" alert_formatting ] );
    ( "baseline",
      [
        tc "snort misses bye dos" snort_stateless_misses_bye_dos;
        tc "snort catches malformed" snort_catches_malformed;
        tc "scidive rule coverage" scidive_catches_bye_dos_but_needs_rule;
      ] );
  ]
