(* Quickstart: build a vIDS engine, feed it a hand-rolled call as wire
   packets, then replay the same call with a spoofed BYE and watch the
   cross-protocol detector fire.

   Run with: dune exec examples/quickstart.exe *)

let sip_addr host = Dsim.Addr.v host 5060

let invite =
  "INVITE sip:bob@b.example SIP/2.0\r\n\
   Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKq1\r\n\
   From: \"Alice\" <sip:alice@a.example>;tag=ta\r\n\
   To: <sip:bob@b.example>\r\n\
   Call-ID: quickstart-call\r\n\
   CSeq: 1 INVITE\r\n\
   Contact: <sip:alice@10.1.0.10:5060>\r\n\
   Content-Type: application/sdp\r\n\
   \r\n\
   v=0\r\no=alice 0 0 IN IP4 10.1.0.10\r\ns=-\r\nc=IN IP4 10.1.0.10\r\nt=0 0\r\n\
   m=audio 16384 RTP/AVP 18\r\n"

let ok_200 =
  "SIP/2.0 200 OK\r\n\
   Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKq1\r\n\
   From: \"Alice\" <sip:alice@a.example>;tag=ta\r\n\
   To: <sip:bob@b.example>;tag=tb\r\n\
   Call-ID: quickstart-call\r\n\
   CSeq: 1 INVITE\r\n\
   Contact: <sip:bob@10.2.0.10:5060>\r\n\
   Content-Type: application/sdp\r\n\
   \r\n\
   v=0\r\no=bob 0 0 IN IP4 10.2.0.10\r\ns=-\r\nc=IN IP4 10.2.0.10\r\nt=0 0\r\n\
   m=audio 20000 RTP/AVP 18\r\n"

let ack =
  "ACK sip:bob@10.2.0.10 SIP/2.0\r\n\
   Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKq2\r\n\
   From: \"Alice\" <sip:alice@a.example>;tag=ta\r\n\
   To: <sip:bob@b.example>;tag=tb\r\n\
   Call-ID: quickstart-call\r\nCSeq: 1 ACK\r\n\r\n"

let spoofed_bye =
  "BYE sip:bob@10.2.0.10 SIP/2.0\r\n\
   Via: SIP/2.0/UDP 203.0.113.66:5060;branch=z9hG4bKevil\r\n\
   From: \"Alice\" <sip:alice@a.example>;tag=ta\r\n\
   To: <sip:bob@b.example>;tag=tb\r\n\
   Call-ID: quickstart-call\r\nCSeq: 9 BYE\r\n\r\n"

let rtp ~seq ~ts =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:seq ~timestamp:(Int32.of_int ts)
       ~ssrc:0xCAFEl
       (String.make 20 '\x55'))

let () =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  Vids.Engine.on_alert engine (fun alert -> Format.printf "  !! %a@." Vids.Alert.pp alert);
  let alloc = Dsim.Packet.allocator () in
  let feed ~src ~dst payload =
    Vids.Engine.process_packet engine
      (Dsim.Packet.make alloc ~src ~dst ~sent_at:(Dsim.Scheduler.now sched) payload)
  in

  print_endline "== 1. A normal call crosses the sensor ==";
  feed ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite;
  feed ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2") ok_200;
  feed ~src:(sip_addr "10.1.0.10") ~dst:(sip_addr "10.2.0.10") ack;
  (* Alice's media flows toward Bob. *)
  for i = 1 to 5 do
    feed
      ~src:(Dsim.Addr.v "10.1.0.10" 16384)
      ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
      (rtp ~seq:i ~ts:(160 * i))
  done;
  let call =
    Option.get (Vids.Fact_base.find_call (Vids.Engine.fact_base engine) "quickstart-call")
  in
  Format.printf "  SIP machine state: %s@." (Efsm.Machine.state call.Vids.Fact_base.sip);
  Format.printf "  RTP machine state: %s@." (Efsm.Machine.state call.Vids.Fact_base.rtp);

  print_endline "== 2. A third party injects a spoofed BYE ==";
  feed ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") spoofed_bye;
  Format.printf "  SIP machine state: %s (teardown begun)@."
    (Efsm.Machine.state call.Vids.Fact_base.sip);

  print_endline "== 3. Grace timer T elapses; Alice is still talking ==";
  Dsim.Scheduler.run_until sched (Dsim.Time.of_sec 1.0);
  feed
    ~src:(Dsim.Addr.v "10.1.0.10" 16384)
    ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp ~seq:10 ~ts:1600);

  let c = Vids.Engine.counters engine in
  Format.printf "== Summary: %d SIP + %d RTP packets analyzed, %d alert(s) ==@."
    c.Vids.Engine.sip_packets c.Vids.Engine.rtp_packets c.Vids.Engine.alerts_raised;
  let stats = Vids.Engine.memory_stats engine in
  Format.printf "   per-call state: %d bytes modeled (paper: ~490)@."
    stats.Vids.Fact_base.modeled_bytes
