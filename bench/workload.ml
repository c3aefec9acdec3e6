(* The dialog-rich synthetic trace of the profiling bench, which replays
   it bare, profiled and with telemetry on: every 50 ms a new call
   starts; two in three run a full dialog with a media burst, one in
   three is abandoned after the INVITE.  Three rogue RTP floods ride on
   top so the media-spam detector (and its alerts) exercise the
   instrumented paths too. *)

let ms = Dsim.Time.of_ms
let sip_addr host = Dsim.Addr.v host 5060

let invite ~call_id ~port =
  let body =
    Printf.sprintf
      "v=0\r\no=alice 0 0 IN IP4 10.1.0.10\r\ns=-\r\nc=IN IP4 10.1.0.10\r\nt=0 0\r\nm=audio %d RTP/AVP 18\r\n"
      port
  in
  Printf.sprintf
    "INVITE sip:bob@b.example SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\n\
     From: <sip:alice@a.example>;tag=ta-%s\r\n\
     To: <sip:bob@b.example>\r\n\
     Call-ID: %s\r\n\
     CSeq: 1 INVITE\r\n\
     Contact: <sip:alice@10.1.0.10:5060>\r\n\
     Content-Type: application/sdp\r\n\
     Content-Length: %d\r\n\r\n%s"
    call_id call_id call_id (String.length body) body

let response ~call_id ~code ~cseq ~sdp ~port =
  let body =
    if sdp then
      Printf.sprintf
        "v=0\r\no=bob 0 0 IN IP4 10.2.0.10\r\ns=-\r\nc=IN IP4 10.2.0.10\r\nt=0 0\r\nm=audio %d RTP/AVP 18\r\n"
        port
    else ""
  in
  Printf.sprintf
    "SIP/2.0 %d X\r\n\
     Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\n\
     From: <sip:alice@a.example>;tag=ta-%s\r\n\
     To: <sip:bob@b.example>;tag=tb-%s\r\n\
     Call-ID: %s\r\nCSeq: %s\r\n%sContent-Length: %d\r\n\r\n%s"
    code call_id call_id call_id call_id cseq
    (if sdp then "Content-Type: application/sdp\r\n" else "")
    (String.length body) body

let ack ~call_id =
  Printf.sprintf
    "ACK sip:bob@10.2.0.10 SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKa-%s\r\n\
     From: <sip:alice@a.example>;tag=ta-%s\r\n\
     To: <sip:bob@b.example>;tag=tb-%s\r\n\
     Call-ID: %s\r\nCSeq: 1 ACK\r\n\r\n"
    call_id call_id call_id call_id

let bye ~call_id =
  Printf.sprintf
    "BYE sip:bob@10.2.0.10 SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKb-%s\r\n\
     From: <sip:alice@a.example>;tag=ta-%s\r\n\
     To: <sip:bob@b.example>;tag=tb-%s\r\n\
     Call-ID: %s\r\nCSeq: 2 BYE\r\n\r\n"
    call_id call_id call_id call_id

let rtp_bytes ~seq =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:seq
       ~timestamp:(Int32.of_int (160 * seq)) ~ssrc:77l (String.make 20 'v'))

let make_trace ~calls =
  let records = ref [] in
  let add at src dst payload = records := { Vids.Trace.at; src; dst; payload } :: !records in
  let a_sig = sip_addr "10.1.0.2" and b_sig = sip_addr "10.2.0.2" in
  for i = 0 to calls - 1 do
    let call_id = Printf.sprintf "obs-%d" i in
    let t0 = ms (float_of_int (50 * i)) in
    let port = 16384 + (2 * (i mod 2048)) in
    let ( +& ) a b = Dsim.Time.add a b in
    add t0 a_sig b_sig (invite ~call_id ~port);
    if i mod 3 <> 2 then begin
      add (t0 +& ms 20.) b_sig a_sig (response ~call_id ~code:180 ~cseq:"1 INVITE" ~sdp:false ~port);
      add (t0 +& ms 40.) b_sig a_sig (response ~call_id ~code:200 ~cseq:"1 INVITE" ~sdp:true ~port);
      add (t0 +& ms 60.) a_sig b_sig (ack ~call_id);
      let media_src = Dsim.Addr.v "10.1.0.10" port in
      let media_dst = Dsim.Addr.v "10.2.0.10" port in
      for s = 0 to 4 do
        add (t0 +& ms (80. +. (20. *. float_of_int s))) media_src media_dst (rtp_bytes ~seq:s)
      done;
      add (t0 +& ms 600.) a_sig b_sig (bye ~call_id);
      add (t0 +& ms 620.) b_sig a_sig (response ~call_id ~code:200 ~cseq:"2 BYE" ~sdp:false ~port)
    end
  done;
  for stream = 0 to 2 do
    let rogue_src = Dsim.Addr.v (Printf.sprintf "10.5.0.%d" stream) 22000 in
    let rogue_dst = Dsim.Addr.v (Printf.sprintf "10.6.0.%d" stream) 22000 in
    for s = 0 to 199 do
      add
        (Dsim.Time.add (ms (float_of_int (100 * stream))) (ms (float_of_int (4 * s))))
        rogue_src rogue_dst (rtp_bytes ~seq:s)
    done
  done;
  List.rev !records

(* Past the last call's BYE (t0 + 620 ms) with margin for the grace
   timers the replays rely on. *)
let horizon ~calls = ms (float_of_int ((50 * calls) + 700))
