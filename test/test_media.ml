(* Unit tests for the SDP and RTP substrates. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

(* ------------------------------------------------------------------ *)
(* SDP                                                                 *)
(* ------------------------------------------------------------------ *)

let sample_sdp =
  "v=0\r\n\
   o=alice 0 0 IN IP4 10.1.0.10\r\n\
   s=-\r\n\
   c=IN IP4 10.1.0.10\r\n\
   t=0 0\r\n\
   m=audio 16384 RTP/AVP 18 0\r\n\
   a=rtpmap:18 G729/8000\r\n\
   a=rtpmap:0 PCMU/8000\r\n"

let sdp_parse () =
  let d = ok (Sdp.parse sample_sdp) in
  check_int "version" 0 d.Sdp.version;
  check "connection" true (d.Sdp.connection = Some "10.1.0.10");
  check_int "one media" 1 (List.length d.Sdp.media);
  let m = List.hd d.Sdp.media in
  check_str "type" "audio" m.Sdp.media_type;
  check_int "port" 16384 m.Sdp.port;
  Alcotest.(check (list int)) "formats" [ 18; 0 ] m.Sdp.formats;
  check_int "attributes" 2 (List.length m.Sdp.attributes)

let sdp_roundtrip () =
  let d = ok (Sdp.parse sample_sdp) in
  let d2 = ok (Sdp.parse (Sdp.to_string d)) in
  check "media equal" true (d.Sdp.media = d2.Sdp.media);
  check "connection equal" true (d.Sdp.connection = d2.Sdp.connection)

let sdp_make () =
  let d =
    Sdp.make ~origin_user:"bob" ~origin_host:"10.2.0.10" ~connection:"10.2.0.10"
      ~media:[ Sdp.audio_media ~port:20000 ~formats:[ 18 ] ]
      ()
  in
  let m = Option.get (Sdp.first_audio d) in
  check "addr" true (Sdp.media_addr d m = Some ("10.2.0.10", 20000));
  (* audio_media fills rtpmap attributes for known payload types *)
  check "rtpmap generated" true
    (List.exists (fun (n, v) -> n = "rtpmap" && v = Some "18 G729/8000") m.Sdp.attributes)

let sdp_multiple_media () =
  let text =
    "v=0\r\no=x 0 0 IN IP4 h\r\ns=-\r\nc=IN IP4 h\r\nt=0 0\r\n\
     m=audio 100 RTP/AVP 0\r\nm=video 200 RTP/AVP 96\r\na=x\r\n"
  in
  let d = ok (Sdp.parse text) in
  check_int "two blocks" 2 (List.length d.Sdp.media);
  let audio = Option.get (Sdp.first_audio d) in
  check_int "audio port" 100 audio.Sdp.port;
  let video = List.nth d.Sdp.media 1 in
  check_str "video" "video" video.Sdp.media_type;
  check_int "video attr" 1 (List.length video.Sdp.attributes)

let sdp_errors () =
  check "garbage line" true (Result.is_error (Sdp.parse "v=0\r\nnonsense\r\n"));
  check "bad media port" true
    (Result.is_error (Sdp.parse "v=0\r\nm=audio xx RTP/AVP 0\r\n"));
  check "unknown type char" true (Result.is_error (Sdp.parse "q=huh\r\n"))

let sdp_tolerated_lines () =
  let text = "v=0\r\no=x 0 0 IN IP4 h\r\ns=-\r\nb=AS:64\r\ni=info\r\nt=0 0\r\n" in
  check "b=/i= ignored" true (Result.is_ok (Sdp.parse text))

let payload_registry () =
  let find n = Option.get (Sdp.Payload_type.find n) in
  check "g729 is 18" true ((find 18).Sdp.Payload_type.encoding = "G729");
  check "find 0" true ((find 0).Sdp.Payload_type.encoding = "PCMU");
  check "find unknown" true (Sdp.Payload_type.find 77 = None);
  check_str "rtpmap" "18 G729/8000" (Sdp.Payload_type.rtpmap (find 18))

(* ------------------------------------------------------------------ *)
(* RTP packet codec                                                    *)
(* ------------------------------------------------------------------ *)

let rtp_roundtrip () =
  let p =
    Rtp.Rtp_packet.make ~marker:true ~payload_type:18 ~sequence:4660 ~timestamp:305419896l
      ~ssrc:0x1234ABCDl "hello-rtp"
  in
  let decoded = ok (Rtp.Rtp_packet.decode (Rtp.Rtp_packet.encode p)) in
  check_int "version" 2 decoded.Rtp.Rtp_packet.version;
  check "marker" true decoded.Rtp.Rtp_packet.marker;
  check_int "pt" 18 decoded.Rtp.Rtp_packet.payload_type;
  check_int "seq" 4660 decoded.Rtp.Rtp_packet.sequence;
  check "ts" true (Int32.equal decoded.Rtp.Rtp_packet.timestamp 305419896l);
  check "ssrc" true (Int32.equal decoded.Rtp.Rtp_packet.ssrc 0x1234ABCDl);
  check_str "payload" "hello-rtp" decoded.Rtp.Rtp_packet.payload

let rtp_header_is_12_bytes () =
  let p = Rtp.Rtp_packet.make ~payload_type:0 ~sequence:0 ~timestamp:0l ~ssrc:1l "" in
  check_int "wire size" 12 (String.length (Rtp.Rtp_packet.encode p))

let rtp_seq_wraps () =
  let p = Rtp.Rtp_packet.make ~payload_type:0 ~sequence:0x1FFFF ~timestamp:0l ~ssrc:1l "" in
  check_int "masked" 0xFFFF p.Rtp.Rtp_packet.sequence

let rtp_decode_errors () =
  check "short" true (Result.is_error (Rtp.Rtp_packet.decode "abc"));
  let bad_version = String.make 12 '\x00' in
  check "version" true (Result.is_error (Rtp.Rtp_packet.decode bad_version));
  (* CC=3 but no CSRC words present. *)
  let truncated_csrc = "\x83" ^ String.make 11 '\x00' in
  check "truncated csrc" true (Result.is_error (Rtp.Rtp_packet.decode truncated_csrc))

let rtp_decode_padding () =
  let p = Rtp.Rtp_packet.make ~payload_type:0 ~sequence:1 ~timestamp:0l ~ssrc:1l "abcd" in
  let raw = Rtp.Rtp_packet.encode p in
  (* Set the padding bit and append 3 pad bytes ending in count 3. *)
  let padded = Bytes.of_string (raw ^ "\x00\x00\x03") in
  Bytes.set padded 0 (Char.chr (Char.code (Bytes.get padded 0) lor 0x20));
  let decoded = ok (Rtp.Rtp_packet.decode (Bytes.to_string padded)) in
  check_str "payload without padding" "abcd" decoded.Rtp.Rtp_packet.payload;
  check "padding flag" true decoded.Rtp.Rtp_packet.padding

let seq_arithmetic () =
  check_int "forward" 1 (Rtp.Rtp_packet.seq_delta 10 11);
  check_int "backward" (-1) (Rtp.Rtp_packet.seq_delta 11 10);
  check_int "wrap forward" 2 (Rtp.Rtp_packet.seq_delta 0xFFFF 1);
  check_int "wrap backward" (-2) (Rtp.Rtp_packet.seq_delta 1 0xFFFF)

let ts_arithmetic () =
  check_int "forward" 160 (Rtp.Rtp_packet.ts_delta 0l 160l);
  check_int "wraps" 416 (Rtp.Rtp_packet.ts_delta 0xFFFFFF60l 0x100l)

(* ------------------------------------------------------------------ *)
(* Codec models                                                        *)
(* ------------------------------------------------------------------ *)

let codec_g729 () =
  let c = Rtp.Codec.g729 in
  check_int "20ms interval" (Dsim.Time.of_ms 20.0) (Rtp.Codec.packet_interval c);
  check_int "160 ticks" 160 (Rtp.Codec.timestamp_increment c);
  check_int "20 bytes payload" 20 (Rtp.Codec.payload_size c)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let sender_advances () =
  let s = Rtp.Session.Sender.create ~ssrc:7l ~codec:Rtp.Codec.g729 ~initial_seq:0xFFFE ~initial_ts:100l in
  let p1 = Rtp.Session.Sender.next_packet s in
  let p2 = Rtp.Session.Sender.next_packet s in
  let p3 = Rtp.Session.Sender.next_packet s in
  check "marker on first" true p1.Rtp.Rtp_packet.marker;
  check "no marker later" false p2.Rtp.Rtp_packet.marker;
  check_int "seq wraps" 0xFFFF p2.Rtp.Rtp_packet.sequence;
  check_int "seq wraps to 0" 0 p3.Rtp.Rtp_packet.sequence;
  check "ts advances" true (Int32.equal p2.Rtp.Rtp_packet.timestamp 260l);
  check_int "sent" 3 (Rtp.Session.Sender.packets_sent s);
  let r = Rtp.Session.Receiver.create ~clock_rate:8000 in
  List.iteri
    (fun i p -> Rtp.Session.Receiver.observe r ~arrival:(i * Dsim.Time.of_ms 20.0) p)
    [ p1; p2; p3 ];
  check_int "received" 3 (Rtp.Session.Receiver.packets_received r)

(* ------------------------------------------------------------------ *)
(* Jitter                                                              *)
(* ------------------------------------------------------------------ *)

let jitter_zero_when_perfect () =
  let j = Rtp.Jitter.create ~clock_rate:8000 in
  for i = 0 to 50 do
    Rtp.Jitter.observe j
      ~arrival:(i * Dsim.Time.of_ms 20.0)
      ~rtp_timestamp:(Int32.of_int (160 * i))
  done;
  check "zero jitter" true (Rtp.Jitter.jitter_seconds j < 1e-9)

let jitter_grows_with_variance () =
  let j = Rtp.Jitter.create ~clock_rate:8000 in
  let r = Dsim.Rng.create 11 in
  for i = 0 to 200 do
    let noise = Dsim.Time.of_ms (Dsim.Rng.uniform r 0.0 8.0) in
    Rtp.Jitter.observe j
      ~arrival:(Dsim.Time.add (i * Dsim.Time.of_ms 20.0) noise)
      ~rtp_timestamp:(Int32.of_int (160 * i))
  done;
  let s = Rtp.Jitter.jitter_seconds j in
  check "positive" true (s > 0.0005);
  check "bounded by noise" true (s < 0.008)

(* ------------------------------------------------------------------ *)
(* RTCP                                                                *)
(* ------------------------------------------------------------------ *)

let rtcp_rr_roundtrip () =
  let block =
    {
      Rtp.Rtcp.ssrc = 99l;
      fraction_lost = 12;
      cumulative_lost = 345;
      highest_seq = 1000l;
      jitter = 42l;
    }
  in
  let rr = Rtp.Rtcp.Receiver_report { ssrc = 7l; blocks = [ block ] } in
  match ok (Rtp.Rtcp.decode (Rtp.Rtcp.encode rr)) with
  | Rtp.Rtcp.Receiver_report { ssrc; blocks = [ b ] } ->
      check "ssrc" true (Int32.equal ssrc 7l);
      check_int "fraction" 12 b.Rtp.Rtcp.fraction_lost;
      check_int "cumulative" 345 b.Rtp.Rtcp.cumulative_lost;
      check "jitter" true (Int32.equal b.Rtp.Rtcp.jitter 42l)
  | _ -> Alcotest.fail "wrong shape"

let rtcp_sr_roundtrip () =
  let sr =
    Rtp.Rtcp.Sender_report
      { ssrc = 1l; ntp_sec = 2l; rtp_ts = 3l; packet_count = 4l; octet_count = 5l; blocks = [] }
  in
  match ok (Rtp.Rtcp.decode (Rtp.Rtcp.encode sr)) with
  | Rtp.Rtcp.Sender_report { ssrc; ntp_sec; rtp_ts; packet_count; octet_count; blocks = [] } ->
      check "fields" true
        (ssrc = 1l && ntp_sec = 2l && rtp_ts = 3l && packet_count = 4l && octet_count = 5l)
  | _ -> Alcotest.fail "wrong shape"

let rtcp_errors () =
  check "short" true (Result.is_error (Rtp.Rtcp.decode "ab"));
  check "bad version" true (Result.is_error (Rtp.Rtcp.decode (String.make 8 '\x00')))

(* ------------------------------------------------------------------ *)
(* Playout buffer and MOS                                              *)
(* ------------------------------------------------------------------ *)

let playout_classifies () =
  let p = Rtp.Playout.create ~target_delay:(Dsim.Time.of_ms 60.0) in
  check "on time" true (Rtp.Playout.offer p ~capture:0 ~arrival:(Dsim.Time.of_ms 50.0) = `On_time);
  check "boundary on time" true
    (Rtp.Playout.offer p ~capture:0 ~arrival:(Dsim.Time.of_ms 60.0) = `On_time);
  check "late" true (Rtp.Playout.offer p ~capture:0 ~arrival:(Dsim.Time.of_ms 61.0) = `Late);
  check_int "received" 3 (Rtp.Playout.received p);
  Alcotest.(check (float 1e-9)) "fraction" (1.0 /. 3.0) (Rtp.Playout.late_fraction p)

let mos_reference_points () =
  (* Low delay, no loss: G.729 tops out near 4.1. *)
  let good = Rtp.Mos.mos ~one_way_delay:0.05 ~loss_fraction:0.0 in
  check "clean call is good" true (good > 4.0);
  check_str "verdict" "good" (Rtp.Mos.verdict good);
  (* The testbed's ~52 ms delay and 0.42% loss stay comfortably good. *)
  let testbed = Rtp.Mos.mos ~one_way_delay:0.052 ~loss_fraction:0.0042 in
  check "testbed good" true (testbed > 3.9);
  (* Heavy delay degrades noticeably. *)
  let laggy = Rtp.Mos.mos ~one_way_delay:0.4 ~loss_fraction:0.0 in
  check "400ms is degraded" true (laggy < 3.6);
  check "verdict bands" true
    (Rtp.Mos.verdict 3.7 = "fair" && Rtp.Mos.verdict 3.2 = "poor" && Rtp.Mos.verdict 2.0 = "bad")

let suite =
  [
    ( "sdp",
      [
        tc "parse" sdp_parse;
        tc "roundtrip" sdp_roundtrip;
        tc "make + audio_media" sdp_make;
        tc "multiple media" sdp_multiple_media;
        tc "errors" sdp_errors;
        tc "tolerated lines" sdp_tolerated_lines;
        tc "payload registry" payload_registry;
      ] );
    ( "rtp.packet",
      [
        tc "roundtrip" rtp_roundtrip;
        tc "12-byte header" rtp_header_is_12_bytes;
        tc "sequence masked" rtp_seq_wraps;
        tc "decode errors" rtp_decode_errors;
        tc "padding" rtp_decode_padding;
        tc "seq arithmetic" seq_arithmetic;
        tc "ts arithmetic" ts_arithmetic;
      ] );
    ( "rtp.codec",
      [ tc "g729 model" codec_g729 ] );
    ( "rtp.session",
      [
        tc "sender advances + wraps" sender_advances;
      ] );
    ( "rtp.jitter",
      [ tc "zero when perfect" jitter_zero_when_perfect; tc "grows with variance" jitter_grows_with_variance ] );
    ( "rtp.quality",
      [ tc "playout classification" playout_classifies; tc "mos reference points" mos_reference_points ] );
    ( "rtp.rtcp",
      [ tc "rr roundtrip" rtcp_rr_roundtrip; tc "sr roundtrip" rtcp_sr_roundtrip; tc "errors" rtcp_errors ] );
  ]
