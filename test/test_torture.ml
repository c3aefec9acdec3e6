(* SIP/SDP/RTP torture battery, in the spirit of RFC 4475: wellformed but
   unusual messages must parse; malformed ones must be rejected, never
   crash.  The vIDS classifier treats a rejected message as a reportable
   protocol deviation, so the split matters for the false-positive rate. *)

let check = Alcotest.(check bool)
let tc name f = Alcotest.test_case name `Quick f

let crlf lines = String.concat "\r\n" lines ^ "\r\n\r\n"

let parses text = Result.is_ok (Sip.Msg.parse text)
let rejects text = Result.is_error (Sip.Msg.parse text)

let base_headers =
  [
    "Via: SIP/2.0/UDP h.example;branch=z9hG4bKt";
    "From: <sip:a@x.example>;tag=1";
    "To: <sip:b@y.example>";
    "Call-ID: torture@h.example";
    "CSeq: 1 OPTIONS";
  ]

let msg ?(start = "OPTIONS sip:b@y.example SIP/2.0") ?(headers = base_headers) () =
  crlf (start :: headers)

(* --- wellformed but unusual ------------------------------------------ *)

let t_unusual_spacing () =
  check "extra spaces after colon" true
    (parses (msg ~headers:("Subject:            lots of space" :: base_headers) ()));
  check "tab folding" true
    (parses (msg ~headers:(("Subject: line1" ^ "\r\n\tline2") :: base_headers) ()))

let t_compact_and_long_mixed () =
  check "mixed compact/long" true
    (parses
       (crlf
          [
            "OPTIONS sip:b@y SIP/2.0";
            "v: SIP/2.0/UDP h;branch=z9hG4bKt";
            "From: <sip:a@x>;tag=1";
            "t: <sip:b@y>";
            "i: mixed";
            "CSeq: 1 OPTIONS";
          ]))

let t_header_case_insensitive () =
  check "screaming case" true
    (parses
       (crlf
          [
            "OPTIONS sip:b@y SIP/2.0";
            "VIA: SIP/2.0/UDP h;branch=z9hG4bKt";
            "FROM: <sip:a@x>;tag=1";
            "TO: <sip:b@y>";
            "CALL-ID: caps";
            "CSEQ: 1 OPTIONS";
          ]));
  let m = Result.get_ok (Sip.Msg.parse (crlf [ "OPTIONS sip:b@y SIP/2.0"; "cAlL-Id: weird" ])) in
  check "canonicalized access" true (Sip.Msg.call_id m = Ok "weird")

let t_long_values () =
  let long = String.make 4000 'x' in
  check "4k header value" true
    (parses (msg ~headers:(("X-Long: " ^ long) :: base_headers) ()));
  check "long request user" true
    (parses (msg ~start:("INVITE sip:" ^ String.make 500 'u' ^ "@h SIP/2.0") ()))

let t_unknown_method_and_headers () =
  check "unknown method" true (parses (msg ~start:"NEWFANGLED sip:b@y SIP/2.0" ()));
  check "unknown headers kept" true
    (parses (msg ~headers:("X-Wild-Thing: 42" :: base_headers) ()))

let t_multi_via_forms () =
  (* Two Via headers, and one comma-separated Via header, both give a
     two-deep stack. *)
  let two_lines =
    crlf
      ([ "OPTIONS sip:b@y SIP/2.0"; "Via: SIP/2.0/UDP p1;branch=z9hG4bKa" ]
      @ [ "Via: SIP/2.0/UDP p2;branch=z9hG4bKb" ]
      @ List.tl base_headers)
  in
  let comma =
    crlf
      ([ "OPTIONS sip:b@y SIP/2.0";
         "Via: SIP/2.0/UDP p1;branch=z9hG4bKa, SIP/2.0/UDP p2;branch=z9hG4bKb" ]
      @ List.tl base_headers)
  in
  let vias text =
    List.length (Sip.Header.get_all (Result.get_ok (Sip.Msg.parse text)).Sip.Msg.headers "Via")
  in
  Alcotest.(check int) "two lines" 2 (vias two_lines);
  Alcotest.(check int) "comma form" 2 (vias comma)

let t_display_name_quirks () =
  check "quoted display with comma" true
    (parses (msg ~headers:("Contact: \"Smith, J.\" <sip:j@h>" :: base_headers) ()));
  let m =
    Result.get_ok
      (Sip.Msg.parse (msg ~headers:("Contact: \"Smith, J.\" <sip:j@h>" :: base_headers) ()))
  in
  match Sip.Msg.contact m with
  | Ok na -> check "display preserved" true (na.Sip.Name_addr.display = Some "Smith, J.")
  | Error _ -> Alcotest.fail "contact should parse"

let t_empty_body_with_length_zero () =
  check "explicit zero length" true
    (parses (String.concat "\r\n" (("OPTIONS sip:b@y SIP/2.0" :: base_headers) @ [ "Content-Length: 0"; ""; "" ])))

let t_body_with_crlf_content () =
  let body = "line1\r\nline2\r\n\r\ntrailing" in
  let text =
    String.concat "\r\n"
      (("OPTIONS sip:b@y SIP/2.0" :: base_headers)
      @ [ Printf.sprintf "Content-Length: %d" (String.length body); ""; body ])
  in
  let m = Result.get_ok (Sip.Msg.parse text) in
  check "body with embedded blank line intact" true (m.Sip.Msg.body = body)

let t_status_edge_codes () =
  check "100" true (parses (crlf ("SIP/2.0 100 Trying" :: base_headers)));
  check "699" true (parses (crlf ("SIP/2.0 699 Weird" :: base_headers)));
  check "reason with spaces" true
    (parses (crlf ("SIP/2.0 480 Temporarily not available right now" :: base_headers)));
  check "empty reason" true (parses (crlf ("SIP/2.0 200" :: base_headers)))

(* --- malformed -------------------------------------------------------- *)

let t_malformed_start_lines () =
  check "no version" true (rejects (crlf [ "OPTIONS sip:b@y" ]));
  check "wrong version" true (rejects (crlf [ "OPTIONS sip:b@y SIP/3.0" ]));
  check "code too small" true (rejects (crlf ("SIP/2.0 42 Answer" :: base_headers)));
  check "code too large" true (rejects (crlf ("SIP/2.0 700 Nope" :: base_headers)));
  check "spaces in uri" true (rejects (crlf [ "OPTIONS sip:b @y SIP/2.0" ]));
  check "empty message" true (rejects "");
  check "only crlf" true (rejects "\r\n\r\n")

let t_malformed_headers () =
  check "colonless header" true
    (rejects (crlf [ "OPTIONS sip:b@y SIP/2.0"; "NoColonHere" ]));
  check "empty name" true (rejects (crlf [ "OPTIONS sip:b@y SIP/2.0"; ": value" ]))

let t_content_length_lies () =
  check "length beyond body" true
    (rejects
       (String.concat "\r\n"
          (("OPTIONS sip:b@y SIP/2.0" :: base_headers) @ [ "Content-Length: 999"; ""; "short" ])));
  check "negative rejected" true
    (rejects
       (String.concat "\r\n"
          (("OPTIONS sip:b@y SIP/2.0" :: base_headers) @ [ "Content-Length: -5"; ""; "body" ])))

(* RFC 3261 numbers are 1*DIGIT (Status-Code is 3DIGIT).  A sensor that
   reads OCaml integer literals where its endpoints read garbage can be
   evaded, so each of these is rejected. *)
let t_integer_literal_syntax () =
  let with_length v =
    String.concat "\r\n"
      (("OPTIONS sip:b@y SIP/2.0" :: base_headers) @ [ "Content-Length: " ^ v; ""; "body" ])
  in
  check "hex status code" true (rejects (crlf ("SIP/2.0 0xC8 OK" :: base_headers)));
  check "signed status code" true (rejects (crlf ("SIP/2.0 +200 OK" :: base_headers)));
  check "hex status line" true (rejects (crlf ("SIP/2.0 0xC8" :: base_headers)));
  check "hex content-length" true (rejects (with_length "0x2"));
  check "signed content-length" true (rejects (with_length "+3"));
  check "overflowing content-length" true (rejects (with_length (String.make 30 '9')));
  check "cseq with separator" true (Result.is_error (Sip.Cseq.parse "1_0 INVITE"));
  check "hex uri port" true (Result.is_error (Sip.Uri.parse "sip:b@h:0x13c4"));
  check "hex via port" true (Result.is_error (Sip.Via.parse "SIP/2.0/UDP h:0x13c4"));
  check "via port out of range" true (Result.is_error (Sip.Via.parse "SIP/2.0/UDP h:65536"));
  let m =
    Result.get_ok
      (Sip.Msg.parse
         (msg ~headers:("CSeq: 1_0 INVITE" :: "Max-Forwards: 0x46" :: "Expires: +60" :: base_headers) ()))
  in
  check "message cseq with separator" true (Result.is_error (Sip.Msg.cseq m));
  (* Neither read as 0x46 = 70 nor taken as absent: either way a proxy
     would forward it as fresh, and a loop would never end in 483. *)
  check "hex max-forwards" true (Sip.Msg.decrement_max_forwards m = Error `Malformed);
  check "signed expires" true (Sip.Msg.expires m = None);
  let session = "o=x 1 1 IN IP4 h\r\ns=-\r\nt=0 0\r\n" in
  check "hex sdp version" true (Result.is_error (Sdp.parse ("v=0x0\r\n" ^ session)));
  check "hex media port" true
    (Result.is_error (Sdp.parse ("v=0\r\n" ^ session ^ "m=audio 0x4000 RTP/AVP 0\r\n")));
  match Sdp.parse ("v=0\r\n" ^ session ^ "m=audio 16384 RTP/AVP 0x12 1_8 +0 8\r\n") with
  | Ok d -> check "only decimal formats" true ((List.hd d.Sdp.media).Sdp.formats = [ 8 ])
  | Error e -> Alcotest.fail e

let t_binary_garbage () =
  (* Arbitrary binary on the SIP port must be rejected, not crash. *)
  let garbage = String.init 64 (fun i -> Char.chr (255 - i)) in
  check "binary rejected" true (rejects garbage)

let t_uri_torture () =
  let good =
    [ "sip:j%40son@h"; "sip:host"; "sips:a@b:1"; "sip:a@b;p1;p2;p3=x"; "tel:+1-212-555-0101" ]
  in
  List.iter (fun u -> check u true (Result.is_ok (Sip.Uri.parse u))) good;
  let bad = [ ""; ":"; "sip:"; "mailto:x@y"; "sip:a@b:port" ] in
  List.iter (fun u -> check u true (Result.is_error (Sip.Uri.parse u))) bad

(* --- SDP torture ------------------------------------------------------ *)

let t_sdp_torture () =
  let ok_cases =
    [
      (* minimal *)
      "v=0\r\no=x 1 1 IN IP4 h\r\ns= \r\nt=0 0\r\n";
      (* media before attributes, several formats *)
      "v=0\r\no=x 1 1 IN IP4 h\r\ns=-\r\nc=IN IP4 1.2.3.4\r\nt=0 0\r\nm=audio 9 RTP/AVP 0 8 18 101\r\na=sendrecv\r\n";
      (* LF-only line endings *)
      "v=0\no=x 1 1 IN IP4 h\ns=-\nt=0 0\n";
    ]
  in
  List.iter (fun s -> check "sdp ok" true (Result.is_ok (Sdp.parse s))) ok_cases;
  let bad_cases = [ "vv=0\r\n"; "v=0\r\nm=audio RTP/AVP\r\n"; "x" ] in
  List.iter (fun s -> check "sdp bad" true (Result.is_error (Sdp.parse s))) bad_cases

(* --- RTP torture ------------------------------------------------------ *)

let t_rtp_torture () =
  (* Header exactly 12 bytes parses with empty payload. *)
  let minimal =
    Rtp.Rtp_packet.encode
      (Rtp.Rtp_packet.make ~payload_type:0 ~sequence:0 ~timestamp:0l ~ssrc:0l "")
  in
  check "minimal" true (Result.is_ok (Rtp.Rtp_packet.decode minimal));
  (* All CSRC counts decode when the bytes are present. *)
  for cc = 0 to 15 do
    let b = Bytes.make (12 + (4 * cc)) '\x00' in
    Bytes.set b 0 (Char.chr (0x80 lor cc));
    check
      (Printf.sprintf "cc=%d" cc)
      true
      (Result.is_ok (Rtp.Rtp_packet.decode (Bytes.to_string b)))
  done;
  (* One byte short of the CSRC list fails cleanly. *)
  let b = Bytes.make 15 '\x00' in
  Bytes.set b 0 (Char.chr (0x80 lor 1));
  check "truncated csrc" true (Result.is_error (Rtp.Rtp_packet.decode (Bytes.to_string b)));
  (* Extension header: present and truncated. *)
  let ext_ok = Bytes.make 20 '\x00' in
  Bytes.set ext_ok 0 '\x90';
  (* 4-byte ext header with 1 word of body. *)
  Bytes.set ext_ok 15 '\x01';
  check "extension ok" true (Result.is_ok (Rtp.Rtp_packet.decode (Bytes.to_string ext_ok)));
  let ext_short = Bytes.make 14 '\x00' in
  Bytes.set ext_short 0 '\x90';
  check "extension truncated" true
    (Result.is_error (Rtp.Rtp_packet.decode (Bytes.to_string ext_short)))

(* --- engine fuzz ------------------------------------------------------ *)

(* Random, truncated and corrupted wire bytes straight into the analysis
   engine.  The contract under test is the containment boundary's: no input,
   however crafted, may escape as an exception, and every packet lands in
   exactly one classification counter. *)

let t_engine_fuzz () =
  let st = Random.State.make [| 0xf00d |] in
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let alloc = Dsim.Packet.allocator () in
  let invite i =
    Printf.sprintf
      "INVITE sip:bob@b.example SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bKf%d\r\nFrom: <sip:a@x>;tag=f%d\r\nTo: <sip:bob@b.example>\r\nCall-ID: fuzz-%d\r\nCSeq: 1 INVITE\r\n\r\n"
      i i i
  in
  let random_bytes n = String.init n (fun _ -> Char.chr (Random.State.int st 256)) in
  let corrupt s =
    let b = Bytes.of_string s in
    for _ = 0 to 3 do
      Bytes.set b (Random.State.int st (Bytes.length b)) (Char.chr (Random.State.int st 256))
    done;
    Bytes.to_string b
  in
  let n = 2000 in
  for i = 0 to n - 1 do
    let payload =
      match i mod 4 with
      | 0 -> random_bytes (Random.State.int st 512)
      | 1 ->
          let v = invite i in
          String.sub v 0 (Random.State.int st (String.length v))
      | 2 -> corrupt (invite i)
      | _ -> invite i
    in
    let port = if i mod 3 = 0 then 20000 + (i mod 100) else 5060 in
    let p =
      Dsim.Packet.make alloc
        ~src:(Dsim.Addr.v "203.0.113.66" 5060)
        ~dst:(Dsim.Addr.v "10.2.0.2" port)
        ~sent_at:Dsim.Time.zero payload
    in
    (* Any escaping exception fails the test here. *)
    Vids.Engine.process_packet engine p
  done;
  let c = Vids.Engine.counters engine in
  check "rejections recorded" true (c.Vids.Engine.malformed_packets > 0);
  check "valid invites survived" true (c.Vids.Engine.sip_packets > 0);
  (* Accounting: each packet hits at least one counter unless a contained
     fault cut the pipeline short (a parsable SIP message without a
     Call-ID counts as both sip and malformed). *)
  let classified =
    c.Vids.Engine.sip_packets + c.Vids.Engine.rtp_packets + c.Vids.Engine.rtcp_packets
    + c.Vids.Engine.other_packets + c.Vids.Engine.malformed_packets
  in
  check "no packet lost to the accounting" true
    (classified + c.Vids.Engine.faults >= n
    && classified <= n + c.Vids.Engine.malformed_packets);
  Alcotest.(check int) "no faults needed containing" 0 c.Vids.Engine.faults

let suite =
  [
    ( "torture.sip",
      [
        tc "unusual spacing" t_unusual_spacing;
        tc "compact/long mixed" t_compact_and_long_mixed;
        tc "case-insensitive names" t_header_case_insensitive;
        tc "long values" t_long_values;
        tc "unknown method/headers" t_unknown_method_and_headers;
        tc "multi-via forms" t_multi_via_forms;
        tc "display name quirks" t_display_name_quirks;
        tc "zero-length body" t_empty_body_with_length_zero;
        tc "body with crlf" t_body_with_crlf_content;
        tc "status code edges" t_status_edge_codes;
        tc "malformed start lines" t_malformed_start_lines;
        tc "malformed headers" t_malformed_headers;
        tc "content-length lies" t_content_length_lies;
        tc "integer literal syntax" t_integer_literal_syntax;
        tc "binary garbage" t_binary_garbage;
        tc "uri torture" t_uri_torture;
      ] );
    ("torture.sdp", [ tc "sdp cases" t_sdp_torture ]);
    ("torture.rtp", [ tc "rtp cases" t_rtp_torture ]);
    ("torture.engine", [ tc "wire-byte fuzz" t_engine_fuzz ]);
  ]
