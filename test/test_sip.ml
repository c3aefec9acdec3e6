(* Unit tests for the SIP stack: URIs, headers, messages, transactions,
   dialogs. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* ------------------------------------------------------------------ *)
(* URI                                                                 *)
(* ------------------------------------------------------------------ *)

let uri_full () =
  let u = ok (Sip.Uri.parse "sip:alice@example.com:5070;transport=udp;lr?X-h=1") in
  check_str "scheme" "sip" u.Sip.Uri.scheme;
  check "user" true (u.Sip.Uri.user = Some "alice");
  check_str "host" "example.com" u.Sip.Uri.host;
  check "port" true (u.Sip.Uri.port = Some 5070);
  check "transport param" true (List.assoc_opt "transport" u.Sip.Uri.params = Some (Some "udp"));
  check "lr flag" true (List.assoc_opt "lr" u.Sip.Uri.params = Some None);
  check "headers" true (u.Sip.Uri.headers = Some "X-h=1")

let uri_minimal () =
  let u = ok (Sip.Uri.parse "sip:example.com") in
  check "no user" true (u.Sip.Uri.user = None);
  check "no port" true (u.Sip.Uri.port = None);
  check_str "to_string" "sip:example.com" (Sip.Uri.to_string u)

let uri_roundtrip () =
  let samples =
    [
      "sip:a@b.example";
      "sips:a@b.example:5061";
      "sip:b.example;maddr=10.0.0.1";
      "sip:user@host:1;p1=v1;flag?h=1";
    ]
  in
  List.iter (fun s -> check_str s s (Sip.Uri.to_string (ok (Sip.Uri.parse s)))) samples

let uri_errors () =
  check "no scheme" true (Result.is_error (Sip.Uri.parse "example.com"));
  check "bad scheme" true (Result.is_error (Sip.Uri.parse "http://x.com"));
  check "empty host" true (Result.is_error (Sip.Uri.parse "sip:alice@"));
  check "bad port" true (Result.is_error (Sip.Uri.parse "sip:h:abc"))

(* ------------------------------------------------------------------ *)
(* Headers                                                             *)
(* ------------------------------------------------------------------ *)

let header_canonical () =
  check_str "compact i" "Call-ID" (Sip.Header.canonical_name "i");
  check_str "compact v" "Via" (Sip.Header.canonical_name "v");
  check_str "cseq" "CSeq" (Sip.Header.canonical_name "cseq");
  check_str "mixed case" "Max-Forwards" (Sip.Header.canonical_name "MAX-FORWARDS");
  check_str "unknown" "X-Custom-Thing" (Sip.Header.canonical_name "x-custom-thing")

let header_multi () =
  let h = Sip.Header.empty in
  let h = Sip.Header.add h "Via" "v1" in
  let h = Sip.Header.add h "Via" "v2" in
  let h = Sip.Header.add_first h "Via" "v0" in
  Alcotest.(check (list string)) "ordered" [ "v0"; "v1"; "v2" ] (Sip.Header.get_all h "Via");
  check "first" true (Sip.Header.get h "Via" = Some "v0");
  let h = Sip.Header.remove_first h "Via" in
  Alcotest.(check (list string)) "popped" [ "v1"; "v2" ] (Sip.Header.get_all h "Via")

let header_comma_split () =
  let h = Sip.Header.add Sip.Header.empty "Route" "<sip:a;lr>, <sip:b,c@x>, \"d,e\" <sip:f>" in
  Alcotest.(check (list string))
    "split respects brackets/quotes"
    [ "<sip:a;lr>"; "<sip:b,c@x>"; "\"d,e\" <sip:f>" ]
    (Sip.Header.get_all h "Route")

let header_set_remove () =
  let h = Sip.Header.add Sip.Header.empty "To" "x" in
  let h = Sip.Header.set h "To" "y" in
  check "replaced" true (Sip.Header.get h "To" = Some "y");
  let h = Sip.Header.remove_first h "To" in
  check "gone" true (Sip.Header.get h "To" = None)

(* ------------------------------------------------------------------ *)
(* Name-addr                                                           *)
(* ------------------------------------------------------------------ *)

let name_addr_display () =
  let na = ok (Sip.Name_addr.parse "\"Alice Smith\" <sip:alice@a.example>;tag=88sja8x") in
  check "display" true (na.Sip.Name_addr.display = Some "Alice Smith");
  check "tag" true (Sip.Name_addr.tag na = Some "88sja8x");
  check_str "uri host" "a.example" na.Sip.Name_addr.uri.Sip.Uri.host

let name_addr_bare () =
  (* Params after a bare addr-spec belong to the header (RFC 3261). *)
  let na = ok (Sip.Name_addr.parse "sip:bob@b.example;tag=99") in
  check "tag is header param" true (Sip.Name_addr.tag na = Some "99");
  check "uri has no params" true (na.Sip.Name_addr.uri.Sip.Uri.params = [])

let name_addr_roundtrip () =
  let na = ok (Sip.Name_addr.parse "<sip:x@y>;tag=1") in
  check_str "serialized" "<sip:x@y>;tag=1" (Sip.Name_addr.to_string na)

let name_addr_with_tag () =
  let na = ok (Sip.Name_addr.parse "<sip:x@y>") in
  check "no tag" true (Sip.Name_addr.tag na = None);
  let na = Sip.Name_addr.with_tag na "abc" in
  check "tag added" true (Sip.Name_addr.tag na = Some "abc");
  let na = Sip.Name_addr.with_tag na "def" in
  check "tag replaced" true (Sip.Name_addr.tag na = Some "def")

let name_addr_errors () =
  check "unmatched <" true (Result.is_error (Sip.Name_addr.parse "<sip:x@y"));
  check "bad uri" true (Result.is_error (Sip.Name_addr.parse "<nonsense>"))

(* ------------------------------------------------------------------ *)
(* Via / CSeq                                                          *)
(* ------------------------------------------------------------------ *)

let via_parse () =
  let v = ok (Sip.Via.parse "SIP/2.0/UDP pc33.example.com:5066;branch=z9hG4bK776;received=1.2.3.4") in
  check_str "transport" "UDP" v.Sip.Via.transport;
  check_str "host" "pc33.example.com" v.Sip.Via.host;
  check "port" true (v.Sip.Via.port = Some 5066);
  check "branch" true (Sip.Via.branch v = Some "z9hG4bK776");
  check "received" true (List.assoc_opt "received" v.Sip.Via.params = Some (Some "1.2.3.4"));
  check_str "sent-by" "pc33.example.com:5066" (Dsim.Addr.to_string (Sip.Via.sent_by v))

let via_default_port () =
  let v = ok (Sip.Via.parse "SIP/2.0/UDP host.example") in
  check_int "default 5060" 5060 (Dsim.Addr.port (Sip.Via.sent_by v))

let via_roundtrip () =
  let s = "SIP/2.0/UDP h:5060;branch=z9hG4bKxyz" in
  check_str "roundtrip" s (Sip.Via.to_string (ok (Sip.Via.parse s)))

let via_errors () =
  check "bad protocol" true (Result.is_error (Sip.Via.parse "SIP/1.0/UDP h"));
  check "no sent-by" true (Result.is_error (Sip.Via.parse "SIP/2.0/UDP"));
  check "bad port" true (Result.is_error (Sip.Via.parse "SIP/2.0/UDP h:x"))

let cseq_parse () =
  let c = ok (Sip.Cseq.parse "314159 INVITE") in
  check_int "number" 314159 c.Sip.Cseq.number;
  check "method" true (Sip.Msg_method.equal c.Sip.Cseq.meth Sip.Msg_method.INVITE);
  check_str "roundtrip" "314159 INVITE" (Sip.Cseq.to_string c)

let cseq_errors () =
  check "garbage" true (Result.is_error (Sip.Cseq.parse "xyz"));
  check "negative" true (Result.is_error (Sip.Cseq.parse "-1 INVITE"))

let method_extension () =
  check "unknown method kept" true
    (Sip.Msg_method.of_string "FOOBAR" = Sip.Msg_method.Extension "FOOBAR");
  check_str "roundtrip" "FOOBAR" (Sip.Msg_method.to_string (Sip.Msg_method.of_string "FOOBAR"));
  check "standard" true (Sip.Msg_method.of_string "INVITE" = Sip.Msg_method.INVITE)

let status_classes () =
  check "180 provisional" true (Sip.Status.is_provisional 180);
  check "200 final" true (Sip.Status.is_final 200);
  check "200 success" true (Sip.Status.is_success 200);
  check "486 not success" false (Sip.Status.is_success 486);
  check_str "reason" "Ringing" (Sip.Status.reason_phrase 180);
  check_str "busy" "Busy Here" (Sip.Status.reason_phrase 486)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

let sample_invite_text =
  "INVITE sip:bob@b.example SIP/2.0\r\n\
   Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKabc1\r\n\
   Max-Forwards: 70\r\n\
   From: \"Alice\" <sip:alice@a.example>;tag=t-alice\r\n\
   To: <sip:bob@b.example>\r\n\
   Call-ID: cid-1@10.1.0.10\r\n\
   CSeq: 1 INVITE\r\n\
   Contact: <sip:alice@10.1.0.10:5060>\r\n\
   Content-Type: application/sdp\r\n\
   Content-Length: 23\r\n\
   \r\n\
   v=0\r\no=a 0 0 IN IP4 h\r\n"

let msg_parse_request () =
  let m = ok (Sip.Msg.parse sample_invite_text) in
  check "is request" true (match m.Sip.Msg.start with Sip.Msg.Request _ -> true | _ -> false);
  check "method" true (Sip.Msg.method_of m = Some Sip.Msg_method.INVITE);
  check_str "call-id" "cid-1@10.1.0.10" (ok (Sip.Msg.call_id m));
  check "from tag" true (Sip.Name_addr.tag (ok (Sip.Msg.from_ m)) = Some "t-alice");
  check "to untagged" true (Sip.Name_addr.tag (ok (Sip.Msg.to_ m)) = None);
  check_int "body trimmed to content-length" 23 (String.length m.Sip.Msg.body);
  check "max-forwards" true (Sip.Header.get m.Sip.Msg.headers "Max-Forwards" = Some "70");
  check "content type" true (Sip.Msg.content_type_is m "application/sdp")

let msg_parse_response () =
  let text = "SIP/2.0 180 Ringing\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\nFrom: <sip:a@x>;tag=1\r\nTo: <sip:b@y>;tag=2\r\nCall-ID: c1\r\nCSeq: 1 INVITE\r\n\r\n" in
  let m = ok (Sip.Msg.parse text) in
  check "is response" true (Sip.Msg.is_response m);
  check "code" true (Sip.Msg.status_of m = Some 180);
  check "cseq method drives method_of" true (Sip.Msg.method_of m = Some Sip.Msg_method.INVITE)

let msg_serialize_roundtrip () =
  let m = ok (Sip.Msg.parse sample_invite_text) in
  let m2 = ok (Sip.Msg.parse (Sip.Msg.serialize m)) in
  check_str "call-id preserved" (ok (Sip.Msg.call_id m)) (ok (Sip.Msg.call_id m2));
  check_str "body preserved" m.Sip.Msg.body m2.Sip.Msg.body;
  check "start preserved" true (Sip.Msg.method_of m2 = Some Sip.Msg_method.INVITE)

let msg_folding () =
  let text =
    "OPTIONS sip:x SIP/2.0\r\nVia: SIP/2.0/UDP h\r\nSubject: first\r\n second\r\nCall-ID: c\r\nCSeq: 1 OPTIONS\r\nFrom: <sip:a@x>\r\nTo: <sip:b@y>\r\n\r\n"
  in
  let m = ok (Sip.Msg.parse text) in
  check "folded header joined" true
    (Sip.Header.get m.Sip.Msg.headers "Subject" = Some "first second")

let msg_lf_only () =
  let text = "OPTIONS sip:x SIP/2.0\nVia: SIP/2.0/UDP h\nCall-ID: c\nCSeq: 1 OPTIONS\nFrom: <sip:a@x>\nTo: <sip:b@y>\n\n" in
  check "parses with bare LF" true (Result.is_ok (Sip.Msg.parse text))

let msg_compact_forms () =
  let text = "OPTIONS sip:x SIP/2.0\r\nv: SIP/2.0/UDP h;branch=z9hG4bK1\r\ni: compact-cid\r\nf: <sip:a@x>;tag=1\r\nt: <sip:b@y>\r\nCSeq: 1 OPTIONS\r\n\r\n" in
  let m = ok (Sip.Msg.parse text) in
  check_str "compact call-id" "compact-cid" (ok (Sip.Msg.call_id m));
  check "compact via" true (Result.is_ok (Sip.Msg.top_via m))

let msg_parse_errors () =
  check "empty" true (Result.is_error (Sip.Msg.parse ""));
  check "garbage start" true (Result.is_error (Sip.Msg.parse "HELLO WORLD\r\n\r\n"));
  check "bad status" true (Result.is_error (Sip.Msg.parse "SIP/2.0 abc Oops\r\n\r\n"));
  check "status out of range" true (Result.is_error (Sip.Msg.parse "SIP/2.0 99 Low\r\n\r\n"));
  check "content-length too large" true
    (Result.is_error
       (Sip.Msg.parse "OPTIONS sip:x SIP/2.0\r\nContent-Length: 99\r\n\r\nshort"));
  check "header without colon" true
    (Result.is_error (Sip.Msg.parse "OPTIONS sip:x SIP/2.0\r\nBadHeader\r\n\r\n"))

let msg_response_to () =
  let req = ok (Sip.Msg.parse sample_invite_text) in
  let resp = Sip.Msg.response_to req ~code:180 ~to_tag:"t-bob" () in
  check "code" true (Sip.Msg.status_of resp = Some 180);
  check_str "call-id copied" "cid-1@10.1.0.10" (ok (Sip.Msg.call_id resp));
  check "to tag added" true (Sip.Name_addr.tag (ok (Sip.Msg.to_ resp)) = Some "t-bob");
  check "from copied" true (Sip.Name_addr.tag (ok (Sip.Msg.from_ resp)) = Some "t-alice");
  check "via copied" true (Result.is_ok (Sip.Msg.top_via resp));
  (* The CSeq of a response mirrors the request. *)
  check "cseq" true (ok (Sip.Msg.cseq resp) = ok (Sip.Msg.cseq req))

let msg_response_to_keeps_existing_tag () =
  let text = String.concat "\r\n"
    [ "BYE sip:bob@b.example SIP/2.0"; "Via: SIP/2.0/UDP h;branch=z9hG4bK2";
      "From: <sip:a@x>;tag=1"; "To: <sip:b@y>;tag=2"; "Call-ID: c"; "CSeq: 2 BYE"; ""; "" ]
  in
  let req = ok (Sip.Msg.parse text) in
  let resp = Sip.Msg.response_to req ~code:200 ~to_tag:"should-not-win" () in
  check "existing tag kept" true (Sip.Name_addr.tag (ok (Sip.Msg.to_ resp)) = Some "2")

let msg_ack_for () =
  let req = ok (Sip.Msg.parse sample_invite_text) in
  let resp = Sip.Msg.response_to req ~code:486 ~to_tag:"t-bob" () in
  let ack = Sip.Msg.ack_for req ~response:resp in
  check "is ACK" true (Sip.Msg.method_of ack = Some Sip.Msg_method.ACK);
  (* Same branch as the INVITE (RFC 3261 §17.1.1.3). *)
  check "same branch" true
    (Sip.Via.branch (ok (Sip.Msg.top_via ack)) = Sip.Via.branch (ok (Sip.Msg.top_via req)));
  check "to has remote tag" true (Sip.Name_addr.tag (ok (Sip.Msg.to_ ack)) = Some "t-bob");
  let cseq = ok (Sip.Msg.cseq ack) in
  check_int "cseq number preserved" 1 cseq.Sip.Cseq.number

let msg_via_stack () =
  let m = ok (Sip.Msg.parse sample_invite_text) in
  let v2 = Sip.Via.make ~port:5060 ~branch:"z9hG4bKproxy" "10.9.9.9" in
  let m = Sip.Msg.push_via m v2 in
  check_int "two vias" 2 (List.length (Sip.Header.get_all m.Sip.Msg.headers "Via"));
  check_str "top is proxy" "10.9.9.9" (ok (Sip.Msg.top_via m)).Sip.Via.host;
  let m = Sip.Msg.pop_via m in
  check_str "popped back" "10.1.0.10" (ok (Sip.Msg.top_via m)).Sip.Via.host

let msg_max_forwards () =
  let m = ok (Sip.Msg.parse sample_invite_text) in
  let m = Result.get_ok (Sip.Msg.decrement_max_forwards m) in
  check "69" true (Sip.Header.get m.Sip.Msg.headers "Max-Forwards" = Some "69");
  let exhausted =
    { m with Sip.Msg.headers = Sip.Header.set m.Sip.Msg.headers "Max-Forwards" "0" }
  in
  check "exhausted" true (Sip.Msg.decrement_max_forwards exhausted = Error `Exhausted)

let msg_transaction_keys () =
  let m = ok (Sip.Msg.parse sample_invite_text) in
  let key = ok (Sip.Msg.transaction_key m) in
  check "key mentions branch" true
    (String.length key > 0 && String.sub key 0 11 = "z9hG4bKabc1");
  (* ACK folds to INVITE's key. *)
  let resp = Sip.Msg.response_to m ~code:486 ~to_tag:"x" () in
  let ack = Sip.Msg.ack_for m ~response:resp in
  check_str "ack matches invite txn" key (ok (Sip.Msg.transaction_key ack))

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

(* An in-memory loopback transport: records sends, allows loss injection. *)
type loop = { sched : Dsim.Scheduler.t; mutable sent : Sip.Msg.t list; mutable drop : int }

let make_loop () =
  let sched = Dsim.Scheduler.create () in
  let loop = { sched; sent = []; drop = 0 } in
  let transport =
    {
      Sip.Transaction.sched;
      send =
        (fun msg _dst ->
          if loop.drop > 0 then loop.drop <- loop.drop - 1
          else loop.sent <- msg :: loop.sent);
    }
  in
  (loop, transport)

let sample_invite () = ok (Sip.Msg.parse sample_invite_text)

let dst = Dsim.Addr.v "10.2.0.2" 5060

let client_invite_retransmits () =
  let loop, transport = make_loop () in
  let timeout = ref false in
  let _txn =
    Sip.Transaction.Client.create transport (sample_invite ()) ~dst
      ~on_response:(fun _ -> ())
      ~on_timeout:(fun () -> timeout := true)
      ~on_terminated:(fun () -> ())
  in
  (* Timer A doubles: sends at 0, .5, 1.5, 3.5, 7.5, 15.5, 31.5 then B at 32. *)
  Dsim.Scheduler.run_until loop.sched (Dsim.Time.of_sec 40.0);
  check_int "7 transmissions" 7 (List.length loop.sent);
  check "timed out" true !timeout

let client_invite_1xx_stops_retransmit () =
  let loop, transport = make_loop () in
  let got = ref [] in
  let txn =
    Sip.Transaction.Client.create transport (sample_invite ()) ~dst
      ~on_response:(fun r -> got := r :: !got)
      ~on_timeout:(fun () -> Alcotest.fail "no timeout expected")
      ~on_terminated:(fun () -> ())
  in
  Dsim.Scheduler.run_until loop.sched (Dsim.Time.of_ms 100.0);
  let ringing = Sip.Msg.response_to (sample_invite ()) ~code:180 ~to_tag:"b" () in
  Sip.Transaction.Client.receive txn ringing;
  check "proceeding" true (Sip.Transaction.Client.state txn = Sip.Transaction.Client.Proceeding);
  Dsim.Scheduler.run_until loop.sched (Dsim.Time.of_sec 10.0);
  check_int "no further retransmission" 1 (List.length loop.sent);
  check_int "response delivered" 1 (List.length !got)

let client_invite_2xx_terminates () =
  let loop, transport = make_loop () in
  let txn =
    Sip.Transaction.Client.create transport (sample_invite ()) ~dst
      ~on_response:(fun _ -> ())
      ~on_timeout:(fun () -> ())
      ~on_terminated:(fun () -> ())
  in
  Sip.Transaction.Client.receive txn
    (Sip.Msg.response_to (sample_invite ()) ~code:200 ~to_tag:"b" ());
  check "terminated on 2xx" true
    (Sip.Transaction.Client.state txn = Sip.Transaction.Client.Terminated);
  ignore loop

let client_invite_failure_acks () =
  let loop, transport = make_loop () in
  let txn =
    Sip.Transaction.Client.create transport (sample_invite ()) ~dst
      ~on_response:(fun _ -> ())
      ~on_timeout:(fun () -> ())
      ~on_terminated:(fun () -> ())
  in
  let busy = Sip.Msg.response_to (sample_invite ()) ~code:486 ~to_tag:"b" () in
  Sip.Transaction.Client.receive txn busy;
  check "completed" true (Sip.Transaction.Client.state txn = Sip.Transaction.Client.Completed);
  let acks =
    List.filter (fun m -> Sip.Msg.method_of m = Some Sip.Msg_method.ACK) loop.sent
  in
  check_int "auto ACK sent" 1 (List.length acks);
  (* A retransmitted 486 triggers an ACK retransmission. *)
  Sip.Transaction.Client.receive txn busy;
  let acks =
    List.filter (fun m -> Sip.Msg.method_of m = Some Sip.Msg_method.ACK) loop.sent
  in
  check_int "ACK retransmitted" 2 (List.length acks)

let client_non_invite_caps_at_t2 () =
  let loop, transport = make_loop () in
  let options =
    Sip.Msg.request ~meth:Sip.Msg_method.OPTIONS ~uri:(ok (Sip.Uri.parse "sip:x"))
      ~via:(Sip.Via.make ~branch:"z9hG4bKo1" "h")
      ~from_:(Sip.Name_addr.make ~params:[ ("tag", Some "1") ] (ok (Sip.Uri.parse "sip:a@x")))
      ~to_:(Sip.Name_addr.make (ok (Sip.Uri.parse "sip:b@y")))
      ~call_id:"c-opt" ~cseq:(Sip.Cseq.make 1 Sip.Msg_method.OPTIONS) ()
  in
  let timeout = ref false in
  let _txn =
    Sip.Transaction.Client.create transport options ~dst
      ~on_response:(fun _ -> ())
      ~on_timeout:(fun () -> timeout := true)
      ~on_terminated:(fun () -> ())
  in
  Dsim.Scheduler.run_until loop.sched (Dsim.Time.of_sec 40.0);
  (* Timer E: .5,1,2,4,4,4... until F at 32 s: sends at 0,.5,1.5,3.5,7.5,11.5,
     15.5,19.5,23.5,27.5,31.5 = 11 *)
  check_int "11 transmissions" 11 (List.length loop.sent);
  check "timed out" true !timeout

let server_invite_retransmits_final () =
  let loop, transport = make_loop () in
  let invite = sample_invite () in
  let txn =
    Sip.Transaction.Server.create transport invite ~src:dst
      ~on_ack:(fun _ -> ())
      ~on_terminated:(fun () -> ())
  in
  Sip.Transaction.Server.respond txn (Sip.Msg.response_to invite ~code:486 ~to_tag:"b" ());
  Dsim.Scheduler.run_until loop.sched (Dsim.Time.of_sec 2.0);
  (* Timer G: 0, .5, 1.5 within 2 s -> 3 transmissions. *)
  check_int "response retransmitted" 3 (List.length loop.sent);
  check "completed" true (Sip.Transaction.Server.state txn = Sip.Transaction.Server.Completed)

let server_invite_ack_confirms () =
  let loop, transport = make_loop () in
  let invite = sample_invite () in
  let acked = ref false in
  let txn =
    Sip.Transaction.Server.create transport invite ~src:dst
      ~on_ack:(fun _ -> acked := true)
      ~on_terminated:(fun () -> ())
  in
  let resp = Sip.Msg.response_to invite ~code:486 ~to_tag:"b" () in
  Sip.Transaction.Server.respond txn resp;
  let ack = Sip.Msg.ack_for invite ~response:resp in
  Sip.Transaction.Server.receive txn ack;
  check "confirmed" true (Sip.Transaction.Server.state txn = Sip.Transaction.Server.Confirmed);
  check "ack delivered" true !acked;
  Dsim.Scheduler.run_until loop.sched (Dsim.Time.of_sec 10.0);
  check "terminated after timer I" true
    (Sip.Transaction.Server.state txn = Sip.Transaction.Server.Terminated);
  check_int "no retransmissions after ACK" 1 (List.length loop.sent)

let server_invite_2xx_accepted () =
  let loop, transport = make_loop () in
  let invite = sample_invite () in
  let txn =
    Sip.Transaction.Server.create transport invite ~src:dst
      ~on_ack:(fun _ -> ())
      ~on_terminated:(fun () -> ())
  in
  Sip.Transaction.Server.respond txn (Sip.Msg.response_to invite ~code:200 ~to_tag:"b" ());
  check "accepted" true (Sip.Transaction.Server.state txn = Sip.Transaction.Server.Accepted);
  Dsim.Scheduler.run_until loop.sched (Dsim.Time.of_sec 1.0);
  (* 2xx retransmitted until ACK (RFC 6026): 0 and .5 within 1 s. *)
  check_int "2xx retransmitted" 2 (List.length loop.sent)

let server_request_retransmission_replays () =
  let loop, transport = make_loop () in
  let invite = sample_invite () in
  let txn =
    Sip.Transaction.Server.create transport invite ~src:dst
      ~on_ack:(fun _ -> ())
      ~on_terminated:(fun () -> ())
  in
  Sip.Transaction.Server.respond txn (Sip.Msg.response_to invite ~code:180 ~to_tag:"b" ());
  check_int "one response" 1 (List.length loop.sent);
  Sip.Transaction.Server.receive txn invite;
  check_int "replayed provisional" 2 (List.length loop.sent);
  ignore loop

(* ------------------------------------------------------------------ *)
(* Identifiers                                                         *)
(* ------------------------------------------------------------------ *)

let ident_unique () =
  let id = Sip.Ident.create (Dsim.Rng.create 1) in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    let b = Sip.Ident.branch id in
    check "branch has cookie" true (String.length b > 7 && String.sub b 0 7 = "z9hG4bK");
    check "unique" false (Hashtbl.mem seen b);
    Hashtbl.replace seen b ()
  done

let suite =
  [
    ( "sip.uri",
      [
        tc "full" uri_full;
        tc "minimal" uri_minimal;
        tc "roundtrip" uri_roundtrip;
        tc "errors" uri_errors;
      ] );
    ( "sip.header",
      [
        tc "canonical names" header_canonical;
        tc "multi-value order" header_multi;
        tc "comma split" header_comma_split;
        tc "set/remove" header_set_remove;
      ] );
    ( "sip.name_addr",
      [
        tc "display+tag" name_addr_display;
        tc "bare addr-spec" name_addr_bare;
        tc "roundtrip" name_addr_roundtrip;
        tc "with_tag" name_addr_with_tag;
        tc "errors" name_addr_errors;
      ] );
    ( "sip.via+cseq",
      [
        tc "via parse" via_parse;
        tc "via default port" via_default_port;
        tc "via roundtrip" via_roundtrip;
        tc "via errors" via_errors;
        tc "cseq" cseq_parse;
        tc "cseq errors" cseq_errors;
        tc "method extension" method_extension;
        tc "status classes" status_classes;
      ] );
    ( "sip.msg",
      [
        tc "parse request" msg_parse_request;
        tc "parse response" msg_parse_response;
        tc "serialize roundtrip" msg_serialize_roundtrip;
        tc "header folding" msg_folding;
        tc "LF-only lines" msg_lf_only;
        tc "compact forms" msg_compact_forms;
        tc "parse errors" msg_parse_errors;
        tc "response_to" msg_response_to;
        tc "response_to keeps tag" msg_response_to_keeps_existing_tag;
        tc "ack_for" msg_ack_for;
        tc "via stack" msg_via_stack;
        tc "max-forwards" msg_max_forwards;
        tc "transaction keys" msg_transaction_keys;
      ] );
    ( "sip.transaction",
      [
        tc "invite client retransmits + times out" client_invite_retransmits;
        tc "1xx stops retransmission" client_invite_1xx_stops_retransmit;
        tc "2xx terminates client" client_invite_2xx_terminates;
        tc "failure auto-ACKs" client_invite_failure_acks;
        tc "non-invite E/F timers" client_non_invite_caps_at_t2;
        tc "server retransmits final" server_invite_retransmits_final;
        tc "ACK confirms server" server_invite_ack_confirms;
        tc "2xx accepted state" server_invite_2xx_accepted;
        tc "request retransmission replays" server_request_retransmission_replays;
      ] );
    ( "sip.dialog",
      [
        tc "ident uniqueness" ident_unique;
      ] );
  ]
