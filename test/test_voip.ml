(* Unit tests for the voip layer: transport, transaction manager, proxy,
   location service, call generator, attack forgery. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

(* A two-node network with a transport on each end. *)
type net_rig = {
  sched : Dsim.Scheduler.t;
  net : Dsim.Network.t;
  left : Voip.Transport.t;
  right : Voip.Transport.t;
  right_node : Dsim.Network.node;
}

let make_net () =
  let sched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create sched (Dsim.Rng.create 5) in
  let a = Dsim.Network.add_node net ~name:"left" ~hosts:[ "10.0.0.1" ] in
  let b = Dsim.Network.add_node net ~name:"right" ~hosts:[ "10.0.0.2" ] in
  Dsim.Network.connect net a b ~rate_bps:0.0 ~prop_delay:(Dsim.Time.of_ms 5.0) ~loss_prob:0.0;
  {
    sched;
    net;
    left = Voip.Transport.create net a ~local:(Dsim.Addr.v "10.0.0.1" 5060);
    right = Voip.Transport.create net b ~local:(Dsim.Addr.v "10.0.0.2" 5060);
    right_node = b;
  }

let options_msg ?(call_id = "c-opt") ?(branch = "z9hG4bKopt") () =
  Sip.Msg.request ~meth:Sip.Msg_method.OPTIONS
    ~uri:(ok (Sip.Uri.parse "sip:svc@10.0.0.2"))
    ~via:(Sip.Via.make ~port:5060 ~branch "10.0.0.1")
    ~from_:(Sip.Name_addr.make ~params:[ ("tag", Some "t1") ] (ok (Sip.Uri.parse "sip:a@x")))
    ~to_:(Sip.Name_addr.make (ok (Sip.Uri.parse "sip:svc@10.0.0.2")))
    ~call_id
    ~cseq:(Sip.Cseq.make 1 Sip.Msg_method.OPTIONS)
    ()

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)
(* ------------------------------------------------------------------ *)

let transport_delivers_msg () =
  let rig = make_net () in
  let got = ref None in
  Dsim.Network.set_handler rig.right_node (fun packet ->
      got := Some packet.Dsim.Packet.payload);
  Voip.Transport.send_msg rig.left (options_msg ()) (Dsim.Addr.v "10.0.0.2" 5060);
  Dsim.Scheduler.run rig.sched;
  match !got with
  | Some payload -> check "parses back" true (Result.is_ok (Sip.Msg.parse payload))
  | None -> Alcotest.fail "not delivered"

let transport_raw_chooses_src () =
  let rig = make_net () in
  let got = ref None in
  Dsim.Network.set_handler rig.right_node (fun packet -> got := Some packet.Dsim.Packet.src);
  Voip.Transport.send_raw rig.left ~src:(Dsim.Addr.v "10.0.0.1" 40000)
    ~dst:(Dsim.Addr.v "10.0.0.2" 30000) "payload";
  Dsim.Scheduler.run rig.sched;
  check "spoofable source" true (!got = Some (Dsim.Addr.v "10.0.0.1" 40000))

(* ------------------------------------------------------------------ *)
(* Transaction manager                                                 *)
(* ------------------------------------------------------------------ *)

type mgr_log = {
  mutable requests : Sip.Msg.t list;
  mutable cancels : (Sip.Msg.t * Sip.Transaction.Server.t option) list;
  mutable acks : Sip.Msg.t list;
  mutable strays : Sip.Msg.t list;
}

let make_mgr transport =
  let log = { requests = []; cancels = []; acks = []; strays = [] } in
  let callbacks =
    {
      Voip.Txn_manager.on_request = (fun msg ~src:_ _txn -> log.requests <- msg :: log.requests);
      on_cancel = (fun msg ~src:_ txn -> log.cancels <- (msg, txn) :: log.cancels);
      on_ack = (fun msg ~src:_ -> log.acks <- msg :: log.acks);
      on_stray_response = (fun msg ~src:_ -> log.strays <- msg :: log.strays);
    }
  in
  (Voip.Txn_manager.create transport callbacks, log)

let packet_of rig msg = Dsim.Network.make_packet rig.net ~src:(Dsim.Addr.v "10.0.0.1" 5060)
    ~dst:(Dsim.Addr.v "10.0.0.2" 5060) (Sip.Msg.serialize msg)

let mgr_creates_server_txn_once () =
  let rig = make_net () in
  let mgr, log = make_mgr rig.right in
  let msg = options_msg () in
  Voip.Txn_manager.handle_packet mgr (packet_of rig msg);
  Voip.Txn_manager.handle_packet mgr (packet_of rig msg);
  check_int "TU saw the request once" 1 (List.length log.requests)

let mgr_matches_response_to_client () =
  let rig = make_net () in
  let mgr, log = make_mgr rig.left in
  let got = ref [] in
  let msg = options_msg () in
  ignore
    (Voip.Txn_manager.request mgr msg
       ~dst:(Dsim.Addr.v "10.0.0.2" 5060)
       ~on_response:(fun r -> got := r :: !got)
       ~on_timeout:(fun () -> ()));
  let response = Sip.Msg.response_to msg ~code:200 ~to_tag:"x" () in
  Voip.Txn_manager.handle_packet mgr
    (Dsim.Network.make_packet rig.net ~src:(Dsim.Addr.v "10.0.0.2" 5060)
       ~dst:(Dsim.Addr.v "10.0.0.1" 5060) (Sip.Msg.serialize response));
  check_int "delivered" 1 (List.length !got);
  check_int "no strays" 0 (List.length log.strays)

let mgr_stray_response () =
  let rig = make_net () in
  let mgr, log = make_mgr rig.left in
  let response = Sip.Msg.response_to (options_msg ()) ~code:200 ~to_tag:"x" () in
  Voip.Txn_manager.handle_packet mgr
    (Dsim.Network.make_packet rig.net ~src:(Dsim.Addr.v "10.0.0.2" 5060)
       ~dst:(Dsim.Addr.v "10.0.0.1" 5060) (Sip.Msg.serialize response));
  check_int "stray surfaced" 1 (List.length log.strays)

let mgr_cancel_unmatched_481 () =
  let rig = make_net () in
  let sent = ref [] in
  Dsim.Network.set_handler rig.right_node (fun _ -> ());
  (* Watch what the manager sends back. *)
  let watch_transport = rig.right in
  let mgr, log = make_mgr watch_transport in
  Dsim.Network.set_tap rig.right_node None;
  let cancel =
    Attack.Forge.spoofed_cancel ~call_id:"nope"
      ~target_uri:(ok (Sip.Uri.parse "sip:svc@10.0.0.2"))
      ~from_uri:(ok (Sip.Uri.parse "sip:a@x"))
      ~from_tag:"t9" ~via_host:"10.0.0.1" ~branch:"z9hG4bKnope" ~cseq:1 ()
  in
  (* Capture the 481 on the left node. *)
  (match Dsim.Network.find_node rig.net ~host:"10.0.0.1" with
  | Some left_node -> Dsim.Network.set_handler left_node (fun p -> sent := p :: !sent)
  | None -> Alcotest.fail "left node");
  Voip.Txn_manager.handle_packet mgr (packet_of rig cancel);
  Dsim.Scheduler.run rig.sched;
  check_int "on_cancel with no txn" 1 (List.length log.cancels);
  (match log.cancels with
  | [ (_, None) ] -> ()
  | _ -> Alcotest.fail "expected no matching INVITE txn");
  match !sent with
  | [ p ] -> (
      match Sip.Msg.parse p.Dsim.Packet.payload with
      | Ok resp -> check "481 returned" true (Sip.Msg.status_of resp = Some 481)
      | Error _ -> Alcotest.fail "unparsable response")
  | _ -> Alcotest.fail "expected exactly one response"

(* ------------------------------------------------------------------ *)
(* Proxy                                                               *)
(* ------------------------------------------------------------------ *)

type proxy_rig = {
  p_sched : Dsim.Scheduler.t;
  p_net : Dsim.Network.t;
  proxy : Voip.Proxy.t;
  ua_node : Dsim.Network.node;
  far_node : Dsim.Network.node;
}

let make_proxy ?record_route () =
  let sched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create sched (Dsim.Rng.create 9) in
  let proxy_node = Dsim.Network.add_node net ~name:"proxy" ~hosts:[ "10.0.0.9" ] in
  let ua_node = Dsim.Network.add_node net ~name:"ua" ~hosts:[ "10.0.0.1" ] in
  let far_node = Dsim.Network.add_node net ~name:"far" ~hosts:[ "10.9.9.9" ] in
  let lan a b = Dsim.Network.connect net a b ~rate_bps:0.0 ~prop_delay:(Dsim.Time.of_ms 1.0) ~loss_prob:0.0 in
  lan ua_node proxy_node;
  lan proxy_node far_node;
  let dns domain = if domain = "far.example" then Some (Dsim.Addr.v "10.9.9.9" 5060) else None in
  let proxy =
    Voip.Proxy.create ?record_route
      (Voip.Transport.create net proxy_node ~local:(Dsim.Addr.v "10.0.0.9" 5060))
      ~domain:"home.example" ~dns
  in
  Dsim.Network.set_handler proxy_node (Voip.Proxy.handle_packet proxy);
  { p_sched = sched; p_net = net; proxy; ua_node; far_node }

let send_to_proxy rig msg =
  let packet =
    Dsim.Network.make_packet rig.p_net ~src:(Dsim.Addr.v "10.0.0.1" 5060)
      ~dst:(Dsim.Addr.v "10.0.0.9" 5060) (Sip.Msg.serialize msg)
  in
  Dsim.Network.send rig.p_net ~from:rig.ua_node packet

let invite_to domain user =
  Sip.Msg.request ~meth:Sip.Msg_method.INVITE
    ~uri:(Sip.Uri.make ~user domain)
    ~via:(Sip.Via.make ~port:5060 ~branch:"z9hG4bKpx" "10.0.0.1")
    ~from_:(Sip.Name_addr.make ~params:[ ("tag", Some "t1") ] (Sip.Uri.make ~user:"me" "home.example"))
    ~to_:(Sip.Name_addr.make (Sip.Uri.make ~user domain))
    ~call_id:"c-proxy"
    ~cseq:(Sip.Cseq.make 1 Sip.Msg_method.INVITE)
    ~contact:(Sip.Name_addr.make (Sip.Uri.make ~user:"me" ~port:5060 "10.0.0.1"))
    ()

let proxy_registers_and_routes () =
  let rig = make_proxy () in
  (* Register a local user. *)
  let register =
    Sip.Msg.request ~meth:Sip.Msg_method.REGISTER
      ~uri:(Sip.Uri.make "home.example")
      ~via:(Sip.Via.make ~port:5060 ~branch:"z9hG4bKr1" "10.0.0.1")
      ~from_:(Sip.Name_addr.make ~params:[ ("tag", Some "t") ] (Sip.Uri.make ~user:"me" "home.example"))
      ~to_:(Sip.Name_addr.make (Sip.Uri.make ~user:"me" "home.example"))
      ~call_id:"c-reg"
      ~cseq:(Sip.Cseq.make 1 Sip.Msg_method.REGISTER)
      ~contact:(Sip.Name_addr.make (Sip.Uri.make ~user:"me" ~port:5060 "10.0.0.1"))
      ()
  in
  send_to_proxy rig register;
  Dsim.Scheduler.run rig.p_sched;
  check "location bound" true
    (Voip.Location.lookup (Voip.Proxy.location rig.proxy) ~aor:"me@home.example"
    = Some (Dsim.Addr.v "10.0.0.1" 5060));
  (* An INVITE to that user routes back to its contact. *)
  let delivered = ref None in
  Dsim.Network.set_handler rig.ua_node (fun p -> delivered := Some p);
  send_to_proxy rig (invite_to "home.example" "me");
  Dsim.Scheduler.run rig.p_sched;
  (match !delivered with
  | Some p -> (
      match Sip.Msg.parse p.Dsim.Packet.payload with
      | Ok msg ->
          check_int "proxy pushed a via" 2 (List.length (Sip.Header.get_all msg.Sip.Msg.headers "Via"));
          check "max-forwards decremented" true
            (Sip.Header.get msg.Sip.Msg.headers "Max-Forwards" = Some "69")
      | Error _ -> Alcotest.fail "unparsable")
  | None -> Alcotest.fail "not routed to contact");
  check_int "forwarded" 1 (Voip.Proxy.requests_forwarded rig.proxy)

let proxy_foreign_domain_via_dns () =
  let rig = make_proxy () in
  let delivered = ref false in
  Dsim.Network.set_handler rig.far_node (fun _ -> delivered := true);
  send_to_proxy rig (invite_to "far.example" "bob");
  Dsim.Scheduler.run rig.p_sched;
  check "reached far proxy" true !delivered

let proxy_unknown_user_404 () =
  let rig = make_proxy () in
  let response = ref None in
  Dsim.Network.set_handler rig.ua_node (fun p -> response := Some p);
  send_to_proxy rig (invite_to "home.example" "ghost");
  Dsim.Scheduler.run rig.p_sched;
  match !response with
  | Some p -> (
      match Sip.Msg.parse p.Dsim.Packet.payload with
      | Ok msg -> check "404" true (Sip.Msg.status_of msg = Some 404)
      | Error _ -> Alcotest.fail "unparsable")
  | None -> Alcotest.fail "no response"

let proxy_max_forwards_483 () =
  let rig = make_proxy () in
  let invite = invite_to "far.example" "bob" in
  let exhausted =
    { invite with Sip.Msg.headers = Sip.Header.set invite.Sip.Msg.headers "Max-Forwards" "0" }
  in
  let response = ref None in
  Dsim.Network.set_handler rig.ua_node (fun p -> response := Some p);
  send_to_proxy rig exhausted;
  Dsim.Scheduler.run rig.p_sched;
  match !response with
  | Some p -> (
      match Sip.Msg.parse p.Dsim.Packet.payload with
      | Ok msg -> check "483" true (Sip.Msg.status_of msg = Some 483)
      | Error _ -> Alcotest.fail "unparsable")
  | None -> Alcotest.fail "no response"

(* RFC 3261 §16.3 step 1: a Max-Forwards that cannot be read is a 400,
   never a fresh hop count of 70 that a forwarding loop would renew at
   every hop. *)
let proxy_bad_max_forwards_400 () =
  List.iter
    (fun value ->
      let rig = make_proxy () in
      let invite = invite_to "far.example" "bob" in
      let bad =
        { invite with Sip.Msg.headers = Sip.Header.set invite.Sip.Msg.headers "Max-Forwards" value }
      in
      let response = ref None and relayed = ref false in
      Dsim.Network.set_handler rig.ua_node (fun p -> response := Some p);
      Dsim.Network.set_handler rig.far_node (fun _ -> relayed := true);
      send_to_proxy rig bad;
      Dsim.Scheduler.run rig.p_sched;
      check (Printf.sprintf "%S not relayed" value) false !relayed;
      match !response with
      | Some p -> (
          match Sip.Msg.parse p.Dsim.Packet.payload with
          | Ok msg ->
              check (Printf.sprintf "%S answered 400" value) true
                (Sip.Msg.status_of msg = Some 400)
          | Error _ -> Alcotest.fail "unparsable")
      | None -> Alcotest.failf "%S: no response" value)
    [ "0x46"; "+5"; "abc"; "-1"; "" ]

let proxy_record_route_inserts () =
  let rig = make_proxy ~record_route:true () in
  let delivered = ref None in
  Dsim.Network.set_handler rig.far_node (fun p -> delivered := Some p);
  send_to_proxy rig (invite_to "far.example" "bob");
  Dsim.Scheduler.run rig.p_sched;
  match !delivered with
  | Some p -> (
      match Sip.Msg.parse p.Dsim.Packet.payload with
      | Ok msg ->
          check_int "record-route present" 1
            (List.length (Sip.Header.get_all msg.Sip.Msg.headers "Record-Route"))
      | Error _ -> Alcotest.fail "unparsable")
  | None -> Alcotest.fail "not forwarded"

let proxy_loose_route_forwarding () =
  let rig = make_proxy () in
  (* A request whose Route names this proxy, with the final target a raw
     contact address: the proxy pops its Route and forwards directly. *)
  let invite = invite_to "elsewhere.example" "bob" in
  let routed =
    {
      invite with
      Sip.Msg.headers =
        Sip.Header.add_first invite.Sip.Msg.headers "Route" "<sip:10.0.0.9:5060;lr>";
      start =
        Sip.Msg.Request
          {
            meth = Sip.Msg_method.INVITE;
            uri = ok (Sip.Uri.parse "sip:bob@10.9.9.9:5060");
          };
    }
  in
  let delivered = ref None in
  Dsim.Network.set_handler rig.far_node (fun p -> delivered := Some p);
  send_to_proxy rig routed;
  Dsim.Scheduler.run rig.p_sched;
  match !delivered with
  | Some p -> (
      match Sip.Msg.parse p.Dsim.Packet.payload with
      | Ok msg ->
          check_int "route consumed" 0
            (List.length (Sip.Header.get_all msg.Sip.Msg.headers "Route"))
      | Error _ -> Alcotest.fail "unparsable")
  | None -> Alcotest.fail "not forwarded"

(* ------------------------------------------------------------------ *)
(* Location / call generator / metrics                                 *)
(* ------------------------------------------------------------------ *)

let location_basics () =
  let loc = Voip.Location.create () in
  Voip.Location.bind loc ~aor:"a@x" ~contact:(Dsim.Addr.v "h" 1);
  check "lookup" true (Voip.Location.lookup loc ~aor:"a@x" = Some (Dsim.Addr.v "h" 1));
  Voip.Location.bind loc ~aor:"a@x" ~contact:(Dsim.Addr.v "h" 2);
  check "rebind replaces" true (Voip.Location.lookup loc ~aor:"a@x" = Some (Dsim.Addr.v "h" 2));
  Voip.Location.unbind loc ~aor:"a@x";
  check "unbound" true (Voip.Location.lookup loc ~aor:"a@x" = None);
  check_str "aor of uri" "bob@b.example"
    (Voip.Location.aor_of_uri (ok (Sip.Uri.parse "sip:bob@b.example:5070")))

let generator_respects_horizon () =
  let tb = Voip.Testbed.make ~seed:33 ~n_ua:3 ~vids:Voip.Testbed.Off () in
  let profile =
    {
      Voip.Call_generator.mean_interarrival = Dsim.Time.of_sec 30.0;
      mean_duration = Dsim.Time.of_sec 10.0;
      min_duration = Dsim.Time.of_sec 5.0;
    }
  in
  Voip.Testbed.run_workload tb ~profile ~duration:(Dsim.Time.of_sec 300.0) ();
  let arrivals = Voip.Metrics.arrivals tb.Voip.Testbed.metrics in
  check "arrivals happened" true (Dsim.Stat.Series.length arrivals > 3);
  List.iter
    (fun (at, duration) ->
      check "arrival before horizon" true Dsim.Time.(at <= Dsim.Time.of_sec 300.0);
      check "duration clamped" true (duration >= 5.0))
    (Dsim.Stat.Series.to_list arrivals)

let forge_messages_parse () =
  let bye =
    Attack.Forge.spoofed_bye ~call_id:"c" ~from_uri:(ok (Sip.Uri.parse "sip:a@x"))
      ~from_tag:"t1"
      ~to_uri:(ok (Sip.Uri.parse "sip:b@y"))
      ~to_tag:"t2" ~via_host:"evil" ~branch:"z9hG4bKe" ~cseq:9 ()
  in
  let reparsed = ok (Sip.Msg.parse (Sip.Msg.serialize bye)) in
  check "bye method" true (Sip.Msg.method_of reparsed = Some Sip.Msg_method.BYE);
  check "from tag" true (Sip.Name_addr.tag (ok (Sip.Msg.from_ reparsed)) = Some "t1");
  let response =
    Attack.Forge.fake_response ~code:200 ~call_id:"r" ~to_host:"victim" ~branch:"z9hG4bKr" ()
  in
  check "fake response is response" true
    (Sip.Msg.is_response (ok (Sip.Msg.parse (Sip.Msg.serialize response))));
  let rtp = Attack.Forge.rtp_with ~ssrc:5l ~seq:1 ~ts:2l ~payload_len:10 () in
  check "rtp decodes" true (Result.is_ok (Rtp.Rtp_packet.decode rtp))

let metrics_accounting () =
  let m = Voip.Metrics.create () in
  Voip.Metrics.incr_attempted m;
  Voip.Metrics.incr_established m;
  Voip.Metrics.incr_completed m;
  Voip.Metrics.record_setup m ~caller:"x" ~at:0 ~delay:(Dsim.Time.of_ms 100.0);
  Voip.Metrics.record_setup m ~caller:"x" ~at:1 ~delay:(Dsim.Time.of_ms 300.0);
  check_int "attempted" 1 (Voip.Metrics.attempted m);
  Alcotest.(check (float 1e-9))
    "mean setup" 0.2
    (Dsim.Stat.Summary.mean (Voip.Metrics.setup_all m));
  Alcotest.(check (list string)) "callers" [ "x" ] (Voip.Metrics.callers m);
  check "series exists" true (Voip.Metrics.setup_series m ~caller:"x" <> None);
  check "missing caller" true (Voip.Metrics.setup_series m ~caller:"y" = None)

let suite =
  [
    ( "voip.transport",
      [ tc "delivers message" transport_delivers_msg; tc "raw src spoofing" transport_raw_chooses_src ] );
    ( "voip.txn_manager",
      [
        tc "server txn created once" mgr_creates_server_txn_once;
        tc "response matched" mgr_matches_response_to_client;
        tc "stray response" mgr_stray_response;
        tc "unmatched CANCEL gets 481" mgr_cancel_unmatched_481;
      ] );
    ( "voip.proxy",
      [
        tc "registrar + local routing" proxy_registers_and_routes;
        tc "foreign domain via dns" proxy_foreign_domain_via_dns;
        tc "unknown user 404" proxy_unknown_user_404;
        tc "max-forwards 483" proxy_max_forwards_483;
        tc "unreadable max-forwards 400, not relayed" proxy_bad_max_forwards_400;
        tc "record-route inserted" proxy_record_route_inserts;
        tc "loose route forwarding" proxy_loose_route_forwarding;
      ] );
    ( "voip.support",
      [
        tc "location service" location_basics;
        tc "generator horizon" generator_respects_horizon;
        tc "forged messages parse" forge_messages_parse;
        tc "metrics accounting" metrics_accounting;
      ] );
  ]
