(* Property-based tests (qcheck) on codecs, arithmetic and invariants. *)

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let token_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '0'; '9'; 'X'; '-'; '.' ]) (int_range 1 12))

let host_gen =
  QCheck.Gen.(
    map2 (fun a b -> Printf.sprintf "%s.%s" a b)
      (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '1' ]) (int_range 1 8))
      (oneofl [ "example"; "test"; "invalid" ]))

let uri_gen =
  QCheck.Gen.(
    map3
      (fun user host port ->
        Sip.Uri.make ?user ?port host)
      (opt token_gen) host_gen
      (opt (int_range 1 65535)))

let uri_arb = QCheck.make ~print:Sip.Uri.to_string uri_gen

let seq16 = QCheck.int_range 0 0xFFFF

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                               *)
(* ------------------------------------------------------------------ *)

let uri_roundtrip =
  q "sip uri: parse (to_string u) = u" uri_arb (fun u ->
      match Sip.Uri.parse (Sip.Uri.to_string u) with
      | Ok u' -> u = u'
      | Error _ -> false)

let rtp_roundtrip =
  q "rtp: decode (encode p) = p"
    QCheck.(
      quad (int_range 0 127) seq16 (pair int32 int32) (string_of_size (Gen.int_range 0 300)))
    (fun (pt, seq, (ts, ssrc), payload) ->
      let p = Rtp.Rtp_packet.make ~payload_type:pt ~sequence:seq ~timestamp:ts ~ssrc payload in
      match Rtp.Rtp_packet.decode (Rtp.Rtp_packet.encode p) with
      | Ok p' -> p = p'
      | Error _ -> false)

let rtp_decode_never_crashes =
  q ~count:500 "rtp: decode total on junk" QCheck.(string_of_size (Gen.int_range 0 64))
    (fun junk ->
      match Rtp.Rtp_packet.decode junk with Ok _ -> true | Error _ -> true)

let sip_parse_never_crashes =
  q ~count:500 "sip: parse total on junk" QCheck.(string_of_size (Gen.int_range 0 200))
    (fun junk -> match Sip.Msg.parse junk with Ok _ -> true | Error _ -> true)

let sdp_parse_never_crashes =
  q ~count:500 "sdp: parse total on junk" QCheck.(string_of_size (Gen.int_range 0 200))
    (fun junk -> match Sdp.parse junk with Ok _ -> true | Error _ -> true)

let sip_msg_roundtrip =
  q "sip msg: serialize/parse round-trip keeps identity fields"
    QCheck.(triple uri_arb (pair seq16 (int_range 100 699)) (make token_gen))
    (fun (uri, (cseq_n, _code), call_id) ->
      QCheck.assume (call_id <> "");
      let msg =
        Sip.Msg.request ~meth:Sip.Msg_method.INVITE ~uri
          ~via:(Sip.Via.make ~branch:"z9hG4bKx" "h.example")
          ~from_:(Sip.Name_addr.make ~params:[ ("tag", Some "t1") ] uri)
          ~to_:(Sip.Name_addr.make uri) ~call_id
          ~cseq:(Sip.Cseq.make cseq_n Sip.Msg_method.INVITE)
          ~body:"payload" ()
      in
      match Sip.Msg.parse (Sip.Msg.serialize msg) with
      | Error _ -> false
      | Ok msg' ->
          Sip.Msg.call_id msg' = Ok call_id
          && msg'.Sip.Msg.body = "payload"
          && Sip.Msg.method_of msg' = Some Sip.Msg_method.INVITE)

(* ------------------------------------------------------------------ *)
(* Serial-number arithmetic                                            *)
(* ------------------------------------------------------------------ *)

let seq_delta_antisymmetric =
  q "rtp: seq_delta a b = -(seq_delta b a) (mod 2^16)" QCheck.(pair seq16 seq16)
    (fun (a, b) ->
      let d1 = Rtp.Rtp_packet.seq_delta a b and d2 = Rtp.Rtp_packet.seq_delta b a in
      (d1 + d2) land 0xFFFF = 0)

let seq_delta_bounds =
  q "rtp: seq_delta in [-32768, 32767]" QCheck.(pair seq16 seq16) (fun (a, b) ->
      let d = Rtp.Rtp_packet.seq_delta a b in
      d >= -32768 && d <= 32767)

let seq_delta_successor =
  q "rtp: successor distance is 1" seq16 (fun a ->
      Rtp.Rtp_packet.seq_delta a ((a + 1) land 0xFFFF) = 1)

(* ------------------------------------------------------------------ *)
(* Heap / scheduler invariants                                         *)
(* ------------------------------------------------------------------ *)

let heap_sorts_any_list =
  q "heap: drains in sorted order" QCheck.(list int) (fun xs ->
      let h = Dsim.Heap.create ~cmp:Int.compare in
      List.iter (Dsim.Heap.push h) xs;
      let rec drain acc =
        match Dsim.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let scheduler_monotone =
  q "scheduler: observed times are non-decreasing"
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 100000))
    (fun times ->
      let s = Dsim.Scheduler.create () in
      let seen = ref [] in
      List.iter
        (fun t -> ignore (Dsim.Scheduler.schedule_at s t (fun () -> seen := t :: !seen)))
        times;
      Dsim.Scheduler.run s;
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | [ _ ] | [] -> true
      in
      monotone (List.rev !seen) && List.length !seen = List.length times)

(* ------------------------------------------------------------------ *)
(* Statistics invariants                                               *)
(* ------------------------------------------------------------------ *)

let summary_mean_bounded =
  q "summary: min <= mean <= max" QCheck.(list_of_size (Gen.int_range 1 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Dsim.Stat.Summary.create () in
      List.iter (Dsim.Stat.Summary.add s) xs;
      let lo = List.fold_left Float.min infinity xs and hi = List.fold_left Float.max neg_infinity xs in
      lo <= Dsim.Stat.Summary.mean s +. 1e-6 && Dsim.Stat.Summary.mean s <= hi +. 1e-6)

let summary_matches_naive =
  q "summary: Welford mean = naive mean"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let s = Dsim.Stat.Summary.create () in
      List.iter (Dsim.Stat.Summary.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Dsim.Stat.Summary.mean s -. naive) < 1e-6)

let percentile_within_range =
  q "percentile: result within [min,max]"
    QCheck.(pair (list_of_size (Gen.int_range 1 60) (float_range 0.0 100.0)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Dsim.Stat.percentile arr p in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* EFSM invariants                                                     *)
(* ------------------------------------------------------------------ *)

let machine_event_gen =
  QCheck.Gen.(
    map2
      (fun name n -> (name, n))
      (oneofl [ "INVITE"; "RESPONSE"; "ACK"; "BYE"; "CANCEL"; "REGISTER"; "OPTIONS" ])
      (int_range 100 699))

(* Feeding arbitrary SIP event sequences never yields nondeterminism —
   guards of the per-call machine must be pairwise disjoint (paper §4.1). *)
let sip_machine_deterministic =
  q ~count:300 "sip machine: arbitrary event sequences stay deterministic"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 25) machine_event_gen))
    (fun events ->
      let m =
        Efsm.Machine.instantiate
          (Efsm.Machine.compile (Vids.Spec_load.spec Vids.Config.default Vids.Keys.sip_machine))
          ~globals:(Efsm.Env.globals ())
      in
      List.for_all
        (fun (name, code) ->
          let args =
            [
              ("code", Efsm.Value.Int code);
              ("cseq_method", Efsm.Value.Str "INVITE");
              ("from_tag", Efsm.Value.Str "t1");
              ("branch", Efsm.Value.Str "b1");
              ("src_ip", Efsm.Value.Str "10.0.0.1");
              ("contact_host", Efsm.Value.Str "10.0.0.1");
              ("call_id", Efsm.Value.Str "c");
            ]
          in
          match Efsm.Machine.step m (Efsm.Event.make ~args (Efsm.Event.Data "SIP") ~at:0 name) with
          | Efsm.Machine.Nondeterministic _ -> false
          | Efsm.Machine.Moved _ | Efsm.Machine.Rejected -> true)
        events)

let spam_machine_deterministic =
  q ~count:300 "spam machine: arbitrary rtp sequences stay deterministic"
    QCheck.(list_of_size (Gen.int_range 1 40) (pair seq16 (int_range 0 1_000_000)))
    (fun packets ->
      let m =
        Efsm.Machine.instantiate
          (Efsm.Machine.compile (Vids.Spec_load.spec Vids.Config.default Vids.Keys.spam_machine))
          ~globals:(Efsm.Env.globals ())
      in
      List.for_all
        (fun (seq, ts) ->
          let args =
            [
              ("ssrc", Efsm.Value.Int 7);
              ("seq", Efsm.Value.Int seq);
              ("ts", Efsm.Value.Int ts);
            ]
          in
          match
            Efsm.Machine.step m
              (Efsm.Event.make ~args (Efsm.Event.Data "RTP") ~at:0 Vids.Keys.rtp_packet)
          with
          | Efsm.Machine.Nondeterministic _ -> false
          | Efsm.Machine.Moved _ | Efsm.Machine.Rejected -> true)
        packets)

(* The engine never raises on arbitrary packet contents. *)
let engine_total_on_junk =
  q ~count:300 "engine: total on junk datagrams"
    QCheck.(pair (int_range 1 65535) (string_of_size (Gen.int_range 0 100)))
    (fun (port, payload) ->
      let sched = Dsim.Scheduler.create () in
      let engine = Vids.Engine.create sched in
      let alloc = Dsim.Packet.allocator () in
      let packet =
        Dsim.Packet.make alloc ~src:(Dsim.Addr.v "src" port) ~dst:(Dsim.Addr.v "dst" port)
          ~sent_at:0 payload
      in
      Vids.Engine.process_packet engine packet;
      true)

let jitter_non_negative =
  q "jitter: estimate stays non-negative"
    QCheck.(list_of_size (Gen.int_range 2 60) (pair (int_range 0 10_000) (int_range 0 100_000)))
    (fun samples ->
      let j = Rtp.Jitter.create ~clock_rate:8000 in
      let t = ref 0 in
      List.for_all
        (fun (gap_us, ts) ->
          t := !t + gap_us;
          Rtp.Jitter.observe j ~arrival:!t ~rtp_timestamp:(Int32.of_int ts);
          Rtp.Jitter.jitter_seconds j >= 0.0)
        samples)

let auth_correct_password_verifies =
  q "auth: correct password always verifies, wrong never"
    QCheck.(triple (make token_gen) (make token_gen) (make token_gen))
    (fun (user, password, wrong) ->
      QCheck.assume (password <> wrong);
      let challenge = { Sip.Auth.realm = "r.example"; nonce = "n-1" } in
      let uri = Sip.Uri.make "r.example" in
      let build pw =
        Sip.Msg.request ~meth:Sip.Msg_method.REGISTER ~uri
          ~via:(Sip.Via.make ~branch:"z9hG4bKp" "h")
          ~from_:(Sip.Name_addr.make ~params:[ ("tag", Some "t") ] uri)
          ~to_:(Sip.Name_addr.make uri) ~call_id:"c"
          ~cseq:(Sip.Cseq.make 2 Sip.Msg_method.REGISTER)
          ~headers:
            [
              ( "Authorization",
                Sip.Auth.authorization_header ~username:user ~password:pw ~challenge
                  ~meth:Sip.Msg_method.REGISTER ~uri );
            ]
          ()
      in
      let verify msg =
        Sip.Auth.verify
          ~password_of:(fun u -> if u = user then Some password else None)
          ~realm:"r.example" ~nonce_valid:(String.equal "n-1") msg
      in
      verify (build password) && not (verify (build wrong)))

let mos_monotone_in_delay =
  q "mos: non-increasing in delay" QCheck.(pair (float_range 0.0 0.4) (float_range 0.0 0.4))
    (fun (d1, d2) ->
      let lo = Float.min d1 d2 and hi = Float.max d1 d2 in
      Rtp.Mos.mos ~one_way_delay:hi ~loss_fraction:0.0
      <= Rtp.Mos.mos ~one_way_delay:lo ~loss_fraction:0.0 +. 1e-9)

let mos_monotone_in_loss =
  q "mos: non-increasing in loss" QCheck.(pair (float_range 0.0 0.3) (float_range 0.0 0.3))
    (fun (l1, l2) ->
      let lo = Float.min l1 l2 and hi = Float.max l1 l2 in
      Rtp.Mos.mos ~one_way_delay:0.05 ~loss_fraction:hi
      <= Rtp.Mos.mos ~one_way_delay:0.05 ~loss_fraction:lo +. 1e-9)

let mos_bounded =
  q "mos: within [1, 4.5]" QCheck.(pair (float_range 0.0 2.0) (float_range 0.0 1.0))
    (fun (delay, loss) ->
      let m = Rtp.Mos.mos ~one_way_delay:delay ~loss_fraction:loss in
      m >= 1.0 && m <= 4.5)

let playout_counts_consistent =
  q "playout: late <= received and fraction in [0,1]"
    QCheck.(list_of_size (Gen.int_range 0 60) (pair (int_range 0 100000) (int_range 0 200000)))
    (fun samples ->
      let p = Rtp.Playout.create ~target_delay:(Dsim.Time.of_ms 60.0) in
      let late =
        List.fold_left
          (fun n (capture, arrival_offset) ->
            match Rtp.Playout.offer p ~capture ~arrival:(capture + arrival_offset) with
            | `Late -> n + 1
            | `On_time -> n)
          0 samples
      in
      late <= Rtp.Playout.received p
      && Rtp.Playout.received p = List.length samples
      && Rtp.Playout.late_fraction p >= 0.0
      && Rtp.Playout.late_fraction p <= 1.0)

let suite =
  [
    ( "properties",
      [
        uri_roundtrip;
        rtp_roundtrip;
        rtp_decode_never_crashes;
        sip_parse_never_crashes;
        sdp_parse_never_crashes;
        sip_msg_roundtrip;
        seq_delta_antisymmetric;
        seq_delta_bounds;
        seq_delta_successor;
        heap_sorts_any_list;
        scheduler_monotone;
        summary_mean_bounded;
        summary_matches_naive;
        percentile_within_range;
        sip_machine_deterministic;
        spam_machine_deterministic;
        engine_total_on_junk;
        jitter_non_negative;
        auth_correct_password_verifies;
        mos_monotone_in_delay;
        mos_monotone_in_loss;
        mos_bounded;
        playout_counts_consistent;
      ] );
  ]
