(* Seeded workload generators.

   Each generator builds one chronological capture whose first record sits
   at t = 0, so the daemon's rebase onto its first record is the identity
   and the bench, the daemon and recovery all share one timeline.  The
   capture is cut at [split]: the daemon analyses the prefix, the engine is
   checkpointed there, and recovery replays the suffix.

   A seed changes identities (Call-IDs, tags, branches, SSRCs, which user
   calls which), timings within fixed bounds, including when each injected
   attack starts.  It never changes the shape of the traffic: every
   seed offers the same number of calls with the same mix, so throughput
   and memory per call compare across seeds. *)

type workload = Churn | Media | Attack_mix | Open_calls

let all = [ Churn; Media; Attack_mix; Open_calls ]

let name = function
  | Churn -> "churn"
  | Media -> "media"
  | Attack_mix -> "attack_mix"
  | Open_calls -> "open_calls"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

type capture = {
  records : Vids.Trace.record array;  (** Chronological; the first at t = 0. *)
  split : int;  (** [records.(split - 1).at < records.(split).at]. *)
  engine_config : Vids.Config.t;
  expected_attacks : Vids.Alert.kind list;  (** Attack kinds injected (attack_mix only). *)
  scenario_windows : (Dsim.Time.t * Dsim.Time.t) list;
      (** [start, stop) of each injected scenario (attack_mix only). *)
}

(* Background traffic lives in 172.16.0.0/12; the recorded attack testbed
   uses 10.0.0.0/8, 198.18.0.0/15 and 203.0.113.0/24.  The benign-subject
   oracle relies on the ranges being disjoint. *)
let is_background_host h = String.starts_with ~prefix:"172." h

let ms = Dsim.Time.of_ms
let sec = Dsim.Time.of_sec
let ( +& ) = Dsim.Time.add

(* ------------------------------------------------------------------ *)
(* Wire formats                                                        *)
(* ------------------------------------------------------------------ *)

let proxy_a = "172.20.0.2"
let proxy_b = "172.21.0.2"
let sip host = Dsim.Addr.v host 5060
let users = 500

(* One dialog's identities.  Hosts and ports are chosen so that no two
   live calls ever share a media endpoint: the host cycles through the
   user pool and the port advances once per pool cycle. *)
type dialog = {
  call_id : string;
  from_tag : string;
  to_tag : string;
  branch : string;
  caller : string;
  callee : string;
  caller_ua : string;
  callee_ua : string;
  caller_port : int;
  callee_port : int;
  ssrc : int32;
  seq0 : int;
  ts0 : int32;
}

let hex8 st = Printf.sprintf "%08x" (Random.State.bits st)

let make_dialog st ~perm_a ~perm_b i =
  let ua net k = Printf.sprintf "172.%d.%d.%d" net (1 + (k / 200)) (10 + (k mod 200)) in
  let a = perm_a.(i mod users) and b = perm_b.(i mod users) in
  let port = 16384 + (2 * ((i / users) mod 8000)) in
  {
    call_id = Printf.sprintf "bg-%s-%s@corp-a.example" (hex8 st) (hex8 st);
    from_tag = hex8 st;
    to_tag = hex8 st;
    branch = "z9hG4bK" ^ hex8 st;
    caller = Printf.sprintf "a%03d" a;
    callee = Printf.sprintf "b%03d" b;
    caller_ua = ua 20 a;
    callee_ua = ua 21 b;
    caller_port = port;
    callee_port = port;
    ssrc = Int32.of_int (Random.State.bits st);
    seq0 = Random.State.int st 30000;
    ts0 = Int32.of_int (Random.State.bits st);
  }

let sdp ~user ~host ~port =
  Printf.sprintf
    "v=0\r\n\
     o=%s 2890844526 2890844526 IN IP4 %s\r\n\
     s=call\r\n\
     c=IN IP4 %s\r\n\
     t=0 0\r\n\
     m=audio %d RTP/AVP 18\r\n\
     a=rtpmap:18 G729/8000\r\n\
     a=ptime:20\r\n"
    user host host port

let from_caller d = Printf.sprintf "From: <sip:%s@corp-a.example>;tag=%s\r\n" d.caller d.from_tag
let from_callee d = Printf.sprintf "From: <sip:%s@corp-b.example>;tag=%s\r\n" d.callee d.to_tag
let to_callee ?(tag = true) d =
  if tag then Printf.sprintf "To: <sip:%s@corp-b.example>;tag=%s\r\n" d.callee d.to_tag
  else Printf.sprintf "To: <sip:%s@corp-b.example>\r\n" d.callee
let to_caller d = Printf.sprintf "To: <sip:%s@corp-a.example>;tag=%s\r\n" d.caller d.from_tag

let with_body ~headers body =
  if body = "" then headers ^ "Content-Length: 0\r\n\r\n"
  else
    Printf.sprintf "%sContent-Type: application/sdp\r\nContent-Length: %d\r\n\r\n%s" headers
      (String.length body) body

let invite d =
  with_body
    ~headers:
      (Printf.sprintf
         "INVITE sip:%s@corp-b.example SIP/2.0\r\n\
          Via: SIP/2.0/UDP %s:5060;branch=%s\r\n\
          Max-Forwards: 69\r\n\
          %s%sCall-ID: %s\r\n\
          CSeq: 1 INVITE\r\n\
          Contact: <sip:%s@%s:5060>\r\n"
         d.callee proxy_a d.branch (from_caller d) (to_callee ~tag:false d) d.call_id d.caller
         d.caller_ua)
    (sdp ~user:d.caller ~host:d.caller_ua ~port:d.caller_port)

(* A response to the INVITE transaction (or its CANCEL), proxy to proxy;
   the 200 to the INVITE carries the SDP answer. *)
let invite_response ?(cseq = "1 INVITE") ?(tagged = true) d ~code ~reason =
  let answer = code = 200 && cseq = "1 INVITE" in
  let contact =
    if code >= 200 && code < 300 then
      Printf.sprintf "Contact: <sip:%s@%s:5060>\r\n" d.callee d.callee_ua
    else ""
  in
  with_body
    ~headers:
      (Printf.sprintf
         "SIP/2.0 %d %s\r\n\
          Via: SIP/2.0/UDP %s:5060;branch=%s\r\n\
          %s%sCall-ID: %s\r\n\
          CSeq: %s\r\n\
          %s"
         code reason proxy_a d.branch (from_caller d) (to_callee ~tag:tagged d) d.call_id cseq
         contact)
    (if answer then sdp ~user:d.callee ~host:d.callee_ua ~port:d.callee_port else "")

let cancel d =
  with_body
    ~headers:
      (Printf.sprintf
         "CANCEL sip:%s@corp-b.example SIP/2.0\r\n\
          Via: SIP/2.0/UDP %s:5060;branch=%s\r\n\
          Max-Forwards: 69\r\n\
          %s%sCall-ID: %s\r\n\
          CSeq: 1 CANCEL\r\n"
         d.callee proxy_a d.branch (from_caller d) (to_callee ~tag:false d) d.call_id)
    ""

(* The hop-by-hop ACK of a non-2xx final response reuses the INVITE's branch. *)
let ack_failure d =
  with_body
    ~headers:
      (Printf.sprintf
         "ACK sip:%s@corp-b.example SIP/2.0\r\n\
          Via: SIP/2.0/UDP %s:5060;branch=%s\r\n\
          Max-Forwards: 69\r\n\
          %s%sCall-ID: %s\r\n\
          CSeq: 1 ACK\r\n"
         d.callee proxy_a d.branch (from_caller d) (to_callee d) d.call_id)
    ""

(* In-dialog requests go UA to UA (no Record-Route). *)
let in_dialog d ~meth ~cseq ~by_caller =
  let ruri, via, from_, to_ =
    if by_caller then
      ( Printf.sprintf "sip:%s@%s:5060" d.callee d.callee_ua,
        d.caller_ua,
        from_caller d,
        to_callee d )
    else
      ( Printf.sprintf "sip:%s@%s:5060" d.caller d.caller_ua,
        d.callee_ua,
        from_callee d,
        to_caller d )
  in
  with_body
    ~headers:
      (Printf.sprintf
         "%s %s SIP/2.0\r\n\
          Via: SIP/2.0/UDP %s:5060;branch=z9hG4bK%c%s\r\n\
          Max-Forwards: 70\r\n\
          %s%sCall-ID: %s\r\n\
          CSeq: %d %s\r\n"
         meth ruri via meth.[0] (String.sub d.branch 7 8) from_ to_ d.call_id cseq meth)
    ""

let bye_ok d ~cseq ~by_caller =
  let via, from_, to_ =
    if by_caller then (d.caller_ua, from_caller d, to_callee d)
    else (d.callee_ua, from_callee d, to_caller d)
  in
  with_body
    ~headers:
      (Printf.sprintf
         "SIP/2.0 200 OK\r\n\
          Via: SIP/2.0/UDP %s:5060;branch=z9hG4bKB%s\r\n\
          %s%sCall-ID: %s\r\n\
          CSeq: %d BYE\r\n"
         via (String.sub d.branch 7 8) from_ to_ d.call_id cseq)
    ""

let trying d = invite_response ~tagged:false d ~code:100 ~reason:"Trying"
let ringing d = invite_response d ~code:180 ~reason:"Ringing"
let answered d = invite_response d ~code:200 ~reason:"OK"
let cancel_ok d = invite_response ~cseq:"1 CANCEL" d ~code:200 ~reason:"OK"
let terminated d = invite_response d ~code:487 ~reason:"Request Terminated"

let ack d = in_dialog d ~meth:"ACK" ~cseq:1 ~by_caller:true

(* The caller's RTP endpoint and the callee's. *)
let media_pair d = (Dsim.Addr.v d.caller_ua d.caller_port, Dsim.Addr.v d.callee_ua d.callee_port)

(* G.729 at 20 ms packetization: 20 payload bytes, 160 timestamp ticks. *)
let voice = String.make 20 '\x5a'

let rtp d k =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~marker:(k = 0) ~payload_type:18 ~sequence:((d.seq0 + k) land 0xffff)
       ~timestamp:(Int32.add d.ts0 (Int32.of_int (160 * k)))
       ~ssrc:d.ssrc voice)

let rtcp_sr d ~packets =
  Rtp.Rtcp.encode
    (Rtp.Rtcp.Sender_report
       {
         ssrc = d.ssrc;
         ntp_sec = Int32.of_int (packets / 50);
         rtp_ts = Int32.add d.ts0 (Int32.of_int (160 * packets));
         packet_count = Int32.of_int packets;
         octet_count = Int32.of_int (20 * packets);
         blocks = [];
       })

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(* Records accumulate unordered; [finish] sorts them (stable, so a
   call's same-instant messages keep their order) and cuts the capture at
   the first record strictly later than [split_at]. *)
let acc () : Vids.Trace.record list ref = ref []
let add acc at src dst payload = acc := { Vids.Trace.at; src; dst; payload } :: !acc

let finish ?(expected_attacks = []) ?(scenario_windows = []) ~engine_config ~split_at acc =
  let records = Array.of_list (List.rev !acc) in
  Array.stable_sort (fun (a : Vids.Trace.record) b -> Dsim.Time.compare a.at b.at) records;
  let t0 = records.(0).Vids.Trace.at in
  let records =
    Array.map (fun (r : Vids.Trace.record) -> { r with at = Dsim.Time.sub r.at t0 }) records
  in
  let split_at = Dsim.Time.sub split_at t0 in
  let n = Array.length records in
  let split = ref 0 in
  while !split < n && Dsim.Time.( <= ) records.(!split).Vids.Trace.at split_at do
    incr split
  done;
  if !split = 0 || !split = n then invalid_arg "Gen.finish: split outside the capture";
  { records; split = !split; engine_config; expected_attacks; scenario_windows }

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let between st lo hi = ms (lo +. Random.State.float st (hi -. lo))

(* One call of the churn shape starting at [t0]: two in three complete
   (INVITE/100/180/200/ACK, two RTP packets, BYE/200 from either side);
   one in three is abandoned while ringing (CANCEL/200/487/ACK). *)
let churn_call acc st d ~t0 ~abandoned =
  let pa = sip proxy_a and pb = sip proxy_b in
  let ua_a = sip d.caller_ua and ua_b = sip d.callee_ua in
  add acc t0 pa pb (invite d);
  add acc (t0 +& ms 5.) pb pa (trying d);
  let ring = t0 +& between st 100. 400. in
  add acc ring pb pa (ringing d);
  if abandoned then begin
    let c = ring +& between st 600. 1400. in
    add acc c pa pb (cancel d);
    add acc (c +& ms 5.) pb pa (cancel_ok d);
    add acc (c +& ms 10.) pb pa (terminated d);
    add acc (c +& ms 15.) pa pb (ack_failure d)
  end
  else begin
    let ok = ring +& between st 300. 1000. in
    add acc ok pb pa (answered d);
    let acked = ok +& ms 20. in
    add acc acked ua_a ua_b (ack d);
    let m_src, m_dst = media_pair d in
    add acc (acked +& ms 20.) m_src m_dst (rtp d 0);
    add acc (acked +& ms 40.) m_src m_dst (rtp d 1);
    let bye = acked +& between st 1000. 2000. in
    let by_caller = Random.State.bool st in
    let cseq = if by_caller then 2 else 1 in
    let s, r = if by_caller then (ua_a, ua_b) else (ua_b, ua_a) in
    add acc bye s r (in_dialog d ~meth:"BYE" ~cseq ~by_caller);
    add acc (bye +& ms 10.) r s (bye_ok d ~cseq ~by_caller)
  end

(* Abandoned setups leave their RTP machine waiting for media, so only the
   ageing sweep reclaims them; completed calls go by the linger timer. *)
let churn_config =
  { Vids.Config.default with sweep_interval = sec 10.; call_max_age = sec 60. }

(* One call every [every_ms]; at 50 ms (20 calls/s) about 40 dialogs are
   in progress at once. *)
let churn_calls acc st ~calls ~every_ms =
  let perm_a = permutation st users and perm_b = permutation st users in
  for i = 0 to calls - 1 do
    let d = make_dialog st ~perm_a ~perm_b i in
    let t0 = ms (every_ms *. float_of_int i) +& between st 0. 20. in
    churn_call acc st d ~t0 ~abandoned:(i mod 3 = 2)
  done

let churn ~seed ~calls =
  let st = Random.State.make [| seed; 1 |] in
  let acc = acc () in
  churn_calls acc st ~calls ~every_ms:50.;
  finish ~engine_config:churn_config ~split_at:(ms (float_of_int (35 * calls))) acc

(* [calls] concurrent calls set up within 2 s, each streaming [media_s] of
   50 pps G.729 caller to callee with an RTCP sender report every 5 s,
   then torn down. *)
let media ~seed ~calls ~media_s =
  let st = Random.State.make [| seed; 2 |] in
  let acc = acc () in
  let perm_a = permutation st users and perm_b = permutation st users in
  let packets = int_of_float (media_s *. 50.) in
  for i = 0 to calls - 1 do
    let d = make_dialog st ~perm_a ~perm_b i in
    let pa = sip proxy_a and pb = sip proxy_b in
    let ua_a = sip d.caller_ua and ua_b = sip d.callee_ua in
    let t0 = ms (2000. *. float_of_int i /. float_of_int calls) in
    add acc t0 pa pb (invite d);
    add acc (t0 +& ms 5.) pb pa (trying d);
    add acc (t0 +& ms 50.) pb pa (ringing d);
    let ok = t0 +& between st 200. 600. in
    add acc ok pb pa (answered d);
    add acc (ok +& ms 20.) ua_a ua_b (ack d);
    let m0 = ok +& ms 40. in
    let m_src, m_dst = media_pair d in
    let c_src = Dsim.Addr.v d.caller_ua (d.caller_port + 1)
    and c_dst = Dsim.Addr.v d.callee_ua (d.callee_port + 1) in
    for k = 0 to packets - 1 do
      let at = m0 +& ms (20. *. float_of_int k) in
      add acc at m_src m_dst (rtp d k);
      if k > 0 && k mod 250 = 0 then add acc (at +& ms 1.) c_src c_dst (rtcp_sr d ~packets:k)
    done;
    let bye = m0 +& ms (20. *. float_of_int packets) in
    add acc bye ua_a ua_b (in_dialog d ~meth:"BYE" ~cseq:2 ~by_caller:true);
    add acc (bye +& ms 10.) ua_b ua_a (bye_ok d ~cseq:2 ~by_caller:true)
  done;
  finish ~engine_config:Vids.Config.default ~split_at:(ms (2000. +. (700. *. media_s))) acc

(* [calls] calls established at 250 calls/s (INVITE/200/ACK and one RTP
   packet each) and held; the suffix tears every one down (BYE/200) in a
   seeded order, also at 250 calls/s. *)
let open_calls ~seed ~calls =
  let st = Random.State.make [| seed; 4 |] in
  let acc = acc () in
  let perm_a = permutation st users and perm_b = permutation st users in
  let dialogs = Array.init calls (fun i -> make_dialog st ~perm_a ~perm_b i) in
  Array.iteri
    (fun i d ->
      let pa = sip proxy_a and pb = sip proxy_b in
      let t0 = ms (4. *. float_of_int i) in
      add acc t0 pa pb (invite d);
      add acc (t0 +& ms 1.) pb pa (answered d);
      add acc (t0 +& ms 2.) (sip d.caller_ua) (sip d.callee_ua) (ack d);
      let m_src, m_dst = media_pair d in
      add acc (t0 +& ms 3.) m_src m_dst (rtp d 0))
    dialogs;
  let ramp_end = ms (4. *. float_of_int calls) in
  let teardown = ramp_end +& sec 1. in
  Array.iteri
    (fun k i ->
      let d = dialogs.(i) in
      let at = teardown +& ms (4. *. float_of_int k) in
      let bye = in_dialog d ~meth:"BYE" ~cseq:2 ~by_caller:true in
      add acc at (sip d.caller_ua) (sip d.callee_ua) bye;
      add acc (at +& ms 1.) (sip d.callee_ua) (sip d.caller_ua) (bye_ok d ~cseq:2 ~by_caller:true))
    (permutation st calls);
  finish ~engine_config:Vids.Config.default ~split_at:ramp_end acc

(* ------------------------------------------------------------------ *)
(* attack_mix: churn background plus every lib/attack scenario         *)
(* ------------------------------------------------------------------ *)

module T = Voip.Testbed

(* Each scenario gets its own attacker host (outside the reflector range
   the DRDoS scenario spoofs) and its own UA pair (a pair comes back only
   eight slots, 96 s, later), so one scenario's block rule or rate limit,
   which lasts 60 s, cannot pre-empt the next one's detection.  The flood
   goes straight to the phone: the recording was made without a gate, so
   the replies to INVITEs the replayed gate drops reach the engine as
   orphan responses, and DRDoS escalation then drops their source for the
   rule's 60 s lifetime.  Sent through proxy B, that source would be the
   proxy every later call-based scenario is routed through. *)
let scenarios =
  [
    ("bye-dos", Vids.Alert.Bye_dos);
    ("cancel-dos", Vids.Alert.Cancel_dos);
    ("hijack", Vids.Alert.Call_hijack);
    ("media-spam", Vids.Alert.Media_spam);
    ("billing-fraud", Vids.Alert.Billing_fraud);
    ("invite-flood", Vids.Alert.Invite_flood);
    ("rtp-flood", Vids.Alert.Rtp_flood);
    ("drdos", Vids.Alert.Drdos);
    ("register-hijack", Vids.Alert.Registration_hijack);
  ]

let launch tb ~slot ~at name =
  let atk = Attack.Scenarios.create tb ~host:(Printf.sprintf "203.0.113.%d" (101 + slot)) in
  let pair = slot mod 8 in
  let ua_a = List.nth tb.T.uas_a pair and ua_b = List.nth tb.T.uas_b pair in
  match name with
  | "bye-dos" -> Attack.Scenarios.spoofed_bye_call atk ~caller:ua_a ~callee:ua_b ~at
  | "cancel-dos" -> Attack.Scenarios.cancel_dos_call atk ~caller:ua_a ~callee:ua_b ~at
  | "hijack" -> Attack.Scenarios.hijack_call atk ~caller:ua_a ~callee:ua_b ~at
  | "media-spam" -> Attack.Scenarios.media_spam_call atk ~caller:ua_a ~callee:ua_b ~at
  | "billing-fraud" -> Attack.Scenarios.billing_fraud_call atk ~caller:ua_a ~callee:ua_b ~at
  | "invite-flood" ->
      let phone = { (Voip.Ua.aor ua_b) with Sip.Uri.host = T.ua_b_host tb pair } in
      Attack.Scenarios.invite_flood atk ~target:phone ~via_proxy:false ~count:25
        ~interval:(ms 40.) ~at
  | "rtp-flood" ->
      Attack.Scenarios.rtp_flood atk
        ~target:(Dsim.Addr.v (T.ua_b_host tb pair) 16500)
        ~rate_pps:400 ~duration:(sec 2.) ~at
  | "drdos" ->
      Attack.Scenarios.drdos atk ~victim_host:(T.ua_b_host tb pair) ~reflectors:20 ~responses:60 ~at
  | "register-hijack" -> Attack.Scenarios.register_hijack atk ~victim:ua_b ~at
  | other -> invalid_arg other

(* The scenarios run on the Figure-7 testbed with the sensor tap recording
   (as [vids-cli record] does), one per slot in a fixed order with a
   seeded start in the slot's first 2 s; every scenario alerts well within
   its slot.  The order stays fixed so that every seed puts the same
   scenarios before the checkpoint.  The recording is then shifted by
   [offset] into the background timeline. *)
let slot_start slot = sec (5. +. (12. *. float_of_int slot))

let record_scenarios ~seed ~offset =
  let st = Random.State.make [| seed; 3; 1 |] in
  let tb = T.make ~seed:(1000 + seed) ~vids:T.Off () in
  let recorder = Vids.Trace.recorder () in
  Dsim.Network.set_tap tb.T.vids_node (Some (Vids.Trace.tap recorder tb.T.sched));
  let windows =
    List.mapi
      (fun slot (name, _) ->
        launch tb ~slot ~at:(slot_start slot +& between st 0. 2000.) name;
        (offset +& slot_start slot, offset +& slot_start (slot + 1)))
      scenarios
  in
  T.run_until tb (slot_start (List.length scenarios) +& sec 10.);
  (Vids.Trace.records recorder, windows)

let attack_mix ~seed ~calls =
  let st = Random.State.make [| seed; 3 |] in
  let acc = acc () in
  churn_calls acc st ~calls ~every_ms:100.;
  let offset = sec 10. in
  let recorded, windows = record_scenarios ~seed ~offset in
  List.iter
    (fun (r : Vids.Trace.record) -> add acc (offset +& r.at) r.src r.dst r.payload)
    recorded;
  let split_at = offset +& slot_start 6 in
  finish ~engine_config:churn_config ~split_at
    ~expected_attacks:(List.map snd scenarios)
    ~scenario_windows:windows acc

(* Full-scale sizes; [scale] shrinks call counts (the smoke run uses 1/50)
   but never the scenario set. *)
let generate w ~seed ~scale =
  let n x = max 6 (int_of_float (Float.round (scale *. float_of_int x))) in
  match w with
  | Churn -> churn ~seed ~calls:(n 4000)
  | Media -> media ~seed ~calls:(n 300) ~media_s:10.
  | Attack_mix -> attack_mix ~seed ~calls:(n 1250)
  | Open_calls -> open_calls ~seed ~calls:(n 5000)
