(* Soak bench: the live-ingestion daemon left running, measured.

   Three phases, gated in BENCH_soak.json (CI fails when a gate does):

   A. Churn soak — hours-equivalent of call churn streamed from a pcap
      through the daemon under the governed (memory-capped) config.
      Gates: the live-word curve is flat (final/initial <= 1.05 after
      warmup), p99 dispatch latency is bounded, and the daemon's digest
      equals an offline replay of the same capture at the same horizon.
   B. kill -9 — the same capture, hard-killed mid-soak; recovery from
      the surviving snapshot + journal + capture must converge to the
      same alert digest as the uninterrupted run.
   C. Malformed flood — payloads mangled by the Dsim.Network fault layer
      sprayed at the daemon's real UDP socket while a legitimate INVITE
      flood runs from a distinct source.  The garbage must raise the
      ingest-error counters and quarantine its source without crashing
      the daemon or costing it the concurrent detection.

   Scale comes from argv: [soak.exe 4000] caps the churn at 4000 calls
   (the CI smoke preset); the default is 40000 — about 33 simulated
   minutes of 20 calls/s churn, hours of a realistic enterprise load. *)

module J = Obs.Json

let ms = Dsim.Time.of_ms
let sec = Dsim.Time.of_sec

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
       ~timestamp:(Int32.of_int (160 * seq))
       ~ssrc:77l (String.make 20 'v'))

(* Call churn on a 50 ms grid: two in three calls run a full dialog with
   a media burst, one in three is abandoned after the INVITE, and one in
   five established calls never sends BYE — the mix that forces the
   governance sweep to actually evict.  Sorted into capture order: a
   pcap is chronological. *)
let churn_records ~calls =
  let records = ref [] in
  let add at src dst payload = records := { Vids.Trace.at; src; dst; payload } :: !records in
  let a_sig = sip_addr "10.1.0.2" and b_sig = sip_addr "10.2.0.2" in
  for i = 0 to calls - 1 do
    let call_id = Printf.sprintf "soak-%d" i in
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
      if i mod 5 <> 4 then begin
        add (t0 +& ms 600.) a_sig b_sig (bye ~call_id);
        add (t0 +& ms 620.) b_sig a_sig (response ~call_id ~code:200 ~cseq:"2 BYE" ~sdp:false ~port)
      end
    end
  done;
  List.stable_sort
    (fun (a : Vids.Trace.record) b -> Dsim.Time.compare a.Vids.Trace.at b.Vids.Trace.at)
    !records

let tmp suffix = Filename.temp_file "vids_soak" suffix

let alert_keys engine =
  List.sort compare (List.map Vids.Alert.dedup_key (Vids.Engine.alerts engine))

(* The stock governed ageing horizon is 30 minutes — longer than the CI
   soak itself — so scale the ceiling down until the steady state arrives
   inside the run, keeping every mechanism (caps, ageing, periodic sweep,
   degradation) live.  At 20 calls/s the pools plateau around 90 s in:
   closed calls linger 32 s, abandoned setups age out at 60 s. *)
let ceiling =
  {
    (Vids.Config.governed Vids.Config.default) with
    Vids.Config.call_max_age = Dsim.Time.of_sec 60.0;
    sweep_interval = Dsim.Time.of_sec 10.0;
    max_calls = 4_000;
    max_detectors = 4_000;
    degrade_high_water = 3_600;
    degrade_low_water = 3_200;
  }

let base_config =
  {
    Ingest.Daemon.default with
    Ingest.Daemon.engine_config = Some ceiling;
    batch = 256;
  }

let run_daemon ?(config = base_config) ?stop ?hard_kill ?on_batch sources =
  let clock = Ingest.Clock.manual () in
  match Ingest.Daemon.run ~clock ?stop ?hard_kill ?on_batch config sources with
  | Error e ->
      Printf.eprintf "FAIL: daemon: %s\n" e;
      exit 1
  | Ok report -> report

(* ------------------------------------------------------------------ *)
(* Phase A: churn soak under the memory ceiling                        *)
(* ------------------------------------------------------------------ *)

type soak_result = {
  report : Ingest.Daemon.report;
  samples : (int * int) list;  (** (batch index, live words) oldest first *)
  soak_wall_s : float;
  digest_match : bool;
}

let live_words = Bench_common.live_words

let phase_a ~records ~path =
  let snap = tmp ".ck" in
  let config =
    {
      base_config with
      Ingest.Daemon.checkpoint_every_s = 30.0;
      snapshot_path = Some snap;
      journal_path = Some (snap ^ ".journal");
    }
  in
  let n_batches = (List.length records / config.Ingest.Daemon.batch) + 1 in
  let sample_every = max 1 (n_batches / 24) in
  let batches = ref 0 in
  let samples = ref [] in
  let on_batch () =
    incr batches;
    if !batches mod sample_every = 0 then
      samples := (!batches, live_words ()) :: !samples
  in
  let report, soak_wall_s =
    Bench_common.timed (fun () ->
        run_daemon ~config ~on_batch [ Ingest.Daemon.Pcap_file { path; pace = false } ])
  in
  let horizon = report.Ingest.Daemon.horizon in
  let _sched, offline = Vids.Trace.replay_until ~config:ceiling ~until:horizon records in
  let digest_match =
    String.equal
      (Vids.Snapshot.digest ~at:horizon offline)
      (Vids.Snapshot.digest ~at:horizon report.Ingest.Daemon.engine)
  in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
    [ snap; snap ^ ".1"; snap ^ ".journal" ];
  { report; samples = List.rev !samples; soak_wall_s; digest_match }

(* ------------------------------------------------------------------ *)
(* Phase B: kill -9 mid-soak, recover, compare alert digests           *)
(* ------------------------------------------------------------------ *)

type kill_result = {
  killed_at_batch : int;
  killed_dispatched : int;
  recovered_replayed : int;
  recover_wall_s : float;
  alert_digest_match : bool;
}

let phase_b ~records ~path ~(clean : Ingest.Daemon.report) =
  let snap = tmp ".ck" in
  let capture = tmp ".trace" in
  let config =
    {
      base_config with
      Ingest.Daemon.checkpoint_every_s = 10.0;
      snapshot_path = Some snap;
      journal_path = Some (snap ^ ".journal");
      record_path = Some capture;
    }
  in
  let n_batches = (List.length records / config.Ingest.Daemon.batch) + 1 in
  let kill_batch = max 2 (n_batches * 7 / 10) in
  let hard_kill = ref false in
  let batches = ref 0 in
  let killed =
    run_daemon ~config ~hard_kill
      ~on_batch:(fun () ->
        incr batches;
        if !batches = kill_batch then hard_kill := true)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  if killed.Ingest.Daemon.stop_reason <> Ingest.Daemon.Killed then begin
    Printf.eprintf "FAIL: hard kill landed after the capture ran out; raise the scale\n";
    exit 1
  end;
  let result =
    match
      Bench_common.timed (fun () ->
          Vids.Recovery.recover_files ~config:ceiling ~journal_path:(snap ^ ".journal")
            ~trace_path:capture ~until:killed.Ingest.Daemon.horizon ~snapshot_path:snap ())
    with
    | Error e, _ ->
        Printf.eprintf "FAIL: recovery: %s\n" e;
        exit 1
    | Ok fr, recover_wall_s ->
        let o = fr.Vids.Recovery.outcome in
        {
          killed_at_batch = kill_batch;
          killed_dispatched = killed.Ingest.Daemon.dispatched;
          recovered_replayed = o.Vids.Recovery.replayed;
          recover_wall_s;
          alert_digest_match =
            alert_keys o.Vids.Recovery.engine = alert_keys clean.Ingest.Daemon.engine;
        }
  in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
    [ snap; snap ^ ".1"; snap ^ ".journal"; capture ];
  result

(* ------------------------------------------------------------------ *)
(* Phase C: malformed flood over real UDP, legit attack concurrent     *)
(* ------------------------------------------------------------------ *)

(* Payloads mangled by the same adversarial transmission layer the
   robustness suite uses: valid INVITEs pushed through a two-node
   Dsim.Network with truncation and bit-flip faults installed; whatever
   comes out the far end is what the wire would have delivered. *)
let mangled_payloads ~count =
  let sched = Dsim.Scheduler.create () in
  let rng = Dsim.Rng.create 4242 in
  let net = Dsim.Network.create sched rng in
  let atk = Dsim.Network.add_node net ~name:"atk" ~hosts:[ "198.51.100.1" ] in
  let ids = Dsim.Network.add_node net ~name:"ids" ~hosts:[ "198.51.100.2" ] in
  Dsim.Network.connect net atk ids ~rate_bps:0.0 ~prop_delay:(ms 1.0) ~loss_prob:0.0;
  Dsim.Network.set_fault_profile net
    (Some
       {
         Dsim.Network.pristine with
         Dsim.Network.truncate_prob = 0.6;
         corrupt_prob = 0.8;
       });
  let out = ref [] in
  Dsim.Network.set_handler ids (fun p -> out := p.Dsim.Packet.payload :: !out);
  let src = Dsim.Addr.v "198.51.100.1" 5060 and dst = Dsim.Addr.v "198.51.100.2" 5060 in
  for i = 1 to count do
    Dsim.Network.send net ~from:atk
      (Dsim.Network.make_packet net ~src ~dst
         (invite ~call_id:(Printf.sprintf "mangle-%d" i) ~port:20000))
  done;
  Dsim.Scheduler.run_until sched (sec 10.0);
  List.rev !out

type flood_result = {
  flood_report : Ingest.Daemon.report;
  mangled_sent : int;
  flood_detected : bool;
}

let phase_c () =
  match Ingest.Udp_source.listen ~host:"127.0.0.1" ~port:5060 () with
  | Error e ->
      Printf.eprintf "FAIL: cannot bind 127.0.0.1:5060 (%s)\n" e;
      exit 1
  | Ok u ->
      let daemon_addr = Ingest.Udp_source.local_addr u in
      let mangled = mangled_payloads ~count:30 in
      let sender () = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
      let hostile = sender () and attacker = sender () in
      let sockaddr =
        Unix.ADDR_INET
          ( Unix.inet_addr_of_string (Dsim.Addr.host daemon_addr),
            Dsim.Addr.port daemon_addr )
      in
      let send fd payload =
        ignore (Unix.sendto fd (Bytes.of_string payload) 0 (String.length payload) [] sockaddr)
      in
      let stop = ref false in
      let batches = ref 0 in
      let config = { base_config with Ingest.Daemon.quarantine_threshold = 5 } in
      let report =
        run_daemon ~config ~stop
          ~on_batch:(fun () ->
            incr batches;
            if !batches = 1 then begin
              List.iter (send hostile) mangled;
              for i = 1 to 12 do
                send attacker (invite ~call_id:(Printf.sprintf "udp-flood-%d" i) ~port:21000)
              done
            end;
            (* A trailing burst lands after the quarantine has tripped,
               so the drop counter also gets exercised. *)
            if !batches = 60 then List.iter (send hostile) mangled;
            if !batches = 400 then stop := true)
          [ Ingest.Daemon.Udp u ]
      in
      Unix.close hostile;
      Unix.close attacker;
      {
        flood_report = report;
        mangled_sent = 2 * List.length mangled;
        flood_detected =
          Vids.Engine.alerts_of_kind report.Ingest.Daemon.engine Vids.Alert.Invite_flood <> [];
      }

(* ------------------------------------------------------------------ *)

let () =
  let calls = try int_of_string Sys.argv.(1) with _ -> 40_000 in
  Printf.printf "building %d-call churn capture...\n%!" calls;
  let records = churn_records ~calls in
  let n_records = List.length records in
  let path = tmp ".pcap" in
  Ingest.Pcap.write_file path records;
  Printf.printf "capture: %d records over %.1f simulated minutes\n%!" n_records
    (Dsim.Time.to_sec
       (List.fold_left (fun acc r -> Dsim.Time.max acc r.Vids.Trace.at) Dsim.Time.zero records)
    /. 60.0);

  (* A: soak. *)
  let a = phase_a ~records ~path in
  let r = a.report in
  let p99_s = Dsim.Stat.Quantiles.p99 r.Ingest.Daemon.dispatch in
  Printf.printf "soak: %d dispatched in %.2f s wall (%.0f rec/s), %d checkpoints, p99 %.0f us\n"
    r.Ingest.Daemon.dispatched a.soak_wall_s
    (float_of_int r.Ingest.Daemon.dispatched /. a.soak_wall_s)
    r.Ingest.Daemon.checkpoints (1e6 *. p99_s);
  (* The first quarter of samples is warmup: arenas and the
     governance-capped fact base filling to their plateaus. *)
  let warm = List.filteri (fun i _ -> i >= List.length a.samples / 4) a.samples in
  let first_live = match warm with (_, w) :: _ -> w | [] -> 1 in
  let final_live = match List.rev warm with (_, w) :: _ -> w | [] -> 1 in
  let growth = float_of_int final_live /. float_of_int (max 1 first_live) in
  List.iter
    (fun (b, w) -> Printf.printf "  live words @ batch %5d: %9d\n" b w)
    a.samples;
  let flat = growth <= 1.05 in
  let p99_bounded = p99_s <= 0.005 in
  Printf.printf "live-word growth after warmup: %.3fx (gate <= 1.05): %b\n" growth flat;
  Printf.printf "p99 dispatch %.0f us (gate <= 5000 us): %b\n" (1e6 *. p99_s) p99_bounded;
  Printf.printf "daemon digest = offline replay digest: %b\n" a.digest_match;

  (* B: kill -9 and recover. *)
  let b = phase_b ~records ~path ~clean:r in
  Printf.printf
    "kill -9 at batch %d (%d dispatched): recovered in %.2f ms, %d replayed, alert digest match: %b\n"
    b.killed_at_batch b.killed_dispatched (1000. *. b.recover_wall_s) b.recovered_replayed
    b.alert_digest_match;

  (* C: malformed flood over live UDP. *)
  let c = phase_c () in
  let fr = c.flood_report in
  let q = fr.Ingest.Daemon.quarantine in
  Printf.printf
    "malformed flood: %d mangled sent, %d parse errors, %d quarantines, %d dropped, flood detected: %b\n"
    c.mangled_sent fr.Ingest.Daemon.parse_errors q.Ingest.Quarantine.quarantines
    q.Ingest.Quarantine.dropped c.flood_detected;
  let flood_survived =
    fr.Ingest.Daemon.parse_errors > 0
    && q.Ingest.Quarantine.quarantines >= 1
    && c.flood_detected
  in
  Sys.remove path;

  let passed = flat && p99_bounded && a.digest_match && b.alert_digest_match && flood_survived in
  Bench_common.write_json ~path:"BENCH_soak.json"
    (J.obj
       [
         ("bench", J.quote "soak");
         ("calls", J.int calls);
         ("records", J.int n_records);
         ( "soak",
           J.obj
             [
               ("dispatched", J.int r.Ingest.Daemon.dispatched);
               ("wall_s", J.float a.soak_wall_s);
               ( "records_per_s",
                 J.float (float_of_int r.Ingest.Daemon.dispatched /. a.soak_wall_s) );
               ("checkpoints", J.int r.Ingest.Daemon.checkpoints);
               ("p99_dispatch_s", J.float p99_s);
               ( "live_words",
                 J.arr
                   (List.map
                      (fun (batch, words) ->
                        J.obj [ ("batch", J.int batch); ("words", J.int words) ])
                      a.samples) );
               ("live_word_growth", J.float growth);
             ] );
         ( "kill9",
           J.obj
             [
               ("killed_at_batch", J.int b.killed_at_batch);
               ("killed_dispatched", J.int b.killed_dispatched);
               ("recover_s", J.float b.recover_wall_s);
               ("replayed", J.int b.recovered_replayed);
               ("alert_digest_match", J.bool b.alert_digest_match);
             ] );
         ( "malformed_flood",
           J.obj
             [
               ("mangled_sent", J.int c.mangled_sent);
               ("parse_errors", J.int fr.Ingest.Daemon.parse_errors);
               ("quarantines", J.int q.Ingest.Quarantine.quarantines);
               ("dropped", J.int q.Ingest.Quarantine.dropped);
               ("flood_detected", J.bool c.flood_detected);
             ] );
         ( "gate",
           J.obj
             [
               ("flat_live_words", J.bool flat);
               ("p99_bounded", J.bool p99_bounded);
               ("digest_match", J.bool a.digest_match);
               ("kill9_converges", J.bool b.alert_digest_match);
               ("flood_survived", J.bool flood_survived);
               ("passed", J.bool passed);
             ] );
       ]);
  if not passed then begin
    Printf.eprintf "FAIL: soak gate\n";
    exit 1
  end
