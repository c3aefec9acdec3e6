(* Live-ingestion tests: the pcap codec as a hostile-input boundary, the
   shed queue's watermark discipline, per-source quarantine, backoff
   arithmetic, the UDP listener over a real loopback socket, and the
   daemon's convergence contract — a live run digests equal to an offline
   replay of the same capture, a SIGTERM mid-ingest loses no alert
   already earned, and an 8 000-call soak under a memory ceiling keeps
   its live heap flat. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let ms = Dsim.Time.of_ms

let tmp_path =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vids_ingest_%d_%d%s" (Unix.getpid ()) !n suffix)

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let record ~at ~src ~dst payload = { Vids.Trace.at; src; dst; payload }

let same_record (a : Vids.Trace.record) (b : Vids.Trace.record) =
  Dsim.Time.compare a.Vids.Trace.at b.Vids.Trace.at = 0
  && Dsim.Addr.equal a.Vids.Trace.src b.Vids.Trace.src
  && Dsim.Addr.equal a.Vids.Trace.dst b.Vids.Trace.dst
  && String.equal a.Vids.Trace.payload b.Vids.Trace.payload

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let manual_clock () =
  let c = Ingest.Clock.manual ~start:5.0 () in
  check "manual start" true (c.Ingest.Clock.now () = 5.0);
  c.Ingest.Clock.sleep 1.5;
  check "sleep advances" true (c.Ingest.Clock.now () = 6.5);
  c.Ingest.Clock.sleep 0.5;
  check "sleeps add up" true (c.Ingest.Clock.now () = 7.0);
  c.Ingest.Clock.sleep (-3.0);
  check "negative sleep is a no-op" true (c.Ingest.Clock.now () = 7.0)

let system_clock_monotone () =
  let c = Ingest.Clock.system () in
  let a = c.Ingest.Clock.now () in
  let b = c.Ingest.Clock.now () in
  check "monotone" true (b >= a)

(* ------------------------------------------------------------------ *)
(* Pcap                                                                *)
(* ------------------------------------------------------------------ *)

let pcap_roundtrip () =
  let records = Test_recovery.make_trace ~calls:6 in
  let path = tmp_path ".pcap" in
  Vids.Pcap.write_file path records;
  match Vids.Pcap.read_file path with
  | Error e -> Alcotest.failf "read_file: %s" e
  | Ok (records', skipped, _) ->
      Sys.remove path;
      check_int "no skipped frames" 0 (List.length skipped);
      check_int "same count" (List.length records) (List.length records');
      List.iter2
        (fun a b -> check "record preserved" true (same_record a b))
        records records'

(* The writer writes exactly what it is given or refuses, before a byte
   of the frame: a host the reader would spell differently, or a port no
   UDP header holds, would make a replay differ from the live run. *)
let pcap_refuses_unwritable_addresses () =
  let host = Dsim.Addr.v "10.0.0.1" 5060 in
  let refused what src dst =
    let path = tmp_path ".pcap" in
    let oc = open_out_bin path in
    let w = Vids.Pcap.to_channel oc in
    let raised =
      match Vids.Pcap.write w (record ~at:(ms 1.) ~src ~dst "x") with
      | () -> false
      | exception Invalid_argument _ -> true
    in
    close_out oc;
    let written = String.length (read_bytes path) in
    Sys.remove path;
    check (what ^ ": refused") true raised;
    check_int (what ^ ": only the global header written") 24 written
  in
  refused "simulator node name" (Dsim.Addr.v "nodeA" 5060) host;
  refused "octet above 255" host (Dsim.Addr.v "10.0.0.256" 5060);
  refused "octet with a leading zero" (Dsim.Addr.v "10.0.0.01" 5060) host;
  refused "five octets" host (Dsim.Addr.v "10.0.0.1.1" 5060);
  refused "source port above 65535" (Dsim.Addr.v "10.0.0.2" 70_000) host;
  refused "destination port above 65535" host (Dsim.Addr.v "10.0.0.2" 65_536)

(* The reader builds hosts from an octet table: every octet value must
   come back in every position, with the ports and payload intact. *)
let dotted a b c d = Printf.sprintf "%d.%d.%d.%d" a b c d

let pcap_reads_back records =
  let path = tmp_path ".pcap" in
  Vids.Pcap.write_file path records;
  let read = Vids.Pcap.read_file path in
  Sys.remove path;
  match read with
  | Error _ -> false
  | Ok (records', skipped, _) ->
      skipped = [] && List.length records' = List.length records
      && List.for_all2 same_record records records'

let pcap_every_octet () =
  let records =
    List.init 256 (fun i ->
        record ~at:(ms (float_of_int i))
          ~src:(Dsim.Addr.v (dotted i ((i + 85) mod 256) ((i + 170) mod 256) (255 - i)) (i * 257))
          ~dst:(Dsim.Addr.v (dotted (255 - i) i ((i + 1) mod 256) (i * 7 mod 256)) 5060)
          (String.make (i mod 7) 'p'))
  in
  check "every octet in every position round-trips" true (pcap_reads_back records)

let show_record (r : Vids.Trace.record) =
  Printf.sprintf "%d %s %s %S" (Dsim.Time.to_us r.Vids.Trace.at)
    (Dsim.Addr.to_string r.Vids.Trace.src) (Dsim.Addr.to_string r.Vids.Trace.dst)
    r.Vids.Trace.payload

let pcap_dotted_quad_roundtrip =
  let open QCheck.Gen in
  let octet = int_range 0 255 in
  let addr =
    map2
      (fun (a, b, c, d) port -> Dsim.Addr.v (dotted a b c d) port)
      (quad octet octet octet octet) (int_range 0 65535)
  in
  let capture =
    list_size (int_range 1 20) (triple addr addr (string_size ~gen:char (int_range 0 40)))
    |> map (List.mapi (fun i (src, dst, payload) -> record ~at:(ms (float_of_int i)) ~src ~dst payload))
  in
  q ~count:100 "pcap: random dotted quads survive write -> read"
    (QCheck.make
       ~print:(fun rs -> String.concat "\n" (List.map show_record rs))
       capture)
    pcap_reads_back

let pcap_truncation_fuzz =
  let records = Test_recovery.make_trace ~calls:3 in
  let path = tmp_path ".pcap" in
  Vids.Pcap.write_file path records;
  let full = read_bytes path in
  Sys.remove path;
  let n = List.length records in
  q ~count:120 "pcap: truncation never raises, yields a record prefix"
    QCheck.(int_range 0 (String.length full))
    (fun cut ->
      let path = tmp_path ".pcap" in
      write_bytes path (String.sub full 0 cut);
      let ok =
        match Vids.Pcap.read_file path with
        | Error _ -> cut < 24 (* only a torn global header is fatal *)
        | Ok (records', _, _) ->
            List.length records' <= n
            && List.for_all2 same_record records'
                 (List.filteri (fun i _ -> i < List.length records') records)
      in
      Sys.remove path;
      ok)

(* Two records, the file cut at the end, 8 bytes into the second
   record's header, and inside its frame: only a cut on the boundary is
   a clean end. *)
let pcap_torn_tail () =
  let path = tmp_path ".pcap" in
  let host = Dsim.Addr.v "10.0.0.1" 5060 in
  let first = record ~at:(ms 1.0) ~src:host ~dst:host "first" in
  let capture records =
    Vids.Pcap.write_file path records;
    read_bytes path
  in
  let first_end = String.length (capture [ first ]) in
  let full = capture [ first; { first with Vids.Trace.payload = "second" } ] in
  let read cut =
    write_bytes path (String.sub full 0 cut);
    let ic = open_in_bin path in
    let r = Result.get_ok (Vids.Pcap.of_channel ic) in
    let rec count n = match Vids.Pcap.next r with Some _ -> count (n + 1) | None -> n in
    let n = count 0 in
    close_in ic;
    (n, (Vids.Pcap.stats r).Vids.Pcap.truncated_tail)
  in
  let case what cut want = check what true (read cut = want) in
  case "clean end" (String.length full) (2, false);
  case "torn record header" (first_end + 8) (1, true);
  case "torn frame" (String.length full - 3) (1, true);
  Sys.remove path

let pcap_garbage_fuzz =
  q ~count:120 "pcap: random bytes never raise"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 512) QCheck.Gen.char)
    (fun junk ->
      let path = tmp_path ".pcap" in
      write_bytes path junk;
      let ok =
        match Vids.Pcap.read_file path with Error _ -> true | Ok _ -> true
      in
      Sys.remove path;
      ok)

(* ------------------------------------------------------------------ *)
(* Shed queue                                                          *)
(* ------------------------------------------------------------------ *)

let addr = Dsim.Addr.v "10.0.0.1" 5060

let sip_rec i = record ~at:(ms (float_of_int i)) ~src:addr ~dst:addr "INVITE x"
let rtp_rec i = record ~at:(ms (float_of_int i)) ~src:addr ~dst:addr "\x80\x12binary"

let shed_queue_watermarks () =
  let t = Ingest.Shed_queue.create ~high_water:4 ~capacity:6 () in
  for i = 1 to 4 do
    check "below high water everything enters" true
      (Ingest.Shed_queue.push t (rtp_rec i) = Ingest.Shed_queue.Enqueued)
  done;
  (* Above high water media is refused, signaling still admitted. *)
  check "media shed above high water" true
    (Ingest.Shed_queue.push t (rtp_rec 5) = Ingest.Shed_queue.Shed_media);
  check "signaling admitted above high water" true
    (Ingest.Shed_queue.push t (sip_rec 6) = Ingest.Shed_queue.Enqueued);
  check "signaling admitted at last slot" true
    (Ingest.Shed_queue.push t (sip_rec 7) = Ingest.Shed_queue.Enqueued);
  (* At capacity the oldest is displaced so the newcomer fits. *)
  check "oldest displaced at capacity" true
    (Ingest.Shed_queue.push t (sip_rec 8) = Ingest.Shed_queue.Displaced_oldest);
  check_int "depth stays at capacity" 6 (Ingest.Shed_queue.length t);
  (match Ingest.Shed_queue.pop t with
  | Some r -> check "head is record 2 (record 1 displaced)" true (same_record r (rtp_rec 2))
  | None -> Alcotest.fail "queue empty");
  let s = Ingest.Shed_queue.stats t in
  check_int "enqueued" 7 s.Ingest.Shed_queue.enqueued;
  check_int "shed media" 1 s.Ingest.Shed_queue.shed_media;
  check_int "shed oldest" 1 s.Ingest.Shed_queue.shed_oldest;
  check_int "peak depth" 6 s.Ingest.Shed_queue.peak_depth

(* Above high water the queue admits only what it classifies as
   signaling. *)
let shed_queue_classifier () =
  let is_signaling payload =
    let t = Ingest.Shed_queue.create ~high_water:1 ~capacity:4 () in
    ignore (Ingest.Shed_queue.push t (rtp_rec 0));
    Ingest.Shed_queue.push t (record ~at:(ms 1.0) ~src:addr ~dst:addr payload)
    = Ingest.Shed_queue.Enqueued
  in
  check "SIP request is signaling" true (is_signaling "INVITE sip:x");
  check "SIP response is signaling" true (is_signaling "SIP/2.0 200 OK");
  check "RTP is media" false (is_signaling "\x80\x12\x00\x01");
  check "empty is media" false (is_signaling "")

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)
(* ------------------------------------------------------------------ *)

let srcp p = Dsim.Addr.v "203.0.113.9" p

let quarantine_threshold_and_ttl () =
  let t = Ingest.Quarantine.create ~threshold:3 ~window_s:10.0 ~ttl_s:5.0 () in
  let src = srcp 1000 in
  check "1st error below threshold" false (Ingest.Quarantine.note_error t ~now:0.0 ~src);
  check "2nd error below threshold" false (Ingest.Quarantine.note_error t ~now:0.1 ~src);
  check "not blocked yet" false (Ingest.Quarantine.blocked t ~now:0.2 ~src);
  check "3rd error trips" true (Ingest.Quarantine.note_error t ~now:0.2 ~src);
  check "blocked" true (Ingest.Quarantine.blocked t ~now:0.3 ~src);
  (* Neighbouring ports on the same host are untouched. *)
  check "same host, other port unaffected" false
    (Ingest.Quarantine.blocked t ~now:0.3 ~src:(srcp 1001));
  check "still blocked before ttl" true (Ingest.Quarantine.blocked t ~now:5.1 ~src);
  check "released after ttl" false (Ingest.Quarantine.blocked t ~now:5.3 ~src);
  let s = Ingest.Quarantine.stats t ~now:6.0 in
  check_int "errors charged" 3 s.Ingest.Quarantine.errors;
  check_int "one quarantine" 1 s.Ingest.Quarantine.quarantines;
  check_int "drops counted" 2 s.Ingest.Quarantine.dropped;
  check_int "none active after ttl" 0 s.Ingest.Quarantine.active

let quarantine_window_slides () =
  let t = Ingest.Quarantine.create ~threshold:3 ~window_s:1.0 ~ttl_s:5.0 () in
  let src = srcp 2000 in
  (* Errors spread wider than the window never accumulate to the
     threshold. *)
  check "t=0" false (Ingest.Quarantine.note_error t ~now:0.0 ~src);
  check "t=2" false (Ingest.Quarantine.note_error t ~now:2.0 ~src);
  check "t=4" false (Ingest.Quarantine.note_error t ~now:4.0 ~src);
  check "t=6" false (Ingest.Quarantine.note_error t ~now:6.0 ~src);
  check "never quarantined" false (Ingest.Quarantine.blocked t ~now:6.1 ~src)

let quarantine_lru_bound () =
  let t = Ingest.Quarantine.create ~threshold:2 ~window_s:100.0 ~ttl_s:100.0 ~max_sources:4 () in
  (* Many more distinct sources than the table admits: no growth beyond
     the cap, no exception — the attacker cycling ports cannot turn the
     defense into a leak. *)
  for p = 1 to 100 do
    ignore (Ingest.Quarantine.note_error t ~now:(float_of_int p) ~src:(srcp p))
  done;
  (* A source whose state was LRU-evicted restarts from zero. *)
  check "evicted source needs a full threshold again" false
    (Ingest.Quarantine.note_error t ~now:101.0 ~src:(srcp 1))

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

let backoff_doubles_caps_budgets () =
  let b = Ingest.Backoff.create ~initial_s:0.1 ~factor:2.0 ~cap_s:0.5 ~budget:5 () in
  let next () = Ingest.Backoff.next b in
  check "1st 0.1" true (next () = Some 0.1);
  check "2nd 0.2" true (next () = Some 0.2);
  check "3rd 0.4" true (next () = Some 0.4);
  check "4th capped" true (next () = Some 0.5);
  check "5th capped" true (next () = Some 0.5);
  check "budget spent" true (next () = None);
  check "stays spent" true (next () = None);
  Ingest.Backoff.reset b;
  check "reset restores delay and budget" true (next () = Some 0.1)

let backoff_no_overflow () =
  let b = Ingest.Backoff.create ~initial_s:0.1 ~factor:1e30 ~cap_s:7.0 ~budget:1000 () in
  for _ = 1 to 999 do
    match Ingest.Backoff.next b with
    | Some d -> check "always within cap" true (d > 0.0 && d <= 7.0)
    | None -> Alcotest.fail "budget exhausted early"
  done

(* ------------------------------------------------------------------ *)
(* UDP source (real loopback sockets)                                  *)
(* ------------------------------------------------------------------ *)

let with_sender f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

let sendto fd (addr : Dsim.Addr.t) payload =
  let sockaddr =
    Unix.ADDR_INET (Unix.inet_addr_of_string (Dsim.Addr.host addr), Dsim.Addr.port addr)
  in
  ignore (Unix.sendto fd (Bytes.of_string payload) 0 (String.length payload) [] sockaddr)

let rec drain_udp u ~clock ~tries acc =
  let got = Ingest.Udp_source.recv_batch u ~clock ~max:64 in
  let acc = acc @ got in
  if tries = 0 || List.length acc >= 3 then acc
  else begin
    Unix.sleepf 0.02;
    drain_udp u ~clock ~tries:(tries - 1) acc
  end

let udp_source_loopback () =
  let clock = Ingest.Clock.system () in
  match Ingest.Udp_source.listen ~host:"127.0.0.1" ~port:0 () with
  | Error e -> Alcotest.failf "listen: %s" e
  | Ok u ->
      Fun.protect ~finally:(fun () -> Ingest.Udp_source.close u) @@ fun () ->
      let addr = Ingest.Udp_source.local_addr u in
      check "ephemeral port assigned" true (Dsim.Addr.port addr > 0);
      check_int "dry socket yields nothing" 0
        (List.length (Ingest.Udp_source.recv_batch u ~clock ~max:16));
      with_sender (fun fd ->
          sendto fd addr "one";
          sendto fd addr "two";
          sendto fd addr "three";
          let got = drain_udp u ~clock ~tries:50 [] in
          check_int "all three received" 3 (List.length got);
          check "payloads preserved" true
            (List.map (fun d -> d.Ingest.Udp_source.payload) got = [ "one"; "two"; "three" ]);
          (* All from the same sender socket: one consistent source addr. *)
          (match got with
          | a :: rest ->
              List.iter
                (fun d ->
                  check "consistent src" true
                    (Dsim.Addr.equal a.Ingest.Udp_source.src d.Ingest.Udp_source.src))
                rest
          | [] -> ());
          let s = Ingest.Udp_source.stats u in
          check_int "received counted" 3 s.Ingest.Udp_source.received;
          check "no errors" true (s.Ingest.Udp_source.recv_errors = 0 && not s.Ingest.Udp_source.gave_up))

(* ------------------------------------------------------------------ *)
(* Daemon: pcap convergence with offline replay                        *)
(* ------------------------------------------------------------------ *)

let run_daemon ?(config = Ingest.Daemon.default) ?stop ?hard_kill ?on_batch sources =
  let clock = Ingest.Clock.manual () in
  match Ingest.Daemon.run ~clock ?stop ?hard_kill ?on_batch config sources with
  | Error e -> Alcotest.failf "daemon: %s" e
  | Ok report -> report

let daemon_config =
  { Ingest.Daemon.default with Ingest.Daemon.checkpoint_every_s = 0.0; batch = 32 }

(* A capture file is chronological; [make_trace] builds call-by-call, so
   sort before writing what a real sensor would have seen on the wire. *)
let by_time =
  List.stable_sort (fun (a : Vids.Trace.record) b ->
      Dsim.Time.compare a.Vids.Trace.at b.Vids.Trace.at)

let daemon_converges_with_replay () =
  (* Call [y] at 0 ms pins the capture's clock: the daemon rebases every
     record onto its first one. *)
  let y =
    record ~at:Dsim.Time.zero ~src:(Dsim.Addr.v "10.1.0.2" 5060) ~dst:(Dsim.Addr.v "10.2.0.2" 5060)
      (Test_recovery.invite ~callee:"bob" ~call_id:"y" ~port:16386)
  in
  List.iter
    (fun (label, config, records) ->
      let path = tmp_path ".pcap" in
      Ingest.Pcap.write_file path records;
      let report =
        run_daemon
          ~config:{ daemon_config with Ingest.Daemon.engine_config = config }
          [ Ingest.Daemon.Pcap_file { path; pace = false } ]
      in
      Sys.remove path;
      check (label ^ ": stopped at end of file") true
        (report.Ingest.Daemon.stop_reason = Ingest.Daemon.Eof);
      check_int (label ^ ": every record dispatched") (List.length records)
        report.Ingest.Daemon.dispatched;
      (* The convergence contract: the live path (pcap bytes → queue →
         clock bridge → Trace.step) digests equal to the batch replay at
         the same horizon. *)
      let horizon = report.Ingest.Daemon.horizon in
      let _sched, offline = Vids.Trace.replay_until ?config ~until:horizon records in
      check_str (label ^ ": digest equals offline replay")
        (Vids.Snapshot.digest ~at:horizon offline)
        (Vids.Snapshot.digest ~at:horizon report.Ingest.Daemon.engine))
    [
      ("12 calls", None, by_time (Test_recovery.make_trace ~calls:12));
      ( "sweep due with a CANCEL at 1 s",
        Some (Test_recovery.grid_sweep ~every:(ms 1000.) ~max_age:(ms 500.)),
        y :: Test_recovery.sweep_tie ~cancel_at:(ms 1000.) );
    ]

let daemon_paced_run () =
  (* Under the manual clock, pacing "sleeps" advance virtual wall time
     instantly — the paced daemon is deterministic and fast. *)
  let records = Test_recovery.make_trace ~calls:4 in
  let path = tmp_path ".pcap" in
  Vids.Pcap.write_file path records;
  let report =
    run_daemon ~config:daemon_config [ Ingest.Daemon.Pcap_file { path; pace = true } ]
  in
  Sys.remove path;
  check_int "every record dispatched" (List.length records) report.Ingest.Daemon.dispatched;
  check "horizon reached the last record" true
    (Dsim.Time.( >= ) report.Ingest.Daemon.horizon
       (List.fold_left (fun acc r -> Dsim.Time.max acc r.Vids.Trace.at) Dsim.Time.zero records))

(* The alert-preservation half of graceful shutdown: a SIGTERM landing
   after the attack traffic but before the capture ends must leave the
   same alert log as a run that saw the whole capture. *)
let flood_then_benign () =
  let flood =
    List.init 30 (fun i ->
        record
          ~at:(ms (200.0 +. (5.0 *. float_of_int i)))
          ~src:(Dsim.Addr.v "203.0.113.66" 5060)
          ~dst:(Dsim.Addr.v "10.2.0.2" 5060)
          (Test_recovery.invite ~callee:"bob" ~call_id:(Printf.sprintf "flood-%d" i) ~port:20000))
  in
  let benign =
    List.map
      (fun r -> { r with Vids.Trace.at = Dsim.Time.add r.Vids.Trace.at (Dsim.Time.of_sec 2.0) })
      (Test_recovery.make_trace ~calls:6)
  in
  by_time (flood @ benign)

let alert_keys engine =
  List.sort compare (List.map Vids.Alert.dedup_key (Vids.Engine.alerts engine))

let daemon_sigterm_preserves_alerts () =
  let records = flood_then_benign () in
  let path = tmp_path ".pcap" in
  Vids.Pcap.write_file path records;
  (* Clean end-of-capture baseline. *)
  let clean =
    run_daemon ~config:daemon_config [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  check "baseline raised the flood alert" true
    (Vids.Engine.alerts_of_kind clean.Ingest.Daemon.engine Vids.Alert.Invite_flood <> []);
  (* Same capture, but the stop flag (the signal handler's write) raised
     after the second batch — past the flood (the sorted capture leads
     with it), inside the benign tail, and strictly before the loop can
     reach end-of-file on its own. *)
  let stop = ref false in
  let batches = ref 0 in
  let interrupted =
    run_daemon ~config:daemon_config ~stop
      ~on_batch:(fun () ->
        incr batches;
        if !batches = 2 then stop := true)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  Sys.remove path;
  check "stopped by signal" true
    (interrupted.Ingest.Daemon.stop_reason = Ingest.Daemon.Signalled);
  check "interrupted before end of capture" true
    (interrupted.Ingest.Daemon.dispatched < List.length records);
  check "flood dispatched before the signal" true (interrupted.Ingest.Daemon.dispatched >= 30);
  Alcotest.(check (list string))
    "same alert digest as the clean run"
    (alert_keys clean.Ingest.Daemon.engine)
    (alert_keys interrupted.Ingest.Daemon.engine)

(* A capture frame the decoder cannot read, here an IPv4 frame that is
   not UDP, is skipped with the decoder's reason, and enforced recovery
   still restores the rules.  The gate runs outside the engine's
   containment, so a record recovery cannot decode must never reach
   it. *)
let enforced_recovery_skips_a_non_udp_frame () =
  let path = tmp_path ".pcap" and snap = tmp_path ".ck" and capture = tmp_path ".pcap" in
  Vids.Pcap.write_file path (flood_then_benign ());
  let config =
    {
      daemon_config with
      Ingest.Daemon.snapshot_path = Some snap;
      record_path = Some capture;
      enforce = Some Enforce.Enforcer.default_policy;
    }
  in
  let report = run_daemon ~config [ Ingest.Daemon.Pcap_file { path; pace = false } ] in
  let horizon = report.Ingest.Daemon.horizon in
  let rules e = Enforce.Block_table.rules (Enforce.Enforcer.table e) ~now:horizon in
  check "the flood left a rule" true (rules (Option.get report.Ingest.Daemon.enforcer) <> []);
  (* One frame as the writer frames it, made TCP: byte 9 of its IPv4
     header, past the global, record and Ethernet headers. *)
  let one = tmp_path ".pcap" in
  Vids.Pcap.write_file one
    [
      record ~at:(Dsim.Time.add horizon (ms 1.)) ~src:(Dsim.Addr.v "10.9.9.9" 5060)
        ~dst:(Dsim.Addr.v "10.0.0.1" 5060) "x";
    ];
  let frame = Bytes.of_string (read_bytes one) in
  Bytes.set frame (24 + 16 + 14 + 9) '\006';
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 capture in
  output_string oc (Bytes.sub_string frame 24 (Bytes.length frame - 24));
  close_out oc;
  let recovered = Enforce.Recover.recover_files ~trace_path:capture ~snapshot_path:snap () in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; snap; Vids.Snapshot.previous_path snap; capture; one ];
  match recovered with
  | Error e -> Alcotest.failf "recovery: %s" e
  | Ok (fr, e) ->
      Alcotest.(check (list string))
        "the frame is skipped with the decoder's reason" [ "not udp" ]
        (List.map snd fr.Vids.Recovery.trace_skipped);
      check "the rules are restored" true (rules e <> [])

(* The flood's rule lands 30 ms in, after the 20 ms checkpoint, and the
   kill follows the first batch, before the next checkpoint: only the
   journal carries the rule, so recovery must apply the journaled
   decision to reach the killed gate's table. *)
let enforced_recovery_applies_journaled_rule () =
  let path = tmp_path ".pcap" and snap = tmp_path ".ck" and capture = tmp_path ".trace" in
  Vids.Pcap.write_file path (flood_then_benign ());
  let policy = Enforce.Enforcer.default_policy in
  let config =
    {
      daemon_config with
      Ingest.Daemon.batch = 8;
      checkpoint_every_s = 0.02;
      snapshot_path = Some snap;
      journal_path = Some (snap ^ ".journal");
      record_path = Some capture;
      enforce = Some policy;
    }
  in
  let hard_kill = ref false in
  let killed =
    run_daemon ~config ~hard_kill
      ~on_batch:(fun () -> hard_kill := true)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  let live = Option.get killed.Ingest.Daemon.enforcer in
  check_int "one checkpoint before the kill" 1 killed.Ingest.Daemon.checkpoints;
  check "a rule live at the kill" true
    (Enforce.Block_table.rules (Enforce.Enforcer.table live) ~now:killed.Ingest.Daemon.horizon
    <> []);
  let recovered =
    Enforce.Recover.recover_files ~policy ~journal_path:(snap ^ ".journal") ~trace_path:capture
      ~until:killed.Ingest.Daemon.horizon ~snapshot_path:snap ()
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; snap; snap ^ ".journal"; capture ];
  match recovered with
  | Error e -> Alcotest.failf "recovery: %s" e
  | Ok (fr, e) ->
      check_int "one journaled decision after the checkpoint" 1
        fr.Vids.Recovery.outcome.Vids.Recovery.journal_exts;
      check_str "recovered enforcement digest" (Enforce.Enforcer.digest live)
        (Enforce.Enforcer.digest e)

(* The tee as a crash tears it.  The daemon's channel spills to disk in
   buffer-sized chunks between checkpoints, so records after the last
   checkpoint can be on disk, the last of them cut short.  Here 160
   kilobyte datagrams land just after a checkpoint, on a port the sensor
   does not analyse (so none raises an alert that the journal would carry
   past the cut); the daemon is killed once they are dispatched, and the
   tee is then cut inside its last whole frame. *)
let hard_kill_torn_tee () =
  let benign = flood_then_benign () in
  let first = (List.hd benign).Vids.Trace.at in
  let last = (List.nth benign (List.length benign - 1)).Vids.Trace.at in
  (* The daemon rebases onto the first record and checkpoints every
     500 ms from there. *)
  let next_checkpoint = ((Dsim.Time.to_us (Dsim.Time.sub last first) / 500_000) + 1) * 500_000 in
  let other i =
    record
      ~at:(Dsim.Time.add first (Dsim.Time.of_us (next_checkpoint + 1000 + (1000 * i))))
      ~src:(Dsim.Addr.v "10.1.0.10" 9) ~dst:(Dsim.Addr.v "10.2.0.10" 9) (String.make 1000 'x')
  in
  let records = benign @ List.init (160 + 64) other in
  let path = tmp_path ".pcap" and snap = tmp_path ".ck" and capture = tmp_path ".pcap" in
  let journal = snap ^ ".journal" in
  Vids.Pcap.write_file path records;
  let config =
    {
      daemon_config with
      Ingest.Daemon.checkpoint_every_s = 0.5;
      snapshot_path = Some snap;
      journal_path = Some journal;
      record_path = Some capture;
    }
  in
  let kill_batch = (List.length benign + 160 + 31) / 32 in
  let hard_kill = ref false and batches = ref 0 in
  let killed =
    run_daemon ~config ~hard_kill
      ~on_batch:(fun () ->
        incr batches;
        if !batches = kill_batch then hard_kill := true)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  check "torn tee: killed" true (killed.Ingest.Daemon.stop_reason = Ingest.Daemon.Killed);
  let tee = read_bytes capture in
  let whole =
    match Vids.Pcap.read_file capture with
    | Ok (rs, _, _) -> rs
    | Error e -> Alcotest.failf "torn tee: %s" e
  in
  let before_cut = List.filteri (fun i _ -> i < List.length whole - 1) whole in
  let frame_bytes (r : Vids.Trace.record) = 16 + 14 + 20 + 8 + String.length r.Vids.Trace.payload in
  write_bytes capture
    (String.sub tee 0 (24 + List.fold_left (fun n r -> n + frame_bytes r) 20 before_cut));
  let recovered =
    Vids.Recovery.recover_files ~journal_path:journal ~trace_path:capture ~snapshot_path:snap ()
  in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; snap; snap ^ ".1"; journal; capture ];
  match recovered with
  | Error e -> Alcotest.failf "torn tee: recovery: %s" e
  | Ok fr ->
      let o = fr.Vids.Recovery.outcome in
      check "torn tee: records after the checkpoint replayed" true (o.Vids.Recovery.replayed > 0);
      Alcotest.(check (list string))
        "torn tee: the truncated tail is listed" [ "truncated tail" ]
        (List.map snd fr.Vids.Recovery.trace_skipped);
      let at = Dsim.Scheduler.now o.Vids.Recovery.sched in
      let _sched, offline = Vids.Trace.replay_until ~until:at before_cut in
      check_str "torn tee: recovered digest equals replay of the records before the cut"
        (Vids.Snapshot.digest ~at offline)
        (Vids.Snapshot.digest ~at o.Vids.Recovery.engine)

let daemon_hard_kill_recovers () =
  let records = flood_then_benign () in
  let path = tmp_path ".pcap" in
  let snap = tmp_path ".ck" in
  let journal = snap ^ ".journal" in
  let capture = tmp_path ".trace" in
  Ingest.Pcap.write_file path records;
  let config =
    {
      daemon_config with
      Ingest.Daemon.checkpoint_every_s = 0.5;
      snapshot_path = Some snap;
      journal_path = Some journal;
      record_path = Some capture;
    }
  in
  (* kill -9 mid-ingest: the flag flips after the second batch — before
     the capture runs dry — and the loop returns without drain, final
     checkpoint, or channel close. *)
  let hard_kill = ref false in
  let batches = ref 0 in
  let killed =
    run_daemon ~config ~hard_kill
      ~on_batch:(fun () ->
        incr batches;
        if !batches = 2 then hard_kill := true)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  check "killed" true (killed.Ingest.Daemon.stop_reason = Ingest.Daemon.Killed);
  check "a checkpoint had been saved" true (Sys.file_exists snap);
  (* Recover from the survivors: snapshot + journal + the daemon's own
     capture file.  The outcome must digest-converge with an offline
     replay of that capture at the recovered horizon. *)
  (match
     Vids.Recovery.recover_files ~journal_path:journal ~trace_path:capture
       ~snapshot_path:snap ()
   with
  | Error e -> Alcotest.failf "recovery: %s" e
  | Ok fr ->
      let o = fr.Vids.Recovery.outcome in
      let at = Dsim.Scheduler.now o.Vids.Recovery.sched in
      let dispatched_records =
        match Vids.Pcap.read_file capture with
        | Ok (rs, bad, _) ->
            check_int "capture parses cleanly" 0 (List.length bad);
            rs
        | Error e -> Alcotest.failf "capture: %s" e
      in
      let _sched, offline = Vids.Trace.replay_until ~until:at dispatched_records in
      check_str "recovered digest equals replay of the capture"
        (Vids.Snapshot.digest ~at offline)
        (Vids.Snapshot.digest ~at o.Vids.Recovery.engine));
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; snap; snap ^ ".1"; journal; capture ];
  hard_kill_torn_tee ()

(* ------------------------------------------------------------------ *)
(* Daemon: soak under a memory ceiling                                 *)
(* ------------------------------------------------------------------ *)

(* The governed preset ages calls out after 30 minutes, longer than the
   soak itself, so its ceiling is scaled down until the steady state
   arrives inside the run, with every mechanism (caps, ageing, periodic
   sweep, degradation) live.  At 20 calls/s the pools plateau around 90 s
   in: closed calls linger 32 s, abandoned setups age out at 60 s. *)
let soak_ceiling =
  {
    (Vids.Config.governed Vids.Config.default) with
    Vids.Config.call_max_age = Dsim.Time.of_sec 60.0;
    sweep_interval = Dsim.Time.of_sec 10.0;
    max_calls = 4_000;
    max_detectors = 4_000;
    degrade_high_water = 3_600;
    degrade_low_water = 3_200;
  }

(* 8 000 calls of churn (6.7 simulated minutes, ≈54 000 records) through
   the daemon with 30 s checkpoints.  Live words are sampled 24 times
   after a full collection; the first quarter is warm-up, while the
   capped fact base fills to its plateau. *)
let daemon_soak_holds_memory_flat () =
  let records = by_time (Test_recovery.make_trace ~calls:8000) in
  let path = tmp_path ".pcap" and snap = tmp_path ".ck" in
  Vids.Pcap.write_file path records;
  let config =
    {
      Ingest.Daemon.default with
      Ingest.Daemon.engine_config = Some soak_ceiling;
      batch = 256;
      checkpoint_every_s = 30.0;
      snapshot_path = Some snap;
      journal_path = Some (snap ^ ".journal");
    }
  in
  let sample_every = max 1 (((List.length records / config.Ingest.Daemon.batch) + 1) / 24) in
  let batches = ref 0 and samples = ref [] in
  let report =
    run_daemon ~config
      ~on_batch:(fun () ->
        incr batches;
        if !batches mod sample_every = 0 then begin
          Gc.full_major ();
          samples := (Gc.stat ()).Gc.live_words :: !samples
        end)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; snap; snap ^ ".1"; snap ^ ".journal" ];
  check_int "every record dispatched" (List.length records) report.Ingest.Daemon.dispatched;
  check "checkpoints taken" true (report.Ingest.Daemon.checkpoints >= 10);
  let samples = List.rev !samples in
  let warm = List.filteri (fun i _ -> i >= List.length samples / 4) samples in
  let growth =
    float_of_int (List.nth warm (List.length warm - 1)) /. float_of_int (List.hd warm)
  in
  check (Printf.sprintf "live words grow %.3fx after warm-up, at most 1.05x" growth) true
    (growth <= 1.05);
  let p99 = Dsim.Stat.Quantiles.p99 report.Ingest.Daemon.dispatch in
  check (Printf.sprintf "p99 dispatch %.0f us, at most 5 ms" (1e6 *. p99)) true (p99 <= 0.005);
  let horizon = report.Ingest.Daemon.horizon in
  let _sched, offline = Vids.Trace.replay_until ~config:soak_ceiling ~until:horizon records in
  let md5 engine = Digest.to_hex (Digest.string (Vids.Snapshot.digest ~at:horizon engine)) in
  check_str "digest equals offline replay" (md5 offline) (md5 report.Ingest.Daemon.engine)

(* ------------------------------------------------------------------ *)
(* Daemon: live UDP with a hostile source (real loopback)              *)
(* ------------------------------------------------------------------ *)

(* INVITEs pushed through a two-node Dsim.Network whose fault layer
   truncates (p 0.6) and flips bytes (p 0.8): whatever reaches the far
   end is what a hostile wire would deliver. *)
let mangled_invites ~count =
  let sched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create sched (Dsim.Rng.create 4242) in
  let atk = Dsim.Network.add_node net ~name:"atk" ~hosts:[ "198.51.100.1" ] in
  let ids = Dsim.Network.add_node net ~name:"ids" ~hosts:[ "198.51.100.2" ] in
  Dsim.Network.connect net atk ids ~rate_bps:0.0 ~prop_delay:(ms 1.0) ~loss_prob:0.0;
  Dsim.Network.set_fault_profile net
    (Some { Dsim.Network.pristine with Dsim.Network.truncate_prob = 0.6; corrupt_prob = 0.8 });
  let out = ref [] in
  Dsim.Network.set_handler ids (fun p -> out := p.Dsim.Packet.payload :: !out);
  let src = Dsim.Addr.v "198.51.100.1" 5060 and dst = Dsim.Addr.v "198.51.100.2" 5060 in
  for i = 1 to count do
    Dsim.Network.send net ~from:atk
      (Dsim.Network.make_packet net ~src ~dst
         (Test_recovery.invite ~callee:"bob" ~call_id:(Printf.sprintf "mangle-%d" i) ~port:20000))
  done;
  Dsim.Scheduler.run sched;
  List.rev !out

(* A hostile source sends [first] and, well after it, [second], while a
   distinct source floods INVITEs: once with plain garbage, once with
   mangled INVITEs. *)
let daemon_udp_quarantine_and_detection () =
  let garbage what n = List.init n (fun i -> Printf.sprintf "GARBAGE %s %d" what (i + 1)) in
  let mangled = mangled_invites ~count:30 in
  List.iter
    (fun (label, first, second) ->
      (* The classifier keys SIP on port 5060, so the listener must own
         it; if another process does, fail loudly rather than silently
         skip. *)
      match Ingest.Udp_source.listen ~host:"127.0.0.1" ~port:5060 () with
      | Error e -> Alcotest.failf "cannot bind 127.0.0.1:5060 (%s)" e
      | Ok u ->
          let daemon_addr = Ingest.Udp_source.local_addr u in
          with_sender @@ fun hostile ->
          with_sender @@ fun attacker ->
          let stop = ref false in
          let batches = ref 0 in
          let send_invite i =
            sendto attacker daemon_addr
              (Test_recovery.invite ~callee:"bob" ~call_id:(Printf.sprintf "udp-flood-%d" i)
                 ~port:20000)
          in
          let report =
            run_daemon
              ~config:daemon_config
              ~stop
              ~on_batch:(fun () ->
                incr batches;
                (* Batch 1: the hostile burst while a distinct source
                   floods INVITEs — the attack the sensor must still see.
                   The loop then gets a generous number of turns to drain
                   the kernel buffer before the stop flag trips. *)
                if !batches = 1 then begin
                  List.iter (sendto hostile daemon_addr) first;
                  for i = 1 to 10 do
                    send_invite i
                  done
                end;
                (* A second burst well after the first: by now the source
                   is quarantined, so these must die at the door — the
                   drop counter is the proof the filter is load-bearing. *)
                if !batches = 50 then List.iter (sendto hostile daemon_addr) second;
                if !batches = 200 then stop := true)
              [ Ingest.Daemon.Udp u ]
          in
          let check what = check (label ^ ": " ^ what) in
          check "stopped by the test flag" true
            (report.Ingest.Daemon.stop_reason = Ingest.Daemon.Signalled);
          (* The hostile datagrams were counted and their source
             quarantined... *)
          check "parse errors counted" true (report.Ingest.Daemon.parse_errors >= 5);
          check "hostile source quarantined" true
            (report.Ingest.Daemon.quarantine.Ingest.Quarantine.quarantines >= 1);
          check "datagrams dropped at the door" true
            (report.Ingest.Daemon.quarantine.Ingest.Quarantine.dropped >= 1);
          (* ...while the concurrent legitimate detection still fired. *)
          check "INVITE flood still detected" true
            (Vids.Engine.alerts_of_kind report.Ingest.Daemon.engine Vids.Alert.Invite_flood <> []))
    [
      ("garbage", garbage "not sip" 12, garbage "again" 6);
      ("mangled INVITEs", mangled, mangled);
    ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "ingest",
      [
        tc "manual clock" manual_clock;
        tc "system clock monotone" system_clock_monotone;
        tc "pcap round-trip" pcap_roundtrip;
        tc "pcap refuses non-IP hosts and ports above 65535" pcap_refuses_unwritable_addresses;
        tc "pcap every octet" pcap_every_octet;
        tc "pcap torn record header flags the tail" pcap_torn_tail;
        pcap_dotted_quad_roundtrip;
        pcap_truncation_fuzz;
        pcap_garbage_fuzz;
        tc "shed queue watermarks" shed_queue_watermarks;
        tc "shed queue classifier" shed_queue_classifier;
        tc "quarantine threshold and ttl" quarantine_threshold_and_ttl;
        tc "quarantine window slides" quarantine_window_slides;
        tc "quarantine lru bound" quarantine_lru_bound;
        tc "backoff doubles, caps, budgets" backoff_doubles_caps_budgets;
        tc "backoff immune to float overflow" backoff_no_overflow;
        tc "udp source over loopback" udp_source_loopback;
        tc "daemon converges with offline replay" daemon_converges_with_replay;
        tc "daemon paced run under manual clock" daemon_paced_run;
        tc "daemon SIGTERM preserves earned alerts" daemon_sigterm_preserves_alerts;
        tc "daemon hard kill recovers through Recovery" daemon_hard_kill_recovers;
        tc "enforced recovery skips a non-UDP frame" enforced_recovery_skips_a_non_udp_frame;
        tc "enforced recovery applies a journaled rule" enforced_recovery_applies_journaled_rule;
        tc "daemon quarantines hostile UDP source, still detects" daemon_udp_quarantine_and_detection;
        tc "daemon soak holds memory flat under a ceiling" daemon_soak_holds_memory_flat;
      ] );
  ]
