(* The vIDS benchmark.

   One workload runs per process.  Its capture is generated from the seed
   and written to a pcap before any timing starts; every timed repeat then
   replays the capture's prefix through [Ingest.Daemon.run] (the
   [vids-cli run FILE.pcap] path, under a manual clock, unpaced),
   checkpoints the engine it leaves behind, and recovers from that
   checkpoint over the capture's suffix.  Everything runs in one process
   on one thread.

   Run without [--workload], the suite runs every workload in turn, each
   in a fresh child process (the heap [open_calls] leaves behind would
   otherwise skew the workloads after it).

     suite.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
               [--out FILE] [--smoke]

   The last line of standard output is one JSON object: [correct],
   [attempted], [failed], and the end-to-end metrics (or, with
   [--trace 1], the per-layer metrics).  The process exits 1 on any golden
   mismatch, missed attack, false alert or block, or recovery divergence,
   and 2 on a harness error. *)

module M = Measure
module J = Obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("suite: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Directions live in BENCHMARK.json.  [bound] is the end-to-end
   regression bound as a share of the reported value (0 for per-layer
   metrics).

   Every end-to-end metric reports the median of the run's samples.  Each
   timing sample is corrected by the host speed measured around it
   ([M.Host]): other tenants of a shared host slow this memory-bound work
   by up to 2x for minutes at a time, so that the best raw sample of a
   20 s run still spread 27% over ten runs.  The deterministic metrics
   have one value. *)
type metric = { name : string; unit_ : string; bound : float }

let metric ?(bound = 0.) name unit_ = { name; unit_; bound }

let end_to_end =
  [
    metric "setup_s" "s" ~bound:0.25;
    metric "records_per_s" "records/s" ~bound:0.25;
    metric "alloc_bytes_per_record" "B/record" ~bound:0.03;
    metric "live_bytes_per_call" "B" ~bound:0.05;
    metric "checkpoint_s" "s" ~bound:0.25;
    metric "recover_s" "s" ~bound:0.25;
  ]

let stages =
  Obs.Prof.
    [
      Sip_parse; Sdp_parse; Rtp_parse; Efsm_dispatch; Detect; Enforce_gate; Journal_fsync;
      Checkpoint; Ingest_poll; Drive;
    ]

let per_layer =
  List.concat_map
    (fun s ->
      let n = Obs.Prof.stage_name s in
      [
        metric ("prof." ^ n ^ ".self_s") "s";
        metric ("prof." ^ n ^ ".bytes_per_record") "B/record";
      ])
    stages
  @ List.map
      (fun (name, unit_) -> metric name unit_)
      [
        ("prof.unattributed_share", "ratio");
        ("prof.overhead", "ratio");
        ("sip.parse_ns", "ns");
        ("sip.parse_bytes", "B");
        ("sdp.parse_ns", "ns");
        ("sdp.parse_bytes", "B");
        ("sip_event.of_msg_ns", "ns");
        ("sip_event.of_msg_bytes", "B");
        ("rtp.decode_ns", "ns");
        ("rtp.decode_bytes", "B");
        ("classifier.classify_ns", "ns");
        ("classifier.classify_bytes", "B");
        ("classifier.unanalysed_share", "ratio");
        ("sched.advance_s", "s");
        ("engine.process_s", "s");
        ("engine.record_us_p50", "us");
        ("engine.record_us_p99", "us");
        ("engine.record_us_p999", "us");
        ("gc.minor_per_krecord", "count/krecord");
        ("gc.major_collections", "count");
        ("gc.promoted_bytes_per_record", "B/record");
        ("gc.top_heap_mb", "MB");
        ("fact_base.peak_calls", "count");
        ("fact_base.detectors", "count");
        ("fact_base.self_estimate_bytes_per_call", "B");
        ("snapshot.capture_s", "s");
        ("snapshot.save_s", "s");
        ("snapshot.load_s", "s");
        ("snapshot.bytes_per_call", "B");
        ("recovery.replay_s", "s");
        ("journal.bytes_per_record", "B/record");
        ("journal.fsyncs", "count");
        ("enforce.attack_drop_ratio", "ratio");
        ("ingest.pcap_read_s", "s");
        ("ingest.dispatch_us_p50", "us");
        ("ingest.dispatch_us_p99", "us");
      ]

(* ------------------------------------------------------------------ *)
(* One workload's files and daemon configuration                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  w : Gen.workload;
  cap : Gen.capture;
  prefix_n : int;
  suffix : Vids.Trace.record list;
  prefix_pcap : string;
  empty_pcap : string;
  suffix_trace : string;
  snapshot : string;  (** The bench's checkpoint. *)
  daemon_snapshot : string;
  journal : string;
}

let enforcing ctx = ctx.w = Gen.Attack_mix
let policy = Enforce.Enforcer.default_policy
let config ctx = ctx.cap.Gen.engine_config

(* attack_mix is the one workload that writes: prevention mode, a
   write-ahead journal and 5 s virtual checkpoints. *)
let daemon_config ctx =
  let base = { Ingest.Daemon.default with engine_config = Some (config ctx) } in
  if enforcing ctx then
    {
      base with
      enforce = Some policy;
      journal_path = Some ctx.journal;
      snapshot_path = Some ctx.daemon_snapshot;
      checkpoint_every_s = 5.0;
    }
  else base

let remove p = if Sys.file_exists p then Sys.remove p

let reset_files ctx =
  List.iter remove
    [
      ctx.snapshot;
      Vids.Snapshot.previous_path ctx.snapshot;
      ctx.daemon_snapshot;
      Vids.Snapshot.previous_path ctx.daemon_snapshot;
      ctx.journal;
    ]

let run_daemon ?prof ctx path =
  match
    Ingest.Daemon.run ~clock:(Ingest.Clock.manual ()) ?prof (daemon_config ctx)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  with
  | Ok r -> r
  | Error e -> fail "daemon: %s" e

let file_size p = if Sys.file_exists p then (Unix.stat p).Unix.st_size else 0
let md5 s = Digest.to_hex (Digest.string s)
let horizon ctx = ctx.cap.Gen.records.(Array.length ctx.cap.Gen.records - 1).Vids.Trace.at
let per x n = float_of_int x /. float_of_int (max 1 n)

(* ------------------------------------------------------------------ *)
(* Timed repeats                                                       *)
(* ------------------------------------------------------------------ *)

type repeat = {
  wall_s : float;
  daemon_speed : float;  (** [M.Host] speed around each phase. *)
  checkpoint_speed : float;
  recover_speed : float;
  dispatched : int;
  alloc_bytes : float;  (** Per record. *)
  minor_gcs : int;
  major_gcs : int;
  promoted_bytes : float;  (** Per record. *)
  dispatch_p50 : float;
  dispatch_p99 : float;
  checkpoints : (float * float) list;  (** Capture and save seconds of each checkpoint. *)
  load_s : float;
  recover_s : float;
  snapshot_bytes : int;
  mem : Vids.Fact_base.stats;  (** At the checkpoint. *)
  ops : int;
  failed : int;
  live_bytes : float;  (** Per call; measured on the first warm-up only. *)
  recovered_digest : string;  (** Computed on the first warm-up only. *)
  recovered_enforce : string option;
}

(* The daemon over the prefix, then three checkpoints of the engine it
   leaves.  The daemon's engine is dead once this returns, so recovery
   never holds two large engines at once. *)
let daemon_phase ctx ~warm =
  reset_files ctx;
  Gc.full_major ();
  let live0 = if warm then (Gc.stat ()).Gc.live_words else 0 in
  let (g0, a0, (report, wall_s), a1, g1), daemon_speed =
    M.Host.around (fun () ->
        let g0 = Gc.quick_stat () in
        let a0 = M.allocated_words () in
        let timed = M.timed (fun () -> run_daemon ctx ctx.prefix_pcap) in
        let a1 = M.allocated_words () in
        (g0, a0, timed, a1, Gc.quick_stat ()))
  in
  let engine = report.Ingest.Daemon.engine in
  let mem = Vids.Engine.memory_stats engine in
  let live_bytes =
    if warm then begin
      Gc.full_major ();
      per (8 * ((Gc.stat ()).Gc.live_words - live0)) mem.Vids.Fact_base.active_calls
    end
    else Float.nan
  in
  let ext =
    match report.Ingest.Daemon.enforcer with
    | None -> []
    | Some e -> [ (Enforce.Enforcer.ext_tag, Enforce.Enforcer.snapshot_payload e) ]
  in
  (* Recovery reads the last one written. *)
  let checkpoints, checkpoint_speed =
    M.Host.around (fun () ->
        List.init 3 (fun _ ->
            let snap, capture_s =
              M.timed (fun () ->
                  Vids.Snapshot.capture ~seq:report.Ingest.Daemon.checkpoints ~ext
                    ~at:report.Ingest.Daemon.horizon engine)
            in
            let (), save_s = M.timed (fun () -> Vids.Snapshot.save ~path:ctx.snapshot snap) in
            (capture_s, save_s)))
  in
  let q = report.Ingest.Daemon.queue in
  let dispatched = report.Ingest.Daemon.dispatched in
  let bytes_per_record words = 8. *. words /. float_of_int (max 1 dispatched) in
  {
    wall_s;
    daemon_speed;
    checkpoint_speed;
    recover_speed = 1.;
    dispatched;
    alloc_bytes = bytes_per_record (a1 -. a0);
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_bytes = bytes_per_record (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    dispatch_p50 = 1e6 *. Dsim.Stat.Quantiles.p50 report.Ingest.Daemon.dispatch;
    dispatch_p99 = 1e6 *. Dsim.Stat.Quantiles.p99 report.Ingest.Daemon.dispatch;
    checkpoints;
    load_s = 0.;
    recover_s = 0.;
    snapshot_bytes = file_size ctx.snapshot;
    mem;
    ops = ctx.prefix_n;
    failed =
      ctx.prefix_n - dispatched + q.Ingest.Shed_queue.shed_media + q.Ingest.Shed_queue.shed_oldest
      + report.Ingest.Daemon.parse_errors;
    live_bytes;
    recovered_digest = "";
    recovered_enforce = None;
  }

(* Recovery from the bench's checkpoint over the suffix: [Snapshot.load]
   then [Recovery.recover]; under enforcement, the file-level
   [Enforce.Recover.recover_files] (snapshot, journal and suffix capture),
   the only recovery that restores the block table, which loads the
   snapshot itself.  The dead daemon engine is collected first: left to
   the major collector, its sweep lands in the timed recovery, more of it
   the longer the process has run. *)
let recover_phase ctx (r : repeat) ~warm =
  let until = horizon ctx in
  Gc.full_major ();
  let (load_s, recovered, recover_s), recover_speed =
    M.Host.around (fun () ->
        let snap, load_s =
          M.timed (fun () ->
              match Vids.Snapshot.load ctx.snapshot with
              | Ok s -> s
              | Error e -> fail "snapshot load: %s" e)
        in
        if enforcing ctx then
          let r, s =
            M.timed (fun () ->
                Result.map
                  (fun (fr, e) -> (fr.Vids.Recovery.outcome, Some e))
                  (Enforce.Recover.recover_files ~config:(config ctx) ~policy
                     ~journal_path:ctx.journal ~trace_path:ctx.suffix_trace ~until
                     ~snapshot_path:ctx.snapshot ()))
          in
          (load_s, r, s)
        else
          let o, s =
            M.timed (fun () ->
                Vids.Recovery.recover ~config:(config ctx) ~trace:ctx.suffix ~until snap)
          in
          (load_s, Result.map (fun o -> (o, None)) o, load_s +. s))
  in
  let outcome, enforcer =
    match recovered with Ok x -> x | Error e -> fail "recovery: %s" e
  in
  let engine = outcome.Vids.Recovery.engine in
  let suffix_n = List.length ctx.suffix in
  let faults = (Vids.Engine.counters engine).Vids.Engine.faults in
  {
    r with
    load_s;
    recover_s;
    recover_speed;
    ops = r.ops + suffix_n;
    failed = r.failed + abs (suffix_n - outcome.Vids.Recovery.replayed) + faults;
    recovered_digest = (if warm then md5 (Vids.Snapshot.digest ~at:until engine) else "");
    recovered_enforce =
      (if warm then Option.map (fun e -> md5 (Enforce.Enforcer.digest e)) enforcer else None);
  }

let repeat ctx ~warm = recover_phase ctx (daemon_phase ctx ~warm) ~warm

(* ------------------------------------------------------------------ *)
(* The uninterrupted reference run                                     *)
(* ------------------------------------------------------------------ *)

(* Span names of the traced run, indexed by the [sp_] constants. *)
let span_names =
  [|
    "traced"; "replay"; "replay.advance"; "replay.process"; "daemon.profiled"; "ingest.pcap_read";
    "isolated.sip.parse"; "isolated.sdp.parse"; "isolated.sip_event.of_msg"; "isolated.rtp.decode";
    "isolated.classifier.classify";
  |]

let sp_traced = 0
let sp_replay = 1
let sp_advance = 2
let sp_process = 3
let sp_daemon = 4
let sp_pcap = 5
let sp_sip = 6
let sp_sdp = 7
let sp_sip_event = 8
let sp_rtp = 9
let sp_classify = 10

type reference = {
  digest : string;
  enforce_digest : string option;
  alerts : Vids.Alert.t list;
  passed : Bytes.t;  (** Per record: ['\001'] when delivered to the engine. *)
  latency_ns : int array;  (** Per record: the engine (or gate) call. *)
}

let packet alloc ~at ({ src; dst; payload; _ } : Vids.Trace.record) =
  Dsim.Packet.make alloc ~src ~dst ~sent_at:at payload

(* The whole capture through one engine with the daemon's ordering —
   [advance_to] the record's time, then the packet — with each call
   timed from the bench.  Its digest is what recovery must reproduce. *)
let reference_run ctx spans =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create ~config:(config ctx) sched in
  let enforcer =
    if enforcing ctx then Some (Enforce.Enforcer.create ~policy sched engine) else None
  in
  let alloc = Dsim.Packet.allocator () in
  let n = Array.length ctx.cap.Gen.records in
  let passed = Bytes.make n '\001' and latency_ns = Array.make n 0 in
  M.Spans.enter spans sp_replay;
  Array.iteri
    (fun i (r : Vids.Trace.record) ->
      let at = Dsim.Time.max r.Vids.Trace.at (Dsim.Scheduler.now sched) in
      M.Spans.enter spans sp_advance;
      Dsim.Scheduler.advance_to sched at;
      ignore (M.Spans.exit spans);
      let pkt = packet alloc ~at r in
      M.Spans.enter spans sp_process;
      (match enforcer with
      | Some e -> if not (Enforce.Enforcer.ingest e pkt) then Bytes.set passed i '\000'
      | None -> Vids.Engine.process_packet engine pkt);
      latency_ns.(i) <- M.Spans.exit spans)
    ctx.cap.Gen.records;
  Dsim.Scheduler.run_until sched (Dsim.Scheduler.now sched);
  ignore (M.Spans.exit spans);
  let at = Dsim.Scheduler.now sched in
  {
    digest = md5 (Vids.Snapshot.digest ~at engine);
    enforce_digest = Option.map (fun e -> md5 (Enforce.Enforcer.digest e)) enforcer;
    alerts = Vids.Engine.alerts engine;
    passed;
    latency_ns;
  }

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1)) in
  at 0

let benign_subject s =
  List.exists (fun sub -> contains ~sub s) [ "bg-"; "172."; "corp-a."; "corp-b." ]

let attack_src (r : Vids.Trace.record) =
  String.starts_with ~prefix:"203.0.113." r.Vids.Trace.src.Dsim.Addr.host

let is_attack (a : Vids.Alert.t) = Vids.Alert.is_attack a.Vids.Alert.kind

let kind_counts alerts =
  match List.sort_uniq compare (List.map (fun (a : Vids.Alert.t) -> a.Vids.Alert.kind) alerts) with
  | [] -> "none"
  | kinds ->
      String.concat ","
        (List.map
           (fun k ->
             Printf.sprintf "%s=%d" (Vids.Alert.kind_to_string k)
               (List.length (List.filter (fun (a : Vids.Alert.t) -> a.Vids.Alert.kind = k) alerts)))
           kinds)

let golden_lines ctx (rf : reference) =
  let alert_lines =
    List.sort String.compare
      (List.map
         (fun (a : Vids.Alert.t) -> Printf.sprintf "%s@%d" (Vids.Alert.dedup_key a) a.Vids.Alert.at)
         rf.alerts)
  in
  let attack_kinds =
    List.sort_uniq String.compare
      (List.map
         (fun (a : Vids.Alert.t) -> Vids.Alert.kind_to_string a.Vids.Alert.kind)
         (List.filter is_attack rf.alerts))
  in
  [
    ("records", string_of_int (Array.length ctx.cap.Gen.records));
    ("prefix", string_of_int ctx.prefix_n);
    ("engine_digest", rf.digest);
    ("alerts", kind_counts rf.alerts);
    ("alerts_md5", md5 (String.concat "\n" alert_lines));
  ]
  @ (match rf.enforce_digest with Some d -> [ ("enforce_digest", d) ] | None -> [])
  @ if enforcing ctx then [ ("attack_kinds", String.concat "," attack_kinds) ] else []

(* Each check: name, passed, one-line detail. *)
let checks ctx ~seed ~scale (rf : reference) (warm : repeat) =
  let workload = Gen.name ctx.w in
  let recovery =
    ( "recovery",
      String.equal warm.recovered_digest rf.digest && warm.recovered_enforce = rf.enforce_digest,
      Printf.sprintf "recovered digest %s, uninterrupted %s" warm.recovered_digest rf.digest )
  in
  let computed = golden_lines ctx rf in
  let outcome = Golden.check ~workload ~seed ~scale computed in
  let golden =
    match outcome with
    | Golden.Match -> ("golden", true, "matches " ^ Golden.path ~workload ~seed)
    | Golden.No_golden -> ("golden", true, "no golden for this seed and scale (not checked)")
    | Golden.Mismatch keys -> ("golden", false, "differs in: " ^ String.concat ", " keys)
  in
  let attack =
    if not (enforcing ctx) then []
    else
      let missed =
        List.filter
          (fun k -> not (List.exists (fun (a : Vids.Alert.t) -> a.Vids.Alert.kind = k) rf.alerts))
          ctx.cap.Gen.expected_attacks
      in
      let false_alerts =
        List.filter
          (fun (a : Vids.Alert.t) -> is_attack a && benign_subject a.Vids.Alert.subject)
          rf.alerts
      in
      let false_blocks = ref 0 in
      Array.iteri
        (fun i (r : Vids.Trace.record) ->
          let benign = Gen.is_background_host r.Vids.Trace.src.Dsim.Addr.host in
          if benign && Bytes.get rf.passed i = '\000' then incr false_blocks)
        ctx.cap.Gen.records;
      [
        ( "attacks_detected",
          missed = [],
          if missed = [] then
            Printf.sprintf "all %d injected attack kinds" (List.length ctx.cap.Gen.expected_attacks)
          else "missed: " ^ String.concat ", " (List.map Vids.Alert.kind_to_string missed) );
        ( "no_false_alerts",
          false_alerts = [],
          Printf.sprintf "%d attack alert(s) on benign subjects" (List.length false_alerts) );
        ( "no_false_blocks",
          !false_blocks = 0,
          Printf.sprintf "%d benign record(s) dropped" !false_blocks );
      ]
  in
  (recovery :: golden :: attack, computed, outcome = Golden.Match)

(* Attack packets the gate dropped after their scenario's first attack
   alert, over all attack packets after it. *)
let attack_drop_ratio ctx (rf : reference) =
  let dropped = ref 0 and total = ref 0 in
  List.iter
    (fun (start, stop) ->
      let first =
        List.fold_left
          (fun acc (a : Vids.Alert.t) ->
            let at = a.Vids.Alert.at in
            if is_attack a && at >= start && at < stop then min acc at else acc)
          max_int rf.alerts
      in
      Array.iteri
        (fun i (r : Vids.Trace.record) ->
          let at = r.Vids.Trace.at in
          if at >= first && at < stop && attack_src r then begin
            incr total;
            if Bytes.get rf.passed i = '\000' then incr dropped
          end)
        ctx.cap.Gen.records)
    ctx.cap.Gen.scenario_windows;
  per !dropped !total

(* ------------------------------------------------------------------ *)
(* The traced run's isolated layer timings                             *)
(* ------------------------------------------------------------------ *)

(* Mean ns and allocated bytes per call of [f] over [items]: one pass per
   sample, median of three. *)
let per_call spans sp items f =
  let n = Array.length items in
  if n = 0 then (0., 0.)
  else begin
    let ns = ref [] and bytes = ref [] in
    for _ = 1 to 3 do
      let w0 = M.allocated_words () in
      M.Spans.enter spans sp;
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
      let dt = M.Spans.exit spans in
      let w1 = M.allocated_words () in
      ns := per dt n :: !ns;
      bytes := (8. *. (w1 -. w0) /. float_of_int n) :: !bytes
    done;
    (M.median !ns, M.median !bytes)
  end

let isolated ctx spans =
  let alloc = Dsim.Packet.allocator () in
  let packets =
    Array.map (fun (r : Vids.Trace.record) -> packet alloc ~at:r.at r) ctx.cap.Gen.records
  in
  let is_sip (p : Dsim.Packet.t) = p.dst.Dsim.Addr.port = 5060 || p.src.Dsim.Addr.port = 5060 in
  let is_rtp (p : Dsim.Packet.t) =
    let port = p.dst.Dsim.Addr.port and lo, hi = Vids.Classifier.rtp_port_range in
    (not (is_sip p)) && port >= lo && port <= hi && port land 1 = 0
  in
  let select f = Array.of_list (List.filter f (Array.to_list packets)) in
  let sip = select is_sip and rtp = select is_rtp in
  let parsed =
    Array.of_list
      (List.filter_map
         (fun (p : Dsim.Packet.t) ->
           match Sip.Msg.parse p.payload with Ok m -> Some (p, m) | Error _ -> None)
         (Array.to_list sip))
  in
  let bodies =
    Array.of_list
      (List.filter_map
         (fun (_, (m : Sip.Msg.t)) -> if m.Sip.Msg.body = "" then None else Some m.Sip.Msg.body)
         (Array.to_list parsed))
  in
  let classify = Vids.Classifier.classify ~known_media:(fun _ -> false) in
  let unanalysed =
    Array.fold_left
      (fun acc p ->
        match (classify p : Vids.Classifier.classification) with
        | Malformed_sip _ | Malformed_rtp _ | Other -> acc + 1
        | Sip _ | Rtp _ | Rtcp _ -> acc)
      0 packets
  in
  let sip_ns, sip_b =
    per_call spans sp_sip sip (fun (p : Dsim.Packet.t) -> Sip.Msg.parse p.payload)
  in
  let sdp_ns, sdp_b = per_call spans sp_sdp bodies Sdp.parse in
  let ev_ns, ev_b =
    per_call spans sp_sip_event parsed (fun ((p : Dsim.Packet.t), m) ->
        Vids.Sip_event.of_msg ~at:p.sent_at ~src:p.src ~dst:p.dst m)
  in
  let rtp_ns, rtp_b =
    per_call spans sp_rtp rtp (fun (p : Dsim.Packet.t) -> Rtp.Rtp_packet.decode p.payload)
  in
  let cl_ns, cl_b = per_call spans sp_classify packets classify in
  [
    ("sip.parse_ns", sip_ns);
    ("sip.parse_bytes", sip_b);
    ("sdp.parse_ns", sdp_ns);
    ("sdp.parse_bytes", sdp_b);
    ("sip_event.of_msg_ns", ev_ns);
    ("sip_event.of_msg_bytes", ev_b);
    ("rtp.decode_ns", rtp_ns);
    ("rtp.decode_bytes", rtp_b);
    ("classifier.classify_ns", cl_ns);
    ("classifier.classify_bytes", cl_b);
    ("classifier.unanalysed_share", per unanalysed (Array.length packets));
  ]

(* The daemon once more over the prefix with the existing [Obs.Prof]
   spans attached, read as they are. *)
let profiled ctx spans ~timed_wall =
  reset_files ctx;
  Gc.full_major ();
  let prof = Obs.Prof.create () in
  let report, wall =
    M.Spans.span spans sp_daemon (fun () ->
        M.timed (fun () -> run_daemon ~prof ctx ctx.prefix_pcap))
  in
  let rows = Obs.Prof.report_of_snapshot (Obs.Metrics.snapshot (Obs.Prof.registry prof)) in
  let records = report.Ingest.Daemon.dispatched in
  let field f s =
    match List.find_opt (fun r -> r.Obs.Prof.r_stage = Obs.Prof.stage_name s) rows with
    | Some r -> f r
    | None -> 0.
  in
  let self = field (fun r -> r.Obs.Prof.r_seconds) in
  let total = Obs.Prof.total_seconds rows in
  List.concat_map
    (fun s ->
      let n = Obs.Prof.stage_name s in
      [
        ("prof." ^ n ^ ".self_s", self s);
        ( "prof." ^ n ^ ".bytes_per_record",
          field (fun r -> 8. *. r.Obs.Prof.r_words) s /. float_of_int (max 1 records) );
      ])
    stages
  @ [
      ("prof.unattributed_share", if total > 0. then self Obs.Prof.Drive /. total else 0.);
      ("prof.overhead", (wall /. timed_wall) -. 1.);
      ("journal.bytes_per_record", per (file_size ctx.journal) records);
      ("journal.fsyncs", field (fun r -> float_of_int r.Obs.Prof.r_spans) Obs.Prof.Journal_fsync);
    ]

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : Gen.workload option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  smoke : bool;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Temporary files stay inside the checkout, under _build/. *)
let make_tmp_dir tag =
  let d = Filename.concat "_build/suite-tmp" (Printf.sprintf "%d-%s" (Unix.getpid ()) tag) in
  mkdir_p d;
  at_exit (fun () ->
      try
        Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
        Sys.rmdir d
      with Sys_error _ -> ());
  d

let noisy m s = M.relative_iqr s > m.bound

let e2e_row m (s : M.summary) =
  Printf.sprintf "  %-24s %-10s %14.6g %14.6g %14.6g %5d %5.0f%%%s" m.name m.unit_ s.M.median
    s.M.q1 s.M.q3 s.M.n (100. *. m.bound)
    (if noisy m s then "  noisy" else "")

let value_json m v = J.obj [ ("value", J.float v); ("unit", J.quote m.unit_) ]

let summary_json m (s : M.summary) =
  J.obj
    [
      ("value", J.float s.M.median);
      ("unit", J.quote m.unit_);
      ("median", J.float s.M.median);
      ("q1", J.float s.M.q1);
      ("q3", J.float s.M.q3);
      ("n", J.int s.M.n);
      ("bound", J.float m.bound);
      ("noisy", J.bool (noisy m s));
    ]

let finite v = if Float.is_finite v then v else 0.

let run_one opts w =
  let scale, scale_name = if opts.smoke then (0.02, "smoke") else (1.0, "full") in
  let dir = make_tmp_dir (Gen.name w) in
  let file f = Filename.concat dir f in
  Printf.printf "== %s (seed %d, %s scale) ==\n%!" (Gen.name w) opts.seed scale_name;
  let cap, gen_s = M.timed (fun () -> Gen.generate w ~seed:opts.seed ~scale) in
  let records = cap.Gen.records in
  let n = Array.length records in
  let prefix = Array.to_list (Array.sub records 0 cap.Gen.split) in
  let suffix = Array.to_list (Array.sub records cap.Gen.split (n - cap.Gen.split)) in
  let ctx =
    {
      w;
      cap;
      prefix_n = cap.Gen.split;
      suffix;
      prefix_pcap = file "prefix.pcap";
      empty_pcap = file "empty.pcap";
      suffix_trace = file "suffix.trace";
      snapshot = file "bench.ckpt";
      daemon_snapshot = file "daemon.ckpt";
      journal = file "daemon.journal";
    }
  in
  Ingest.Pcap.write_file ctx.prefix_pcap prefix;
  Ingest.Pcap.write_file ctx.empty_pcap [];
  Out_channel.with_open_bin ctx.suffix_trace (fun oc -> Vids.Trace.save oc suffix);
  let sip =
    Array.fold_left
      (fun acc ({ src; dst; _ } : Vids.Trace.record) ->
        if src.Dsim.Addr.port = 5060 || dst.Dsim.Addr.port = 5060 then acc + 1 else acc)
      0 records
  in
  Printf.printf
    "generated %d records (%d daemon prefix + %d recovery suffix, %.1f%% SIP) in %.2f s (not a \
     metric)\n\
     %!"
    n ctx.prefix_n (List.length suffix) (100. *. per sip n) gen_s;
  (* Set-up: the daemon started and cleanly stopped on an empty capture,
     at least 51 times and for a quarter of a second of cycles, while the
     heap is still small.  The cycles run in blocks of at least 10 cycles
     and 25 ms, each corrected by the host speed around it.  Cycles run
     later, between large repeats, flip between two GC phases that differ
     by 2x. *)
  let setup =
    let cycle () =
      reset_files ctx;
      snd (M.timed (fun () -> ignore (run_daemon ctx ctx.empty_pcap)))
    in
    let rec block acc k spent =
      if k >= 10 && (opts.smoke || spent >= 0.025) then (acc, spent)
      else
        let t = cycle () in
        block (t :: acc) (k + 1) (spent +. t)
    in
    let rec go acc k spent =
      if k >= 51 && spent >= 0.25 then acc
      else
        let (cycles, s), speed = M.Host.around (fun () -> block [] 0 0.) in
        let acc = List.rev_append (List.map (fun t -> t *. speed) cycles) acc in
        if opts.smoke then acc else go acc (k + List.length cycles) (spent +. s)
    in
    go [] 0 0.
  in
  (* A discarded warm-up, which also takes the one-off measurements: live
     bytes per call and the recovered digest. *)
  let warm = repeat ctx ~warm:true in
  let min_repeats = if opts.smoke then 1 else if w = Gen.Open_calls then 5 else 7 in
  let t0 = M.now_ns () in
  let rec loop acc k =
    if k >= min_repeats && M.seconds_since t0 >= opts.seconds then List.rev acc
    else loop (repeat ctx ~warm:false :: acc) (k + 1)
  in
  let reps = loop [] 0 in
  let measure_s = M.seconds_since t0 in
  let top_heap_mb = float_of_int (8 * (Gc.quick_stat ()).Gc.top_heap_words) /. 1e6 in
  let sum f = M.summarize (List.map f reps) in
  let med f = (sum f).M.median in
  let checkpoints =
    List.concat_map (fun r -> List.map (fun (c, s) -> (c, s, r.checkpoint_speed)) r.checkpoints) reps
  in
  let sum_ckpt f = M.summarize (List.map f checkpoints) in
  let e2e =
    List.combine end_to_end
      [
        M.summarize setup;
        sum (fun r -> float_of_int r.dispatched /. (r.wall_s *. r.daemon_speed));
        sum (fun r -> r.alloc_bytes);
        M.summarize [ warm.live_bytes ];
        sum_ckpt (fun (c, s, speed) -> (c +. s) *. speed);
        sum (fun r -> r.recover_s *. r.recover_speed);
      ]
  in
  let host_speed =
    M.summarize
      (List.concat_map (fun r -> [ r.daemon_speed; r.checkpoint_speed; r.recover_speed ]) reps)
  in
  (* The traced run: the uninterrupted reference replay with per-record
     spans, then the pcap reader, the profiled daemon and isolated layers. *)
  let capacity = if opts.trace then (2 * n) + 64 else 0 in
  let spans = M.Spans.create ~names:span_names ~capacity in
  M.Spans.enter spans sp_traced;
  let rf = reference_run ctx spans in
  let layer =
    if not opts.trace then []
    else begin
      let _, pcap_read_s =
        M.Spans.span spans sp_pcap (fun () ->
            M.timed (fun () -> Ingest.Pcap.read_file ctx.prefix_pcap))
      in
      let prof = profiled ctx spans ~timed_wall:(med (fun r -> r.wall_s)) in
      let iso = isolated ctx spans in
      let lat = Array.map float_of_int rf.latency_ns in
      Array.sort Float.compare lat;
      prof @ iso
      @ [
          ("sched.advance_s", M.Spans.self_s spans sp_advance);
          ("engine.process_s", M.Spans.self_s spans sp_process);
          ("engine.record_us_p50", M.percentile lat 50. /. 1e3);
          ("engine.record_us_p99", M.percentile lat 99. /. 1e3);
          ("engine.record_us_p999", M.percentile lat 99.9 /. 1e3);
          ("gc.minor_per_krecord", med (fun r -> 1000. *. per r.minor_gcs r.dispatched));
          ("gc.major_collections", med (fun r -> float_of_int r.major_gcs));
          ("gc.promoted_bytes_per_record", med (fun r -> r.promoted_bytes));
          ("gc.top_heap_mb", top_heap_mb);
          ("fact_base.peak_calls", float_of_int warm.mem.peak_calls);
          ("fact_base.detectors", float_of_int warm.mem.detectors);
          ( "fact_base.self_estimate_bytes_per_call",
            per warm.mem.measured_bytes warm.mem.active_calls );
          ("snapshot.capture_s", (sum_ckpt (fun (c, _, _) -> c)).M.median);
          ("snapshot.save_s", (sum_ckpt (fun (_, s, _) -> s)).M.median);
          ("snapshot.load_s", med (fun r -> r.load_s));
          ("snapshot.bytes_per_call", per warm.snapshot_bytes warm.mem.active_calls);
          ("recovery.replay_s", med (fun r -> r.recover_s -. r.load_s));
          ("enforce.attack_drop_ratio", attack_drop_ratio ctx rf);
          ("ingest.pcap_read_s", pcap_read_s);
          ("ingest.dispatch_us_p50", med (fun r -> r.dispatch_p50));
          ("ingest.dispatch_us_p99", med (fun r -> r.dispatch_p99));
        ]
    end
  in
  ignore (M.Spans.exit spans);
  let layer =
    List.map
      (fun m -> (m, finite (Option.value ~default:0. (List.assoc_opt m.name layer))))
      per_layer
  in
  let checks, computed, golden_ok = checks ctx ~seed:opts.seed ~scale:scale_name rf warm in
  let correct = List.for_all (fun (_, ok, _) -> ok) checks in
  let attempted = List.fold_left (fun a r -> a + r.ops) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 reps in
  (* Human-readable report. *)
  Printf.printf "end-to-end, tracing off (%d timed repeats in %.1f s after warm-up)\n"
    (List.length reps) measure_s;
  Printf.printf "  %-24s %-10s %14s %14s %14s %5s %6s\n" "metric" "unit" "median" "q1" "q3" "n"
    "bound";
  List.iter (fun (m, s) -> print_endline (e2e_row m s)) e2e;
  Printf.printf "  host speed %.3f (q1 %.3f, q3 %.3f, lowest %.3f)  ops %d  failed %d\n"
    host_speed.M.median host_speed.M.q1 host_speed.M.q3 host_speed.M.lo attempted failed;
  if opts.trace then begin
    print_endline "per-layer, traced run";
    List.iter (fun (m, v) -> Printf.printf "  %-40s %-14s %16.6g\n" m.name m.unit_ v) layer
  end;
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "check %-18s %s  %s\n" name (if ok then "ok  " else "FAIL") detail)
    checks;
  if not golden_ok then begin
    Printf.printf "computed golden lines for %s:\n"
      (Golden.path ~workload:(Gen.name w) ~seed:opts.seed);
    List.iter (Printf.printf "  %s\n") (Golden.render ~scale:scale_name computed)
  end;
  (* Machine-readable results. *)
  Option.iter
    (fun out ->
      Out_channel.with_open_bin out (fun oc ->
          output_string oc
            (J.obj
               [
                 ("workload", J.quote (Gen.name w));
                 ("seed", J.int opts.seed);
                 ("scale", J.quote scale_name);
                 ("seconds", J.float opts.seconds);
                 ("records", J.int n);
                 ("prefix_records", J.int ctx.prefix_n);
                 ("generation_s", J.float gen_s);
                 ("repeats", J.int (List.length reps));
                 ( "host_speed",
                   J.obj
                     [
                       ("median", J.float host_speed.M.median);
                       ("q1", J.float host_speed.M.q1);
                       ("q3", J.float host_speed.M.q3);
                       ("lowest", J.float host_speed.M.lo);
                     ] );
                 ("ops", J.int attempted);
                 ("failed", J.int failed);
                 ("correct", J.bool correct);
                 ( "checks",
                   J.obj
                     (List.map
                        (fun (name, ok, d) ->
                          (name, J.obj [ ("ok", J.bool ok); ("detail", J.quote d) ]))
                        checks) );
                 ("end_to_end", J.obj (List.map (fun (m, s) -> (m.name, summary_json m s)) e2e));
                 ("per_layer", J.obj (List.map (fun (m, v) -> (m.name, value_json m v)) layer));
               ]);
          output_char oc '\n');
      if opts.trace then begin
        let spans_path = Filename.remove_extension out ^ ".spans.jsonl" in
        Out_channel.with_open_bin spans_path (M.Spans.dump spans);
        Printf.printf "wrote %s and %s (%d spans, %d not kept)\n" out spans_path
          (M.Spans.kept spans) (M.Spans.dropped spans)
      end)
    opts.out;
  let metrics =
    if opts.trace then List.map (fun (m, v) -> (m.name, value_json m v)) layer
    else List.map (fun (m, s) -> (m.name, value_json m (finite s.M.median))) e2e
  in
  print_endline
    (J.obj
       [
         ("correct", J.bool correct);
         ("attempted", J.int (max 1 attempted));
         ("failed", J.int failed);
         ("metrics", J.obj metrics);
       ]);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Every workload, one child process each                              *)
(* ------------------------------------------------------------------ *)

let run_all opts =
  let stem =
    match opts.out with
    | Some o -> Filename.remove_extension o
    | None -> Filename.concat (make_tmp_dir "all") "suite"
  in
  let results =
    List.map
      (fun w ->
        let out = Printf.sprintf "%s.%s.json" stem (Gen.name w) in
        let args =
          [
            Sys.executable_name; "--workload"; Gen.name w; "--seed"; string_of_int opts.seed;
            "--seconds"; Printf.sprintf "%g" opts.seconds; "--trace"; "1"; "--out"; out;
          ]
          @ if opts.smoke then [ "--smoke" ] else []
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        (try
           while true do
             print_endline (input_line ic)
           done
         with End_of_file -> ());
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        let json =
          if not (Sys.file_exists out) then None
          else begin
            let s = In_channel.with_open_bin out In_channel.input_all in
            Sys.remove out;
            Some (String.trim s)
          end
        in
        (w, ok, json))
      Gen.all
  in
  Option.iter
    (fun out ->
      Out_channel.with_open_bin out (fun oc ->
          output_string oc
            (J.obj
               [
                 ("seed", J.int opts.seed);
                 ("scale", J.quote (if opts.smoke then "smoke" else "full"));
                 ("seconds", J.float opts.seconds);
                 ("ocaml", J.quote Sys.ocaml_version);
                 ( "workloads",
                   J.obj
                     (List.filter_map
                        (fun (w, _, j) -> Option.map (fun j -> (Gen.name w, j)) j)
                        results) );
               ]);
          output_char oc '\n');
      Printf.printf "wrote %s\n" out)
    opts.out;
  let failed = List.filter (fun (_, ok, _) -> not ok) results in
  List.iter (fun (w, _, _) -> Printf.printf "suite: %s FAILED\n" (Gen.name w)) failed;
  if failed <> [] then exit 1;
  Printf.printf "suite: all %d workloads passed\n" (List.length results)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref None and smoke = ref false in
  let specs =
    [
      ( "--workload",
        Arg.String
          (fun s ->
            match Gen.of_name s with
            | Some w -> workload := Some w
            | None -> raise (Arg.Bad ("unknown workload " ^ s))),
        "W  churn | media | attack_mix | open_calls (default: all, one process each)" );
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  time spent on timed repeats (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  add the traced per-layer run (default 0)");
      ( "--out",
        Arg.String (fun s -> out := Some s),
        "FILE  write results as JSON, spans beside it" );
      ("--smoke", Arg.Set smoke, " every workload at 1/50 scale, one repeat");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "suite.exe [options]";
  let opts =
    {
      workload = !workload;
      seed = !seed;
      seconds = (if !smoke then 0. else !seconds);
      trace = !trace <> 0;
      out = !out;
      smoke = !smoke;
    }
  in
  match opts.workload with Some w -> run_one opts w | None -> run_all opts
