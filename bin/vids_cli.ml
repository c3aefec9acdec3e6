(* vids-cli: drive the simulated enterprise testbed and the intrusion
   detection system from the command line.

   Subcommands:
     simulate   run the Figure-7 workload and print performance metrics
     detect     run attack scenarios and print the alert log
     run        live-ingestion daemon over pcap files and/or a UDP socket
     profile    per-stage wall-time/allocation breakdown on a canned workload
     recover    rebuild a crashed engine from checkpoint + journal + trace
     rules      print the enforcement rules stored in a checkpoint
     parse      parse a SIP message from a file and dump its structure
     export-fsm print the Graphviz rendering of a protocol/attack machine *)

let sec = Dsim.Time.of_sec

module T = Voip.Testbed

(* ------------------------------------------------------------------ *)
(* Exit codes                                                          *)
(* ------------------------------------------------------------------ *)

(* 0 = clean, 1 = operational error, 124 = cmdliner usage error; 3 is
   reserved for "the run completed and attack alerts were raised", so
   scripts can distinguish detection from failure. *)
let exit_attacks_detected = 3

let exit_for_alerts alerts =
  if List.exists (fun (a : Vids.Alert.t) -> Vids.Alert.is_attack a.Vids.Alert.kind) alerts then
    exit_attacks_detected
  else 0

(* ------------------------------------------------------------------ *)
(* Prevention mode: --enforce / --block-ttl / --fail-closed            *)
(* ------------------------------------------------------------------ *)

let enforcement_json e =
  let module J = Obs.Json in
  let s = Enforce.Enforcer.stats e in
  let tbl = s.Enforce.Enforcer.table in
  J.obj
    [
      ("passed", J.int s.Enforce.Enforcer.passed);
      ("blocked", J.int s.Enforce.Enforcer.blocked);
      ("teardowns", J.int s.Enforce.Enforcer.teardowns);
      ("rules_active", J.int tbl.Enforce.Block_table.active);
      ("rules_installed", J.int tbl.Enforce.Block_table.installed);
      ("rules_refreshed", J.int tbl.Enforce.Block_table.refreshed);
      ("rules_expired", J.int tbl.Enforce.Block_table.expired);
      ("rules_overflowed", J.int tbl.Enforce.Block_table.overflowed);
      ("dropped", J.int tbl.Enforce.Block_table.dropped);
      ("rate_limited", J.int tbl.Enforce.Block_table.limited);
      ("lockdown", J.bool (Enforce.Block_table.lockdown (Enforce.Enforcer.table e)));
      ("digest", J.quote (Enforce.Enforcer.digest e));
      ("rules", Enforce.Enforcer.rules_json e);
    ]

let print_enforcement e =
  let s = Enforce.Enforcer.stats e in
  let tbl = s.Enforce.Enforcer.table in
  Format.printf
    "enforcement: %d blocked (%d rate-limited), %d passed, %d teardown(s); %d rule(s) active \
     (%d installed, %d expired)%s@."
    s.Enforce.Enforcer.blocked tbl.Enforce.Block_table.limited s.Enforce.Enforcer.passed
    s.Enforce.Enforcer.teardowns tbl.Enforce.Block_table.active
    tbl.Enforce.Block_table.installed tbl.Enforce.Block_table.expired
    (if Enforce.Block_table.lockdown (Enforce.Enforcer.table e) then " [LOCKDOWN]" else "")

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing: --metrics-out / --trace-out / --trace-ring      *)
(* ------------------------------------------------------------------ *)

type obs_opts = {
  metrics_out : string option;
  trace_out : string option;
  trace_ring : int;
}

let telemetry_wanted o = o.metrics_out <> None || o.trace_out <> None

(* Build the registry + flight recorder pair and wire quarantine dumps to
   the trace file as they happen; the caller attaches them to an engine. *)
let make_obs o =
  if not (telemetry_wanted o) then None
  else begin
    let metrics = Obs.Metrics.create () in
    let flight = Obs.Trace.create ~capacity:o.trace_ring () in
    (match o.trace_out with
    | Some path ->
        Obs.Trace.on_dump flight (fun ~reason entries ->
            Obs.Export.append_trace ~reason ~path entries)
    | None -> ());
    Some (metrics, flight)
  end

let start_obs o engine =
  match make_obs o with
  | None -> None
  | Some (metrics, flight) ->
      Vids.Engine.set_telemetry engine ~metrics ~flight ();
      Some (metrics, flight)

(* Export destinations are announced on stderr so that --json keeps
   stdout machine-parseable. *)
let finish_obs o t =
  match t with
  | None -> ()
  | Some (metrics, flight) ->
      (match o.metrics_out with
      | Some path ->
          Obs.Export.write_metrics ~path (Obs.Metrics.snapshot metrics);
          Format.eprintf "metrics: %s@." path
      | None -> ());
      (match o.trace_out with
      | Some path ->
          Obs.Export.append_trace ~reason:"end of run" ~path (Obs.Trace.entries flight);
          Format.eprintf "trace: %s@." path
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Hot-path profiling: --profile and the [profile] subcommand          *)
(* ------------------------------------------------------------------ *)

(* The profiler shares the telemetry registry when one exists, so with
   --metrics-out the per-stage rows and GC gauges ride the same export;
   without telemetry it gets a private registry read only at report
   time. *)
let start_prof enabled obs_state =
  if not enabled then None
  else
    Some
      (Obs.Prof.create
         ?registry:(Option.map fst obs_state)
         ?flight:(Option.map snd obs_state) ())

(* Renders the breakdown: [Some json] under --json (the caller embeds it
   in its report object, keeping stdout one parseable value), a table on
   stdout otherwise. *)
let finish_prof ?records ?total_s ~json prof =
  match prof with
  | None -> None
  | Some p -> (
      Obs.Prof.sample_gc p;
      match Obs.Prof.report_of_snapshot (Obs.Metrics.snapshot (Obs.Prof.registry p)) with
      | [] -> None
      | report when json -> Some (Obs.Prof.report_json ?records ?total_s report)
      | report ->
          Format.printf "%a" (Obs.Prof.pp_table ?records ?total_s) report;
          None)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let mode_of_string = function
  | "inline" -> Ok T.Inline
  | "monitor" -> Ok T.Monitor
  | "off" -> Ok T.Off
  | s -> Error (Printf.sprintf "unknown vids mode %S (inline|monitor|off)" s)

(* Resource-governance knobs shared by [simulate] and [detect]: start from
   the preset when [--governed], then apply any explicit overrides. *)
type governance = {
  governed : bool;
  max_calls : int option;
  max_detectors : int option;
  call_max_age : float option;
  sweep_interval : float option;
  degrade_high_water : int option;
  degrade_low_water : int option;
}

let apply_governance g config =
  let config = if g.governed then Vids.Config.governed config else config in
  let opt v f config = match v with None -> config | Some v -> f config v in
  config
  |> opt g.max_calls (fun c v -> { c with Vids.Config.max_calls = v })
  |> opt g.max_detectors (fun c v -> { c with Vids.Config.max_detectors = v })
  |> opt g.call_max_age (fun c v -> { c with Vids.Config.call_max_age = sec v })
  |> opt g.sweep_interval (fun c v -> { c with Vids.Config.sweep_interval = sec v })
  |> opt g.degrade_high_water (fun c v -> { c with Vids.Config.degrade_high_water = v })
  |> opt g.degrade_low_water (fun c v -> { c with Vids.Config.degrade_low_water = v })

(* --checkpoint-interval / --checkpoint-file, shared by [simulate],
   [detect], [analyze] and [run]: every interval of virtual time the
   daemon's checkpoint step ([Vids.Checkpoint]) snapshots the engine to
   FILE, rotating the previous one to FILE.1, and marks the write-ahead
   journal at FILE.journal, which also receives every alert, eviction and
   enforcement decision as it happens.  An interval of 0 writes nothing.
   [vids-cli recover] consumes all three files. *)
type checkpointing = { interval : float; file : string }

let snapshot_path ck = if ck.interval > 0.0 then Some ck.file else None
let journal_path ck = Option.map (fun file -> file ^ ".journal") (snapshot_path ck)

(* The offline commands' grid: [interval], [2 interval], ... strictly
   before [horizon]. *)
let checkpoint_step ck sched engine ~horizon =
  let step =
    Vids.Checkpoint.create ?snapshot_path:(snapshot_path ck) ?journal_path:(journal_path ck)
      sched engine
  in
  Vids.Checkpoint.arm step ~every:(sec ck.interval) ~until:horizon ();
  step

(* stderr, like the telemetry export announcements, so --json keeps
   stdout machine-parseable. *)
let announce_checkpoints ck =
  Option.iter
    (fun file -> Format.eprintf "checkpoints: %s (journal %s.journal)@." file file)
    (snapshot_path ck)

(* --spec FILE: load [.vspec] machine overrides under [config].  Front-end
   diagnostics are rendered (with caret snippets) to stderr; [Error]
   means "already reported, exit 1". *)
let load_spec_overrides config paths =
  if paths = [] then Ok []
  else
    match Vids.Spec_load.load_files config paths with
    | Ok overrides ->
        List.iter
          (fun (name, _) -> Format.eprintf "spec override: machine %s@." name)
          overrides;
        Ok overrides
    | Error msg ->
        prerr_endline msg;
        Error ()

let governance_summary engine =
  let stats = Vids.Engine.memory_stats engine in
  let c = Vids.Engine.counters engine in
  if
    stats.Vids.Fact_base.calls_evicted + stats.Vids.Fact_base.detectors_evicted
    + stats.Vids.Fact_base.calls_swept + c.Vids.Engine.faults + c.Vids.Engine.rtp_shed
    > 0
  then
    Format.printf
      "governance: %d calls evicted, %d detectors evicted, %d swept, %d faults contained, %d RTP shed@."
      stats.Vids.Fact_base.calls_evicted stats.Vids.Fact_base.detectors_evicted
      stats.Vids.Fact_base.calls_swept c.Vids.Engine.faults c.Vids.Engine.rtp_shed

let simulate seed n_ua mode_str minutes mean_gap mean_talk governance checkpointing obs specs =
  match mode_of_string mode_str with
  | Error e ->
      prerr_endline e;
      1
  | Ok mode -> (
      let config = apply_governance governance Vids.Config.default in
      match load_spec_overrides config specs with
      | Error () -> 1
      | Ok overrides ->
      let tb = T.make ~seed ~n_ua ~vids:mode ~config ~overrides () in
      let horizon = sec (60.0 *. minutes) in
      let obs_state =
        match tb.T.engine with Some engine -> start_obs obs engine | None -> None
      in
      let ck =
        Option.map
          (fun engine -> checkpoint_step checkpointing tb.T.sched engine ~horizon)
          tb.T.engine
      in
      let profile =
        {
          Voip.Call_generator.mean_interarrival = sec mean_gap;
          mean_duration = sec mean_talk;
          min_duration = sec 5.0;
        }
      in
      T.run_workload tb ~profile ~duration:horizon ();
      Option.iter
        (fun ck ->
          Vids.Checkpoint.close ck;
          announce_checkpoints checkpointing)
        ck;
      let m = tb.T.metrics in
      Format.printf "workload: %d calls attempted, %d established, %d completed, %d failed@."
        (Voip.Metrics.attempted m) (Voip.Metrics.established m) (Voip.Metrics.completed m)
        (Voip.Metrics.failed m);
      Format.printf "call setup delay: %a@." Dsim.Stat.Summary.pp (Voip.Metrics.setup_all m);
      let rtp = Dsim.Stat.Series.summary (Voip.Metrics.rtp_delay m) in
      Format.printf "rtp one-way delay: mean %.2f ms (n=%d)@."
        (1000.0 *. Dsim.Stat.Summary.mean rtp)
        (Dsim.Stat.Summary.count rtp);
      Format.printf "rtp jitter: mean %.3g s@."
        (Dsim.Stat.Summary.mean (Voip.Metrics.jitter_summary m));
      (match tb.T.engine with
      | None -> ()
      | Some engine ->
          let c = Vids.Engine.counters engine in
          let stats = Vids.Engine.memory_stats engine in
          Format.printf
            "vIDS: %d sip, %d rtp, %d alerts, %d anomalies; peak %d calls (%d B modeled)@."
            c.Vids.Engine.sip_packets c.Vids.Engine.rtp_packets c.Vids.Engine.alerts_raised
            c.Vids.Engine.anomalies stats.Vids.Fact_base.peak_calls
            (stats.Vids.Fact_base.peak_calls
            * (Vids.Config.default.Vids.Config.sip_state_bytes
              + Vids.Config.default.Vids.Config.rtp_state_bytes));
          governance_summary engine;
          List.iter (fun a -> Format.printf "  %a@." Vids.Alert.pp a) (Vids.Engine.alerts engine));
      finish_obs obs obs_state;
      0)

(* ------------------------------------------------------------------ *)
(* detect                                                              *)
(* ------------------------------------------------------------------ *)

let detect seed attacks governance checkpointing obs enforce_policy profile json specs =
  let attacks = if attacks = [] then Attack.Scenarios.names else attacks in
  let config = apply_governance governance Vids.Config.default in
  match load_spec_overrides config specs with
  | Error () -> 1
  | Ok overrides ->
  let tb = T.make ~seed ~vids:T.Monitor ~config ~overrides () in
  let horizon = sec (40.0 +. (25.0 *. float_of_int (List.length attacks))) in
  let engine = T.engine_exn tb in
  let obs_state = start_obs obs engine in
  let prof = start_prof profile obs_state in
  Vids.Engine.set_profiler engine prof;
  let ck = checkpoint_step checkpointing tb.T.sched engine ~horizon in
  (* Prevention mode: re-point the sensor tap at the enforcement gate so
     blocked packets never reach the engine; its decisions are journaled
     and its rules checkpointed, exactly as the daemon's. *)
  let enforcer =
    Option.map
      (fun policy ->
        let e =
          Enforce.Enforcer.create ~policy ~journal:(Vids.Checkpoint.journal ck) tb.T.sched engine
        in
        Vids.Checkpoint.set_ext ck (fun () -> Enforce.Enforcer.ext e);
        Dsim.Network.set_tap tb.T.vids_node
          (Some
             (fun pkt ->
               match prof with
               | None -> ignore (Enforce.Enforcer.ingest e pkt)
               | Some p ->
                   Obs.Prof.enter p Obs.Prof.Enforce_gate;
                   ignore (Enforce.Enforcer.ingest e pkt);
                   Obs.Prof.exit p Obs.Prof.Enforce_gate));
        e)
      enforce_policy
  in
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  let unknown = ref [] in
  Attack.Scenarios.schedule atk ~on_unknown:(fun name -> unknown := name :: !unknown) attacks;
  match !unknown with
  | _ :: _ ->
      Format.eprintf "unknown attacks: %s (choose from %s)@."
        (String.concat ", " !unknown) (String.concat ", " Attack.Scenarios.names);
      1
  | [] -> (
      (* Wrapping the whole simulation in a Drive span makes the profile
         shares add up against end-to-end time: everything not inside an
         engine/gate span is Drive self time. *)
      let t0 = Unix.gettimeofday () in
      Option.iter (fun p -> Obs.Prof.enter p Obs.Prof.Drive) prof;
      T.run_until tb horizon;
      Option.iter (fun p -> Obs.Prof.exit p Obs.Prof.Drive) prof;
      let total_s = Unix.gettimeofday () -. t0 in
      Vids.Checkpoint.close ck;
      announce_checkpoints checkpointing;
      let c = Vids.Engine.counters engine in
      let records =
        c.Vids.Engine.sip_packets + c.Vids.Engine.rtp_packets + c.Vids.Engine.rtcp_packets
        + c.Vids.Engine.other_packets + c.Vids.Engine.malformed_packets
      in
      if json then
        let prof_json = finish_prof ~records ~total_s ~json:true prof in
        print_endline
          (match (enforcer, prof_json) with
          | None, None -> Vids.Report.json engine
          | _ ->
              Obs.Json.obj
                ([ ("report", Vids.Report.json engine) ]
                @ (match enforcer with
                  | None -> []
                  | Some e -> [ ("enforcement", enforcement_json e) ])
                @ match prof_json with None -> [] | Some j -> [ ("profile", j) ]))
      else begin
        List.iter (fun a -> Format.printf "%a@." Vids.Alert.pp a) (Vids.Engine.alerts engine);
        Format.printf "%d distinct alert(s); %d duplicates suppressed@."
          c.Vids.Engine.alerts_raised c.Vids.Engine.alerts_suppressed;
        governance_summary engine;
        Option.iter
          (fun e ->
            print_enforcement e;
            print_string (Enforce.Enforcer.rules_text e))
          enforcer;
        ignore (finish_prof ~records ~total_s ~json:false prof)
      end;
      finish_obs obs obs_state;
      exit_for_alerts (Vids.Engine.alerts engine))

(* ------------------------------------------------------------------ *)
(* record / analyze: offline trace workflow                            *)
(* ------------------------------------------------------------------ *)

let record seed attacks workload no_attacks path =
  let attacks =
    if no_attacks then [] else if attacks = [] then Attack.Scenarios.names else attacks
  in
  let tb = T.make ~seed ~vids:T.Off () in
  let recorder = Vids.Trace.recorder () in
  Dsim.Network.set_tap tb.T.vids_node (Some (Vids.Trace.tap recorder tb.T.sched));
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  Attack.Scenarios.schedule atk
    ~on_unknown:(fun other -> Format.eprintf "skipping unknown attack %S@." other)
    attacks;
  let attack_horizon =
    if attacks = [] then 0.0 else 40.0 +. (25.0 *. float_of_int (List.length attacks))
  in
  let horizon = sec (Float.max attack_horizon (60.0 *. workload)) in
  if workload > 0.0 then begin
    (* Benign background calls interleaved with (or instead of) the
       attacks — the fixture generator for daemon smoke tests. *)
    (* Sparse-ish calls: the fixture this generates is committed to the
       repo, so favor small captures over realistic call volume. *)
    let profile =
      {
        Voip.Call_generator.mean_interarrival = sec 40.0;
        mean_duration = sec 5.0;
        min_duration = sec 2.0;
      }
    in
    T.run_workload tb ~profile ~duration:horizon ()
  end
  else T.run_until tb horizon;
  let records = Vids.Trace.records recorder in
  Vids.Pcap.write_file path records;
  Format.printf "wrote %d packets to %s@." (List.length records) path;
  0

(* ------------------------------------------------------------------ *)
(* run: the live-ingestion daemon                                      *)
(* ------------------------------------------------------------------ *)

let stop_reason_string = function
  | Ingest.Daemon.Eof -> "eof"
  | Ingest.Daemon.Signalled -> "signalled"
  | Ingest.Daemon.Deadline -> "deadline"
  | Ingest.Daemon.Source_dead -> "source-dead"
  | Ingest.Daemon.Killed -> "killed"

let parse_listen spec =
  match
    Dsim.Addr.of_string (if String.contains spec ':' then spec else "127.0.0.1:" ^ spec)
  with
  | Some a -> Ok (Dsim.Addr.host a, Dsim.Addr.port a)
  | None -> Error (Printf.sprintf "bad --listen %S (HOST:PORT or PORT)" spec)

let ingest_report_json ?profile (r : Ingest.Daemon.report) =
  let module J = Obs.Json in
  let q = r.Ingest.Daemon.queue in
  let capture (path, (s : Vids.Pcap.stats)) =
    J.obj
      [
        ("path", J.quote path); ("frames", J.int s.Vids.Pcap.frames);
        ("records", J.int s.Vids.Pcap.records); ("skipped", J.int s.Vids.Pcap.skipped);
        ("truncated_tail", J.bool s.Vids.Pcap.truncated_tail);
      ]
  in
  J.obj
    ([
       ( "ingest",
         J.obj
           [
             ("stop_reason", J.quote (stop_reason_string r.Ingest.Daemon.stop_reason));
             ("dispatched", J.int r.Ingest.Daemon.dispatched);
             ("parse_errors", J.int r.Ingest.Daemon.parse_errors);
             ("checkpoints", J.int r.Ingest.Daemon.checkpoints);
             ("queue_capacity", J.int q.Ingest.Shed_queue.capacity);
             ("queue_high_water", J.int q.Ingest.Shed_queue.high_water);
             ("queue_enqueued", J.int q.Ingest.Shed_queue.enqueued);
             ("queue_shed_media", J.int q.Ingest.Shed_queue.shed_media);
             ("queue_shed_oldest", J.int q.Ingest.Shed_queue.shed_oldest);
             ("queue_peak_depth", J.int q.Ingest.Shed_queue.peak_depth);
             ("captures", J.arr (List.map capture r.Ingest.Daemon.pcap));
             ("dispatch_p99_us",
              J.float (1e6 *. Dsim.Stat.Quantiles.p99 r.Ingest.Daemon.dispatch));
             ("horizon_us", J.int (Dsim.Time.to_us r.Ingest.Daemon.horizon));
           ] );
       ("report", Vids.Report.json r.Ingest.Daemon.engine);
     ]
    @ (match r.Ingest.Daemon.enforcer with
      | None -> []
      | Some e -> [ ("enforcement", enforcement_json e) ])
    @ match profile with None -> [] | Some j -> [ ("profile", j) ])

(* One capture file's frame counts, as [run] and [analyze] report them. *)
let print_capture ppf path (s : Vids.Pcap.stats) =
  Format.fprintf ppf "pcap %s: %d frames, %d records, %d skipped%s@." path s.Vids.Pcap.frames
    s.Vids.Pcap.records s.Vids.Pcap.skipped
    (if s.Vids.Pcap.truncated_tail then " (truncated tail)" else "")

let print_ingest_report (r : Ingest.Daemon.report) =
  let q = r.Ingest.Daemon.queue in
  Format.printf "ingestion stopped: %s at %a@."
    (stop_reason_string r.Ingest.Daemon.stop_reason)
    Dsim.Time.pp r.Ingest.Daemon.horizon;
  Format.printf
    "ingest: %d dispatched, %d parse errors, %d shed (%d media, %d displaced), peak queue %d@."
    r.Ingest.Daemon.dispatched r.Ingest.Daemon.parse_errors
    (q.Ingest.Shed_queue.shed_media + q.Ingest.Shed_queue.shed_oldest)
    q.Ingest.Shed_queue.shed_media q.Ingest.Shed_queue.shed_oldest
    q.Ingest.Shed_queue.peak_depth;
  List.iter (fun (path, s) -> print_capture Format.std_formatter path s) r.Ingest.Daemon.pcap;
  List.iter
    (fun (s : Ingest.Udp_source.stats) ->
      Format.printf "udp: %d received, %d recv errors, %d reopens%s@."
        s.Ingest.Udp_source.received s.Ingest.Udp_source.recv_errors
        s.Ingest.Udp_source.reopens
        (if s.Ingest.Udp_source.gave_up then " (gave up)" else ""))
    r.Ingest.Daemon.udp;
  if Dsim.Stat.Quantiles.count r.Ingest.Daemon.dispatch > 0 then
    Format.printf "dispatch latency: p50 %.0f us, p99 %.0f us@."
      (1e6 *. Dsim.Stat.Quantiles.p50 r.Ingest.Daemon.dispatch)
      (1e6 *. Dsim.Stat.Quantiles.p99 r.Ingest.Daemon.dispatch);
  if r.Ingest.Daemon.checkpoints > 0 then
    Format.printf "checkpoints: %d saved@." r.Ingest.Daemon.checkpoints;
  Option.iter
    (fun e ->
      print_enforcement e;
      print_string (Enforce.Enforcer.rules_text e))
    r.Ingest.Daemon.enforcer;
  Vids.Report.full Format.std_formatter r.Ingest.Daemon.engine

let daemon captures pace listen queue_cap max_runtime governance checkpointing obs record_out
    enforce_policy profile json specs =
  (* The graceful path: first signal sets the flag and the loop drains; a
     second signal while the drain runs falls back to the default
     disposition (terminate now), so a wedged drain cannot trap the
     operator. *)
  let stop = ref false in
  let arm signal =
    try
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun s ->
             if !stop then exit 1
             else begin
               stop := true;
               Format.eprintf "signal %d: draining...@." s
             end))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  arm Sys.sigterm;
  arm Sys.sigint;
  let listener =
    match listen with
    | None -> Ok None
    | Some spec -> (
        match parse_listen spec with
        | Error e -> Error e
        | Ok (host, port) -> (
            match Ingest.Udp_source.listen ~host ~port () with
            | Error e -> Error e
            | Ok u ->
                Format.eprintf "listening on %s@."
                  (Dsim.Addr.to_string (Ingest.Udp_source.local_addr u));
                Ok (Some u)))
  in
  match listener with
  | Error e ->
      Format.eprintf "%s@." e;
      1
  | Ok listener -> (
      let sources =
        List.map (fun path -> Ingest.Daemon.Pcap_file { path; pace }) captures
        @ (match listener with Some u -> [ Ingest.Daemon.Udp u ] | None -> [])
      in
      if sources = [] then begin
        Format.eprintf "nothing to ingest: give capture files and/or --listen@.";
        1
      end
      else begin
        let engine_config = apply_governance governance Vids.Config.default in
        match load_spec_overrides engine_config specs with
        | Error () -> 1
        | Ok overrides ->
        let obs_state = make_obs obs in
        let metrics = Option.map fst obs_state in
        let flight = Option.map snd obs_state in
        let prof = start_prof profile obs_state in
        let config =
          {
            Ingest.Daemon.default with
            Ingest.Daemon.engine_config = Some engine_config;
            spec_overrides = overrides;
            queue_capacity = queue_cap;
            checkpoint_every_s = checkpointing.interval;
            snapshot_path = snapshot_path checkpointing;
            journal_path = journal_path checkpointing;
            record_path = record_out;
            max_runtime_s = max_runtime;
            enforce = enforce_policy;
          }
        in
        match Ingest.Daemon.run ?metrics ?flight ?prof ~stop config sources with
        | Error e ->
            Format.eprintf "daemon error: %s@." e;
            1
        | Ok report ->
            let records = report.Ingest.Daemon.dispatched in
            if json then
              print_endline
                (ingest_report_json ?profile:(finish_prof ~records ~json:true prof) report)
            else begin
              print_ingest_report report;
              ignore (finish_prof ~records ~json:false prof)
            end;
            announce_checkpoints checkpointing;
            finish_obs obs obs_state;
            (match report.Ingest.Daemon.stop_reason with
            | Ingest.Daemon.Source_dead -> 1
            | _ -> exit_for_alerts (Vids.Engine.alerts report.Ingest.Daemon.engine))
      end)

let analyze path checkpointing obs profile json specs =
  let overrides =
    match load_spec_overrides Vids.Config.default specs with
    | Ok o -> o
    | Error () -> exit 1
  in
  match Vids.Pcap.read_file path with
  | Error e ->
      Format.eprintf "capture error: %s@." e;
      1
  | Ok (records, _, stats) ->
      (* Under --json stdout stays one parseable value. *)
      if stats.Vids.Pcap.skipped > 0 || stats.Vids.Pcap.truncated_tail then
        print_capture (if json then Format.err_formatter else Format.std_formatter) path stats;
      if not json then Format.printf "replaying %d packets...@." (List.length records);
      let sched = Dsim.Scheduler.create () in
      let engine = Vids.Engine.create ~overrides sched in
      let obs_state = start_obs obs engine in
      let prof = start_prof profile obs_state in
      Vids.Engine.set_profiler engine prof;
      let last =
        List.fold_left (fun acc r -> Dsim.Time.max acc r.Vids.Trace.at) Dsim.Time.zero records
      in
      let horizon = Dsim.Time.add last (sec 60.0) in
      let ck = checkpoint_step checkpointing sched engine ~horizon in
      let t0 = Unix.gettimeofday () in
      Option.iter (fun p -> Obs.Prof.enter p Obs.Prof.Drive) prof;
      Vids.Trace.play ~until:horizon (Vids.Trace.player sched engine) records;
      Option.iter (fun p -> Obs.Prof.exit p Obs.Prof.Drive) prof;
      let total_s = Unix.gettimeofday () -. t0 in
      Vids.Checkpoint.close ck;
      announce_checkpoints checkpointing;
      if json then
        print_endline
          (match finish_prof ~records:(List.length records) ~total_s ~json:true prof with
          | None -> Vids.Report.json engine
          | Some j ->
              Obs.Json.obj [ ("report", Vids.Report.json engine); ("profile", j) ])
      else begin
        Vids.Report.full Format.std_formatter engine;
        ignore (finish_prof ~records:(List.length records) ~total_s ~json:false prof)
      end;
      finish_obs obs obs_state;
      exit_for_alerts (Vids.Engine.alerts engine)

(* ------------------------------------------------------------------ *)
(* profile: the hot-path breakdown on a canned attack workload         *)
(* ------------------------------------------------------------------ *)

(* Capture the attack suite plus benign background calls (the [record]
   fixture shape), then replay it through a fully instrumented stack:
   profiler on the engine, every record through an enforcement gate,
   periodic checkpoints with journal fsyncs, and the whole drive loop
   under [Drive] spans — so the per-stage self times are disjoint and sum
   to the measured end-to-end wall time. *)
let profile_workload seed minutes attacks json obs =
  let attacks = if attacks = [] then Attack.Scenarios.names else attacks in
  let tb = T.make ~seed ~vids:T.Off () in
  let recorder = Vids.Trace.recorder () in
  Dsim.Network.set_tap tb.T.vids_node (Some (Vids.Trace.tap recorder tb.T.sched));
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  let unknown = ref [] in
  Attack.Scenarios.schedule atk ~on_unknown:(fun n -> unknown := n :: !unknown) attacks;
  match !unknown with
  | _ :: _ ->
      Format.eprintf "unknown attacks: %s (choose from %s)@." (String.concat ", " !unknown)
        (String.concat ", " Attack.Scenarios.names);
      1
  | [] ->
      let horizon =
        sec (Float.max (40.0 +. (25.0 *. float_of_int (List.length attacks))) (60.0 *. minutes))
      in
      let gen =
        {
          Voip.Call_generator.mean_interarrival = sec 30.0;
          mean_duration = sec 6.0;
          min_duration = sec 2.0;
        }
      in
      T.run_workload tb ~profile:gen ~duration:horizon ();
      let records =
        List.stable_sort
          (fun (a : Vids.Trace.record) b -> Dsim.Time.compare a.Vids.Trace.at b.Vids.Trace.at)
          (Vids.Trace.records recorder)
      in
      let sched = Dsim.Scheduler.create () in
      let engine = Vids.Engine.create sched in
      let obs_state = start_obs obs engine in
      let prof =
        Obs.Prof.create
          ?registry:(Option.map fst obs_state)
          ?flight:(Option.map snd obs_state) ()
      in
      Vids.Engine.set_profiler engine (Some prof);
      let ck_file = Filename.temp_file "vids-profile" ".checkpoint" in
      let journal_path = ck_file ^ ".journal" in
      let ck = Vids.Checkpoint.create ~snapshot_path:ck_file ~journal_path sched engine in
      let enforcer =
        Enforce.Enforcer.create ~policy:Enforce.Enforcer.default_policy
          ~journal:(Vids.Checkpoint.journal ck) sched engine
      in
      Vids.Checkpoint.set_ext ck (fun () -> Enforce.Enforcer.ext enforcer);
      (* Checkpoints every 15 s while records flow, then a final one. *)
      let last =
        List.fold_left (fun _ (r : Vids.Trace.record) -> r.Vids.Trace.at) Dsim.Time.zero records
      in
      Vids.Checkpoint.arm ck ~every:(sec 15.0) ~until:last ();
      let player =
        Vids.Trace.player sched engine ~gate:(fun pkt ->
            Obs.Prof.enter prof Obs.Prof.Enforce_gate;
            ignore (Enforce.Enforcer.ingest enforcer pkt);
            Obs.Prof.exit prof Obs.Prof.Enforce_gate)
      in
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun r ->
          Obs.Prof.enter prof Obs.Prof.Drive;
          Vids.Trace.step player r;
          Obs.Prof.exit prof Obs.Prof.Drive)
        records;
      (* Close detector windows and grace timers under the same
         accounting, then take the final checkpoint. *)
      Obs.Prof.enter prof Obs.Prof.Drive;
      Dsim.Scheduler.run_until sched (Dsim.Time.add horizon (sec 60.0));
      Vids.Checkpoint.take ck;
      Obs.Prof.exit prof Obs.Prof.Drive;
      let total_s = Unix.gettimeofday () -. t0 in
      Vids.Checkpoint.close ck;
      Obs.Prof.sample_gc prof;
      let n = List.length records in
      let report = Obs.Prof.report_of_snapshot (Obs.Metrics.snapshot (Obs.Prof.registry prof)) in
      let covered = Obs.Prof.total_seconds report in
      if json then
        print_endline
          (Obs.Json.obj
             [
               ("records", Obs.Json.int n);
               ("total_s", Obs.Json.float total_s);
               ("coverage", Obs.Json.float (if total_s > 0.0 then covered /. total_s else 0.0));
               ("stages", Obs.Prof.report_json ~records:n ~total_s report);
             ])
      else begin
        Format.printf "profiled %d record(s): %.4f s end-to-end, %.1f%% inside spans@." n
          total_s
          (if total_s > 0.0 then 100.0 *. covered /. total_s else 0.0);
        Format.printf "%a" (Obs.Prof.pp_table ~records:n ~total_s) report;
        let c = Vids.Engine.counters engine in
        let s = Enforce.Enforcer.stats enforcer in
        Format.printf "%d distinct alert(s); enforcement blocked %d of %d record(s)@."
          c.Vids.Engine.alerts_raised s.Enforce.Enforcer.blocked n
      end;
      finish_obs obs obs_state;
      (* The checkpoint/journal files only exist to exercise those stages;
         they are scratch, not a deliverable. *)
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ ck_file; ck_file ^ ".1"; journal_path ];
      0

(* ------------------------------------------------------------------ *)
(* recover: crash recovery from checkpoint + journal + trace           *)
(* ------------------------------------------------------------------ *)

let recover snapshot_path journal_path trace_path until obs enforce_policy =
  let until = Option.map sec until in
  let obs_state = make_obs obs in
  let prepare =
    Option.map
      (fun (metrics, flight) _sched engine ->
        Vids.Engine.set_telemetry engine ~metrics ~flight ())
      obs_state
  in
  let t0 = Unix.gettimeofday () in
  let recovered =
    match enforce_policy with
    | Some policy ->
        (* Enforcement recovery owns the hook ordering: the capture must
           replay through the restored gate or its drop decisions — and
           therefore the recovered digest — would diverge from the run
           that never crashed. *)
        Result.map
          (fun (fr, e) -> (fr, Some e))
          (Enforce.Recover.recover_files ~policy ?journal_path ?trace_path ?until
             ~snapshot_path ())
    | None ->
        Result.map
          (fun fr -> (fr, None))
          (Vids.Recovery.recover_files ?prepare ?journal_path ?trace_path ?until
             ~snapshot_path ())
  in
  match recovered with
  | Error e ->
      Format.eprintf "recovery failed: %s@." e;
      1
  | Ok (fr, enforcer) ->
      let o = fr.Vids.Recovery.outcome in
      Option.iter
        (fun (metrics, _) ->
          let h =
            Obs.Metrics.histogram metrics "vids_recovery_seconds"
              ~help:"Wall-clock duration of snapshot restore + journal merge + replay"
          in
          Obs.Metrics.observe h (Unix.gettimeofday () -. t0);
          let replayed =
            Obs.Metrics.counter metrics "vids_recovery_replayed_total"
              ~help:"Trace records replayed after the restored checkpoint"
          in
          Obs.Metrics.add replayed o.Vids.Recovery.replayed)
        obs_state;
      Format.printf "recovered from %s (checkpoint #%d at %a)%s@." fr.Vids.Recovery.snapshot_path
        o.Vids.Recovery.snapshot_seq Dsim.Time.pp o.Vids.Recovery.snapshot_at
        (if fr.Vids.Recovery.used_fallback then " [fallback]" else "");
      List.iter
        (fun (path, reason) -> Format.printf "rejected %s: %s@." path reason)
        fr.Vids.Recovery.rejected;
      Format.printf "journal: %d alert(s) merged, %d eviction(s) noted, %d line(s) skipped@."
        o.Vids.Recovery.journal_alerts o.Vids.Recovery.journal_evictions
        (List.length fr.Vids.Recovery.journal_skipped);
      List.iter
        (fun (line, reason) -> Format.printf "  journal line %d skipped: %s@." line reason)
        fr.Vids.Recovery.journal_skipped;
      List.iter
        (fun (frame, reason) -> Format.printf "  trace frame %d skipped: %s@." frame reason)
        fr.Vids.Recovery.trace_skipped;
      Format.printf "replayed %d packet(s) recorded after the checkpoint@.@."
        o.Vids.Recovery.replayed;
      Option.iter
        (fun e ->
          print_enforcement e;
          print_string (Enforce.Enforcer.rules_text e))
        enforcer;
      Vids.Report.full Format.std_formatter o.Vids.Recovery.engine;
      finish_obs obs obs_state;
      0

(* ------------------------------------------------------------------ *)
(* rules                                                               *)
(* ------------------------------------------------------------------ *)

let rules snapshot_path json =
  match Vids.Snapshot.load snapshot_path with
  | Error e ->
      Format.eprintf "cannot load %s: %s@." snapshot_path e;
      1
  | Ok snap -> (
      match List.assoc_opt Enforce.Enforcer.ext_tag (Vids.Snapshot.ext snap) with
      | None ->
          (* Under --json the note goes to stderr and stdout stays one
             parseable value: the empty table. *)
          (if json then Format.eprintf else Format.printf)
            "no enforcement state in %s (checkpoint #%d at %a)@." snapshot_path
            (Vids.Snapshot.seq snap) Dsim.Time.pp (Vids.Snapshot.at snap);
          if json then
            print_endline
              (Enforce.Block_table.to_json (Enforce.Block_table.create ())
                 ~now:(Vids.Snapshot.at snap));
          0
      | Some payload -> (
          let tbl = Enforce.Block_table.create () in
          match Enforce.Block_table.restore tbl payload with
          | Error e ->
              Format.eprintf "corrupt enforcement state in %s: %s@." snapshot_path e;
              1
          | Ok () ->
              let now = Vids.Snapshot.at snap in
              if json then print_endline (Enforce.Block_table.to_json tbl ~now)
              else print_string (Enforce.Block_table.to_text tbl ~now);
              0))

(* ------------------------------------------------------------------ *)
(* parse                                                               *)
(* ------------------------------------------------------------------ *)

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match Sip.Msg.parse text with
  | Error e ->
      Format.eprintf "parse error: %s@." e;
      1
  | Ok msg ->
      Format.printf "%a@." Sip.Msg.pp msg;
      (match msg.Sip.Msg.start with
      | Sip.Msg.Request { meth; uri } ->
          Format.printf "  request: %a %s@." Sip.Msg_method.pp meth (Sip.Uri.to_string uri)
      | Sip.Msg.Response { code; reason } -> Format.printf "  response: %d %s@." code reason);
      Sip.Header.fold
        (fun name value () -> Format.printf "  %s: %s@." name value)
        msg.Sip.Msg.headers ();
      if msg.Sip.Msg.body <> "" then begin
        if Sip.Msg.content_type_is msg "application/sdp" then (
          match Sdp.parse msg.Sip.Msg.body with
          | Ok d ->
              List.iter
                (fun m ->
                  Format.printf "  sdp media: %s port %d formats %s@." m.Sdp.media_type
                    m.Sdp.port
                    (String.concat "," (List.map string_of_int m.Sdp.formats)))
                d.Sdp.media
          | Error e -> Format.printf "  sdp parse error: %s@." e)
        else Format.printf "  body: %d bytes@." (String.length msg.Sip.Msg.body)
      end;
      0

(* ------------------------------------------------------------------ *)
(* export-fsm                                                          *)
(* ------------------------------------------------------------------ *)

(* The five shipped machines under the default config, by CLI name. *)
let builtins () = Vids.Spec_load.builtins Vids.Config.default

(* The shipped machines grouped the way [Vids.Fact_base] actually couples
   them: SIP and RTP share each call's globals and δ channels; the three
   detectors run alone. *)
let lint_systems () =
  let call = [ "sip-call"; "rtp-call" ] in
  let all = builtins () in
  ("call", List.map (fun name -> List.assoc name all) call)
  :: List.filter_map
       (fun (name, entry) -> if List.mem name call then None else Some (name, [ entry ]))
       all

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_dot dir report (spec : Efsm.Machine.spec) =
  let path =
    Filename.concat dir (String.lowercase_ascii spec.Efsm.Machine.spec_name ^ ".dot")
  in
  let oc = open_out path in
  output_string oc (Analyze.Report.render_dot report spec);
  close_out oc;
  Format.eprintf "wrote %s@." path

let lint_builtins json dot_dir =
  let reports =
    List.map
      (fun (name, sys) -> (name, sys, Analyze.Verifier.verify_system sys))
      (lint_systems ())
  in
  (match dot_dir with
  | None -> ()
  | Some dir ->
      ensure_dir dir;
      List.iter
        (fun (_, sys, report) ->
          List.iter (fun (spec, _) -> write_dot dir report spec) sys)
        reports);
  if json then
    print_endline
      (Obs.Json.obj
         (List.map (fun (name, _, report) -> (name, Analyze.Report.render_json report)) reports))
  else
    List.iter
      (fun (name, _, report) ->
        Format.printf "### system %s@.%s@." name (Analyze.Report.render_text report))
      reports;
  if List.exists (fun (_, _, r) -> Analyze.Verifier.has_errors r) reports then 1 else 0

(* Lint external [.vspec] files: front-end diagnostics (with caret
   snippets) plus the full verifier over the loaded machines, findings
   mapped back to source positions. *)
let lint_vspec json dot_dir files =
  let cfg = Vids.Config.default in
  match
    Analyze.Speclint.lint_files ~known_machines:Vids.Spec_load.known_machines
      ~params:(Vids.Spec_load.params cfg) files
  with
  | Error e ->
      Format.eprintf "%s@." e;
      1
  | Ok r ->
      (match dot_dir with
      | None -> ()
      | Some dir ->
          ensure_dir dir;
          List.iter
            (fun (el : Spec.Elaborate.elaborated) ->
              write_dot dir r.Analyze.Speclint.report el.Spec.Elaborate.el_spec)
            r.Analyze.Speclint.loaded);
      if json then print_endline (Analyze.Speclint.render_json r)
      else print_string (Analyze.Speclint.render_text r);
      if Analyze.Speclint.ok r then 0 else 1

(* --emit NAME: print a builtin machine's embedded .vspec source, the
   one definition the engine elaborates. *)
let emit_builtin name =
  match Vids.Spec_load.source_for name with
  | None ->
      Format.eprintf "unknown machine %S (choose from %s)@." name
        (String.concat ", " (List.map fst Vids.Spec_load.sources));
      1
  | Some source ->
      print_string source;
      0

let lint json dot_dir emit files =
  match emit with
  | Some name -> emit_builtin name
  | None -> if files = [] then lint_builtins json dot_dir else lint_vspec json dot_dir files

let check_specs () =
  let failures = ref 0 in
  List.iter
    (fun (name, (spec, _)) ->
      let r = Analyze.Verifier.verify_spec spec in
      match Analyze.Verifier.machine_errors r with
      | [] ->
          Format.printf "%-14s ok: %d states reachable, %d transitions@." name
            (List.length r.Analyze.Verifier.reachable)
            (List.length spec.Efsm.Machine.transitions)
      | errors ->
          incr failures;
          List.iter
            (fun f -> Format.printf "%-14s FAILED: %s@." name (Analyze.Finding.to_string f))
            errors)
    (builtins ());
  if !failures = 0 then 0
  else begin
    Format.printf "(run `vids-cli lint` for the full report)@.";
    1
  end

let export_fsm name =
  let all = builtins () in
  match List.assoc_opt name all with
  | Some (spec, _) ->
      print_string (Efsm.Dot.of_spec spec);
      0
  | None ->
      Format.eprintf "unknown machine %S (choose from %s)@." name
        (String.concat ", " (List.map fst all));
      1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

let governance_term =
  let governed =
    Arg.(
      value & flag
      & info [ "governed" ]
          ~doc:"Enable the resource-governance preset (caps, ageing sweep, degradation).")
  in
  let max_calls =
    Arg.(
      value & opt (some int) None
      & info [ "max-calls" ] ~docv:"N" ~doc:"Cap on tracked calls (0 = unbounded).")
  in
  let max_detectors =
    Arg.(
      value & opt (some int) None
      & info [ "max-detectors" ] ~docv:"N" ~doc:"Cap on attack detector instances (0 = unbounded).")
  in
  let call_max_age =
    Arg.(
      value & opt (some float) None
      & info [ "call-max-age" ] ~docv:"SEC"
          ~doc:"Age after which idle call records are swept (0 = never).")
  in
  let sweep_interval =
    Arg.(
      value & opt (some float) None
      & info [ "sweep-interval" ] ~docv:"SEC"
          ~doc:"Period of the scheduled ageing sweep (0 = disabled).")
  in
  let high =
    Arg.(
      value & opt (some int) None
      & info [ "degrade-high-water" ] ~docv:"N"
          ~doc:"Active-state level at which RTP stream analysis is shed (0 = never).")
  in
  let low =
    Arg.(
      value & opt (some int) None
      & info [ "degrade-low-water" ] ~docv:"N"
          ~doc:"Active-state level at which full analysis resumes (0 = 3/4 of high water).")
  in
  let make governed max_calls max_detectors call_max_age sweep_interval degrade_high_water
      degrade_low_water =
    { governed; max_calls; max_detectors; call_max_age; sweep_interval; degrade_high_water;
      degrade_low_water }
  in
  Term.(
    const make $ governed $ max_calls $ max_detectors $ call_max_age $ sweep_interval $ high $ low)

let checkpoint_term =
  let interval =
    Arg.(
      value & opt float 0.0
      & info [ "checkpoint-interval" ] ~docv:"SEC"
          ~doc:"Snapshot the engine every $(docv) of virtual time (0 = off).")
  in
  let file =
    Arg.(
      value & opt string "vids.checkpoint"
      & info [ "checkpoint-file" ] ~docv:"FILE"
          ~doc:
            "Checkpoint path; the previous snapshot rotates to $(docv).1 and the write-ahead \
             journal lives at $(docv).journal.")
  in
  Term.(const (fun interval file -> { interval; file }) $ interval $ file)

let obs_term =
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run metrics export to $(docv): Prometheus text exposition, or \
             JSONL when $(docv) ends in .json/.jsonl.  Enables telemetry.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Append flight-recorder dumps (machine quarantines, daemon shutdown, end of run) \
             to $(docv) as JSONL.  Enables telemetry.")
  in
  let trace_ring =
    Arg.(
      value & opt int 256
      & info [ "trace-ring" ] ~docv:"N"
          ~doc:"Capacity of the flight-recorder ring (most recent $(docv) pipeline events).")
  in
  Term.(
    const (fun metrics_out trace_out trace_ring -> { metrics_out; trace_out; trace_ring })
    $ metrics_out $ trace_out $ trace_ring)

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attach the hot-path profiler: per-stage span timing and allocation attribution, \
           printed as a breakdown table (a $(b,profile) key under --json) and included in \
           --metrics-out exports.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the final report as one JSON object on stdout (progress and export \
           announcements go to stderr).")

let spec_term =
  Arg.(
    value & opt_all file []
    & info [ "spec" ] ~docv:"FILE.vspec"
        ~doc:
          "Load machine definitions from a $(b,.vspec) file, replacing the builtin of the \
           same name (SIP, RTP, INVITE_FLOOD, MEDIA_SPAM, DRDOS).  Repeatable.  The file is \
           parsed, typechecked and verified before the run starts; diagnostics abort it.")

let enforce_term =
  let enforce =
    Arg.(
      value & flag
      & info [ "enforce" ]
          ~doc:
            "Prevention mode: act on alerts and parse failures — drop flooding sources and \
             endpoints that keep sending what does not parse, rate-limit media floods, tear \
             down hijacked calls.  Decisions are journaled and checkpointed so they survive \
             a crash.")
  in
  let block_ttl =
    Arg.(
      value & opt float 60.0
      & info [ "block-ttl" ] ~docv:"SEC"
          ~doc:"Lifetime of enforcement rules; repeat alerts refresh it.")
  in
  let fail_closed =
    Arg.(
      value & flag
      & info [ "fail-closed" ]
          ~doc:
            "When enforcement cannot do its job (rule-table overflow, corrupt recovery \
             state), drop all traffic instead of failing open.")
  in
  Term.(
    const (fun on ttl fc ->
        if not on then None
        else
          Some
            {
              Enforce.Enforcer.default_policy with
              Enforce.Enforcer.block_ttl = sec ttl;
              fail_closed = fc;
            })
    $ enforce $ block_ttl $ fail_closed)

let simulate_cmd =
  let n_ua = Arg.(value & opt int 10 & info [ "uas" ] ~doc:"UAs per enterprise network.") in
  let mode =
    Arg.(value & opt string "inline" & info [ "vids" ] ~doc:"vIDS mode: inline|monitor|off.")
  in
  let minutes = Arg.(value & opt float 10.0 & info [ "minutes" ] ~doc:"Workload duration.") in
  let gap =
    Arg.(value & opt float 120.0 & info [ "mean-gap" ] ~doc:"Mean seconds between calls per UA.")
  in
  let talk = Arg.(value & opt float 45.0 & info [ "mean-talk" ] ~doc:"Mean call seconds.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the enterprise workload and report performance")
    Term.(
      const simulate $ seed_arg $ n_ua $ mode $ minutes $ gap $ talk $ governance_term
      $ checkpoint_term $ obs_term $ spec_term)

let detect_cmd =
  let attacks =
    Arg.(value & pos_all string [] & info [] ~docv:"ATTACK" ~doc:"Attacks to launch.")
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Launch attack scenarios and print the vIDS alert log")
    Term.(
      const detect $ seed_arg $ attacks $ governance_term $ checkpoint_term $ obs_term
      $ enforce_term $ profile_flag $ json_flag $ spec_term)

let parse_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "parse" ~doc:"Parse a SIP message from a file") Term.(const parse_file $ file)

let record_cmd =
  let attacks =
    Arg.(value & pos_all string [] & info [] ~docv:"ATTACK" ~doc:"Attacks to include.")
  in
  let workload =
    Arg.(
      value & opt float 0.0
      & info [ "workload" ] ~docv:"MIN"
          ~doc:"Also run $(docv) minutes of benign background calls (0 = none).")
  in
  let no_attacks =
    Arg.(
      value & flag
      & info [ "no-attacks" ] ~doc:"Record only the benign workload (needs --workload).")
  in
  let out =
    Arg.(
      value & opt string "vids.pcap"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Capture file to write (libpcap).")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Capture sensor traffic (with attacks) to a pcap file")
    Term.(const record $ seed_arg $ attacks $ workload $ no_attacks $ out)

let run_cmd =
  let captures =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"CAPTURE" ~doc:"libpcap files to stream ($(b,.pcap)).")
  in
  let pace =
    Arg.(
      value & flag
      & info [ "pace" ]
          ~doc:"Replay capture files at their recorded inter-arrival times instead of as fast \
                as the disk reads.")
  in
  let listen =
    Arg.(
      value & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:"Also listen for live UDP datagrams (PORT alone binds 127.0.0.1).")
  in
  let queue =
    Arg.(
      value & opt int 4096
      & info [ "queue" ] ~docv:"N"
          ~doc:"Ingest queue capacity; above 3/4 of $(docv) media is shed at the door, at \
                $(docv) the oldest record is displaced.")
  in
  let max_runtime =
    Arg.(
      value & opt (some float) None
      & info [ "max-runtime" ] ~docv:"SEC" ~doc:"Stop (gracefully) after $(docv) wall seconds.")
  in
  let record_out =
    Arg.(
      value & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"Capture every dispatched packet to $(docv) (libpcap), for offline replay and \
                crash recovery.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the live-ingestion daemon: stream captures and/or listen on UDP, analyze in \
          real time, checkpoint periodically, drain gracefully on SIGINT/SIGTERM.  Exits 0 \
          on a clean stop, 3 when attack alerts were raised, nonzero on faults.")
    Term.(
      const daemon $ captures $ pace $ listen $ queue $ max_runtime $ governance_term
      $ checkpoint_term $ obs_term $ record_out $ enforce_term $ profile_flag $ json_flag
      $ spec_term)

let analyze_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"CAPTURE") in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Replay a pcap capture through vIDS offline, each packet at its recorded instant")
    Term.(
      const analyze $ file $ checkpoint_term $ obs_term $ profile_flag $ json_flag
      $ spec_term)

let profile_cmd =
  let attacks =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ATTACK" ~doc:"Attacks to include (default: the full suite).")
  in
  let minutes =
    Arg.(
      value & opt float 4.0
      & info [ "minutes" ] ~docv:"MIN"
          ~doc:
            "Benign background-call workload duration (the attack suite's own horizon sets a \
             floor).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Capture the attack suite plus benign calls, replay it through a fully instrumented \
          stack — profiler, enforcement gate, periodic checkpoints, journal \
          fsyncs — and print the per-stage wall-time / allocation breakdown.  --json emits \
          the ranking with bytes allocated per record.")
    Term.(const profile_workload $ seed_arg $ minutes $ attacks $ json_flag $ obs_term)

let recover_cmd =
  let snapshot =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"SNAPSHOT"
          ~doc:"Checkpoint file; a corrupt or missing primary falls back to $(docv).1.")
  in
  let journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE" ~doc:"Write-ahead journal to merge (loaded leniently).")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Packet capture (libpcap, e.g. $(b,run --record)'s); records after the checkpoint \
             are replayed, and frames it skips are listed.")
  in
  let until =
    Arg.(
      value & opt (some float) None
      & info [ "until" ] ~docv:"SEC"
          ~doc:"Stop the recovered clock at $(docv) instead of draining every pending event.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild a crashed engine from checkpoint + journal + capture and print its report")
    Term.(
      const recover $ snapshot $ journal $ trace $ until $ obs_term $ enforce_term)

let rules_cmd =
  let snapshot =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"SNAPSHOT" ~doc:"Checkpoint whose enforcement rules to print.")
  in
  Cmd.v
    (Cmd.info "rules"
       ~doc:
         "Print the enforcement rules stored in a checkpoint — what an enforcing sensor \
          was blocking when it wrote it.")
    Term.(const rules $ snapshot $ json_flag)

let lint_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the verification report as one JSON object on stdout.")
  in
  let dot_dir =
    Arg.(
      value & opt (some string) None
      & info [ "dot-dir" ] ~docv:"DIR"
          ~doc:"Write each machine's Graphviz diagram, annotated with findings, into $(docv).")
  in
  let emit =
    Arg.(
      value & opt (some string) None
      & info [ "emit" ] ~docv:"MACHINE"
          ~doc:
            "Print a builtin machine's $(b,.vspec) source and exit: the embedded \
             lib/core/specs file the engine elaborates, with its Config-bound params \
             unexpanded.  $(docv) is a key such as media-spam or a machine name such as \
             MEDIA_SPAM.")
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE.vspec"
          ~doc:
            "External spec files to lint instead of the builtins: lex/parse/typecheck with \
             file:line:col diagnostics and caret snippets, then the full verifier over the \
             loaded machines.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify the machine specifications: guard disjointness (determinism), \
          guard-aware reachability, variable init/domain hygiene, timer hygiene, and \
          cross-machine sync-channel soundness.  With $(b,FILE.vspec) arguments, lint \
          external specs with positioned diagnostics instead of the builtins.  Exits \
          nonzero on error-severity findings.")
    Term.(const lint $ json $ dot_dir $ emit $ files)

let check_specs_cmd =
  Cmd.v
    (Cmd.info "check-specs"
       ~doc:
         "Quick per-machine structural check (error findings only); see `lint` for the full \
          verifier.")
    Term.(const check_specs $ const ())

let export_cmd =
  let machine_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"MACHINE") in
  Cmd.v
    (Cmd.info "export-fsm" ~doc:"Print a protocol/attack state machine as Graphviz dot")
    Term.(const export_fsm $ machine_arg)

let () =
  let info = Cmd.info "vids-cli" ~version:"1.0.0" ~doc:"VoIP intrusion detection testbed" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            simulate_cmd; detect_cmd; record_cmd; run_cmd; analyze_cmd; profile_cmd;
            recover_cmd; rules_cmd; parse_cmd; lint_cmd; check_specs_cmd; export_cmd;
          ]))
