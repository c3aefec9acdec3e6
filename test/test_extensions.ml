(* Tests for the extensions built on top of the paper's core: offline trace
   capture/replay, report rendering, registration-hijack detection, and
   EFSM static analysis. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

module T = Voip.Testbed

let sec = Dsim.Time.of_sec

(* ------------------------------------------------------------------ *)
(* Trace format                                                        *)
(* ------------------------------------------------------------------ *)

let sample_record =
  {
    Vids.Trace.at = Dsim.Time.of_ms 123.456;
    src = Dsim.Addr.v "10.1.0.10" 16384;
    dst = Dsim.Addr.v "10.2.0.10" 20000;
    payload = "\x80\x12binary\xff\x00payload";
  }

let trace_line_roundtrip () =
  let line = Vids.Trace.record_to_line sample_record in
  let back = ok (Vids.Trace.record_of_line line) in
  check "roundtrip" true (back = sample_record)

let trace_empty_payload () =
  let r = { sample_record with Vids.Trace.payload = "" } in
  check "empty payload roundtrips" true
    (ok (Vids.Trace.record_of_line (Vids.Trace.record_to_line r)) = r)

let trace_bad_lines () =
  check "garbage" true (Result.is_error (Vids.Trace.record_of_line "not a record"));
  (* "1_" passes [int_of_string], which allows '_' separators. *)
  List.iter
    (fun hex ->
      check ("bad hex " ^ hex) true
        (Result.is_error (Vids.Trace.record_of_line ("1 a:1 b:2 " ^ hex))))
    [ "zz"; "1_" ];
  check "odd hex" true (Result.is_error (Vids.Trace.record_of_line "1 a:1 b:2 abc"));
  check "bad addr" true (Result.is_error (Vids.Trace.record_of_line "1 nope b:2 ab"))

let trace_file_roundtrip () =
  let path = Filename.temp_file "vids" ".trace" in
  let records = [ sample_record; { sample_record with Vids.Trace.at = Dsim.Time.of_sec 2.0 } ] in
  let oc = open_out path in
  Vids.Trace.save oc records;
  close_out oc;
  let ic = open_in path in
  let loaded = ok (Vids.Trace.load ic) in
  close_in ic;
  Sys.remove path;
  check "loaded equals saved" true (loaded = records)

(* Capture a live attack at the sensor, replay the trace offline, and get
   the same verdict. *)
let trace_replay_reproduces_alerts () =
  let tb = T.make ~seed:41 ~n_ua:2 ~vids:T.Off () in
  let recorder = Vids.Trace.recorder () in
  Dsim.Network.set_tap tb.T.vids_node (Some (Vids.Trace.tap recorder tb.T.sched));
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  Attack.Scenarios.spoofed_bye_call atk ~caller:(List.hd tb.T.uas_a)
    ~callee:(List.hd tb.T.uas_b) ~at:(sec 2.0);
  T.run_until tb (sec 40.0);
  let records = Vids.Trace.records recorder in
  check "trace captured" true (List.length records > 100);
  let engine = Vids.Trace.replay records in
  check_int "bye dos found offline" 1
    (List.length (Vids.Engine.alerts_of_kind engine Vids.Alert.Bye_dos));
  (* Timers behaved under virtual time: the alert is after the BYE. *)
  (match Vids.Engine.alerts_of_kind engine Vids.Alert.Bye_dos with
  | [ alert ] -> check "virtual time sane" true Dsim.Time.(alert.Vids.Alert.at > sec 6.0)
  | _ -> Alcotest.fail "expected one alert");
  (* Replay is insensitive to record order. *)
  let shuffled = List.rev records in
  let engine2 = Vids.Trace.replay shuffled in
  check_int "order-insensitive" 1
    (List.length (Vids.Engine.alerts_of_kind engine2 Vids.Alert.Bye_dos))

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let report_rendering () =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let empty = Format.asprintf "%a" Vids.Report.full engine in
  check "empty report mentions no alerts" true (contains ~needle:"no alerts." empty);
  (* Inject a malformed message to generate one alert. *)
  let alloc = Dsim.Packet.allocator () in
  Vids.Engine.process_packet engine
    (Dsim.Packet.make alloc ~src:(Dsim.Addr.v "x" 5060) ~dst:(Dsim.Addr.v "y" 5060) ~sent_at:0
       "garbage");
  let rendered = Format.asprintf "%a" Vids.Report.full engine in
  check "summary counters" true (contains ~needle:"1 malformed" rendered);
  check "groups by kind" true (contains ~needle:"spec-deviation (1):" rendered);
  check "severity counted" true (contains ~needle:"1 warning" rendered)

(* ------------------------------------------------------------------ *)
(* Registration hijack                                                 *)
(* ------------------------------------------------------------------ *)

let register_hijack_detected () =
  let tb = T.make ~seed:42 ~n_ua:2 ~vids:T.Monitor () in
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  Attack.Scenarios.register_hijack atk ~victim:(List.hd tb.T.uas_b) ~at:(sec 2.0);
  T.run_until tb (sec 10.0);
  let alerts =
    Vids.Engine.alerts_of_kind (T.engine_exn tb) Vids.Alert.Registration_hijack
  in
  check_int "hijack flagged" 1 (List.length alerts);
  (match alerts with
  | [ a ] ->
      check_str "subject is victim aor" "b1@b.example" a.Vids.Alert.subject;
      check "warning severity" true (a.Vids.Alert.severity = Vids.Alert.Warning)
  | _ -> ());
  (* And the attack worked at the registrar: the binding moved. *)
  check "binding redirected" true
    (Voip.Location.lookup (Voip.Proxy.location tb.T.proxy_b) ~aor:"b1@b.example"
    = Some (Dsim.Addr.v "203.0.113.66" 5060))

let internal_registers_not_flagged () =
  (* The UAs' own registrations stay inside each LAN and never cross the
     sensor: no registration alerts on a clean start. *)
  let tb = T.make ~seed:43 ~n_ua:4 ~vids:T.Monitor () in
  T.run_until tb (sec 5.0);
  check_int "no registration alerts" 0
    (List.length (Vids.Engine.alerts_of_kind (T.engine_exn tb) Vids.Alert.Registration_hijack))

let register_flag_can_be_disabled () =
  let config = { Vids.Config.default with Vids.Config.flag_boundary_register = false } in
  let tb = T.make ~seed:44 ~n_ua:2 ~vids:T.Monitor ~config () in
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  Attack.Scenarios.register_hijack atk ~victim:(List.hd tb.T.uas_b) ~at:(sec 2.0);
  T.run_until tb (sec 10.0);
  check_int "flag disabled" 0
    (List.length (Vids.Engine.alerts_of_kind (T.engine_exn tb) Vids.Alert.Registration_hijack))

(* ------------------------------------------------------------------ *)
(* EFSM static analysis                                                *)
(* ------------------------------------------------------------------ *)

let tr = Efsm.Machine.ir_transition

let analysis_flags_unreachable () =
  let spec =
    {
      Efsm.Machine.spec_name = "broken";
      initial = "A";
      finals = [ "Z" ];
      attack_states = [ ("X", "boom") ];
      transitions =
        [
          tr ~label:"ab" ~from_state:"A" (Efsm.Machine.On_event "e") ~to_state:"B" ();
          (* X and Z only reachable from orphaned state Q. *)
          tr ~label:"qx" ~from_state:"Q" (Efsm.Machine.On_event "e") ~to_state:"X" ();
          tr ~label:"qz" ~from_state:"Q" (Efsm.Machine.On_event "e") ~to_state:"Z" ();
        ];
    }
  in
  let r = Analyze.Verifier.verify_spec spec in
  Alcotest.(check (list string)) "reachable" [ "A"; "B" ] r.Analyze.Verifier.reachable;
  let flagged prefix =
    List.filter_map
      (fun (f : Analyze.Finding.t) ->
        if String.starts_with ~prefix f.Analyze.Finding.message then
          Some (Option.value f.Analyze.Finding.state ~default:"")
        else None)
      r.Analyze.Verifier.findings
  in
  Alcotest.(check (list string)) "unreachable attacks" [ "X" ]
    (flagged "attack state is unreachable");
  Alcotest.(check (list string)) "finals unreachable" [ "" ] (flagged "no final state is reachable");
  Alcotest.(check (list string)) "dead ends" [ "B" ] (flagged "reachable dead end");
  check "verifier rejects" true (Analyze.Verifier.machine_errors r <> [])

let analysis_accepts_paper_machines () =
  List.iter
    (fun (spec, vars) ->
      match Analyze.Verifier.machine_errors (Analyze.Verifier.verify_spec ~vars spec) with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "verifier rejected %s: %s" spec.Efsm.Machine.spec_name
            (Analyze.Finding.to_string f))
    (List.map snd (Vids.Spec_load.builtins Vids.Config.default))

let suite =
  [
    ( "ext.trace",
      [
        tc "line roundtrip" trace_line_roundtrip;
        tc "empty payload" trace_empty_payload;
        tc "bad lines" trace_bad_lines;
        tc "file roundtrip" trace_file_roundtrip;
        tc "capture + offline replay" trace_replay_reproduces_alerts;
      ] );
    ("ext.report", [ tc "rendering" report_rendering ]);
    ( "ext.register_hijack",
      [
        tc "detected" register_hijack_detected;
        tc "internal not flagged" internal_registers_not_flagged;
        tc "flag disabled" register_flag_can_be_disabled;
      ] );
    ( "ext.analysis",
      [
        tc "flags unreachable" analysis_flags_unreachable;
        tc "accepts paper machines" analysis_accepts_paper_machines;
      ] );
  ]
