(* Profiling bench: what do the hot-path profiler and the telemetry
   registry cost, and where does the pipeline's time actually go?

   Three gates, answered in BENCH_profile.json:

   1. Overhead — the shared {!Workload} trace is replayed through a bare
      engine, through one carrying an {!Obs.Prof} profiler (every
      parse/dispatch/detect span live), and through one carrying a full
      metrics registry + flight recorder (what the CLI's
      --metrics-out/--trace-out flags attach).  Best-of-N drive times; each
      instrumented mode must stay within 5% of the baseline plus a 10 ms
      epsilon, so micro runs aren't judged on scheduler noise.
   2. Transparency — profiling and telemetry must be write-only: the
      canonical [Vids.Snapshot.digest] of each instrumented engine must be
      byte-identical to the bare engine's.
   3. Coverage — the per-stage self times must account for at least 90%
      of the measured end-to-end drive time, i.e. the span set actually
      explains where the wall clock went (a [Drive] span around the
      scheduler run turns uninstrumented time into explicit self time).

   The JSON carries the full per-stage breakdown (shares, quantiles,
   bytes/record) — the rows bench/trend.exe compares against a committed
   baseline to catch per-stage regressions in CI.  The telemetry run's
   exports are written beside it (obs_sample.prom,
   obs_sample_trace.jsonl) as a sample of both exporter formats.

   Scale comes from argv: [profile.exe 400 3] replays 400 calls with
   best-of-3 timing (the CI smoke preset); the default is 2000 calls,
   best-of-5. *)

type mode = Bare | Profiled | Telemetry

type run = {
  engine : Vids.Engine.t;
  prof : Obs.Prof.t option;
  obs : (Obs.Metrics.t * Obs.Trace.t) option;
  drive_s : float;
}

(* One replay over a private clock.  Every mode times the whole replay,
   including the building of each record's packet and the sort of the
   call-by-call trace. *)
let replay mode ~horizon trace =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let prof =
    if mode <> Profiled then None
    else begin
      let p = Obs.Prof.create () in
      Vids.Engine.set_profiler engine (Some p);
      Some p
    end
  in
  let obs =
    if mode <> Telemetry then None
    else begin
      let metrics = Obs.Metrics.create () in
      let flight = Obs.Trace.create ~capacity:256 () in
      Vids.Engine.set_telemetry engine ~metrics ~flight ();
      Some (metrics, flight)
    end
  in
  let drive_s =
    Bench_common.time (fun () ->
        Option.iter (fun p -> Obs.Prof.enter p Obs.Prof.Drive) prof;
        Vids.Trace.play ~until:horizon (Vids.Trace.player sched engine) trace;
        Option.iter (fun p -> Obs.Prof.exit p Obs.Prof.Drive) prof)
  in
  { engine; prof; obs; drive_s }

(* Fastest drive time of the bare, profiled and telemetry modes over [n]
   rounds.  A round replays every mode once, so a slow spell on the host
   hits all modes alike instead of whichever one happened to be running. *)
let best_of n ~horizon trace =
  if n <= 0 then invalid_arg "best_of";
  let bare = ref infinity and profiled = ref infinity and telemetry = ref infinity in
  for _ = 1 to n do
    List.iter
      (fun (mode, best) -> best := Float.min !best (replay mode ~horizon trace).drive_s)
      [ (Bare, bare); (Profiled, profiled); (Telemetry, telemetry) ]
  done;
  (!bare, !profiled, !telemetry)

let () =
  let calls = try int_of_string Sys.argv.(1) with _ -> 2000 in
  let repeats = try int_of_string Sys.argv.(2) with _ -> 5 in
  let trace = Workload.make_trace ~calls in
  let n_records = List.length trace in
  let horizon = Workload.horizon ~calls in
  Printf.printf "trace: %d calls, %d records, best of %d\n%!" calls n_records repeats;
  let base_s, prof_s, tel_s = best_of repeats ~horizon trace in
  (* Transparency + breakdown: one fresh run per mode, digests compared at
     the horizon, the profiled run's report and the telemetry run's
     exports kept for the artifacts. *)
  let digest r = Vids.Snapshot.digest ~at:horizon r.engine in
  let bare_digest = digest (replay Bare ~horizon trace) in
  let profiled = replay Profiled ~horizon trace in
  let telemetry = replay Telemetry ~horizon trace in
  let prof_transparent = String.equal bare_digest (digest profiled) in
  let tel_transparent = String.equal bare_digest (digest telemetry) in
  let prof = Option.get profiled.prof in
  let metrics, flight = Option.get telemetry.obs in
  let drive_s = profiled.drive_s in
  Obs.Prof.sample_gc prof;
  let report = Obs.Prof.report_of_snapshot (Obs.Metrics.snapshot (Obs.Prof.registry prof)) in
  let covered_s = Obs.Prof.total_seconds report in
  let coverage = if drive_s > 0. then covered_s /. drive_s else 0. in
  let overhead s = (s -. base_s) /. base_s in
  let within_gate s = s <= (base_s *. 1.05) +. 0.010 in
  let prof_ok = within_gate prof_s and tel_ok = within_gate tel_s in
  let coverage_ok = coverage >= 0.90 in
  let gate_passed = prof_ok && tel_ok && coverage_ok && prof_transparent && tel_transparent in
  let rate s = float_of_int n_records /. s in
  Printf.printf "baseline:  %.3f s (%.0f records/s)\n" base_s (rate base_s);
  Printf.printf "profiled:  %.3f s (%.0f records/s), overhead %+.2f%%\n" prof_s (rate prof_s)
    (100. *. overhead prof_s);
  Printf.printf "telemetry: %.3f s (%.0f records/s), overhead %+.2f%%\n" tel_s (rate tel_s)
    (100. *. overhead tel_s);
  Printf.printf "digest identical with profiling on: %b, with telemetry on: %b\n"
    prof_transparent tel_transparent;
  Printf.printf "span coverage: %.1f%% of %.3f s drive time across %d stages\n"
    (100. *. coverage) drive_s (List.length report);
  Format.printf "%a%!" (Obs.Prof.pp_table ~records:n_records ~total_s:drive_s) report;
  let snap = Obs.Metrics.snapshot metrics in
  let packets_counted = Obs.Metrics.total snap "vids_packets_total" in
  Printf.printf "registry: %d rows, %d packets counted; flight recorder: %d events\n"
    (List.length snap.Obs.Metrics.rows) packets_counted (Obs.Trace.recorded flight);
  Obs.Export.write_metrics ~path:"obs_sample.prom" snap;
  (try Sys.remove "obs_sample_trace.jsonl" with Sys_error _ -> ());
  Obs.Export.append_trace ~reason:"bench end of run" ~path:"obs_sample_trace.jsonl"
    (Obs.Trace.entries flight);
  print_endline "wrote obs_sample.prom, obs_sample_trace.jsonl";
  let live = Bench_common.live_words () in
  let module J = Bench_common.Json in
  Bench_common.write_json ~path:"BENCH_profile.json"
    (J.obj
       [
         ("bench", J.quote "profile");
         ("calls", J.int calls);
         ("records", J.int n_records);
         ("repeats", J.int repeats);
         ("baseline_s", J.float base_s);
         ("profiled_s", J.float prof_s);
         ("overhead_fraction", J.float (overhead prof_s));
         ("baseline_records_per_s", J.float (rate base_s));
         ("profiled_records_per_s", J.float (rate prof_s));
         ("digest_identical", J.bool prof_transparent);
         ("telemetry_s", J.float tel_s);
         ("telemetry_overhead_fraction", J.float (overhead tel_s));
         ("telemetry_records_per_s", J.float (rate tel_s));
         ("telemetry_digest_identical", J.bool tel_transparent);
         ("registry_rows", J.int (List.length snap.Obs.Metrics.rows));
         ("packets_counted", J.int packets_counted);
         ("flight_events", J.int (Obs.Trace.recorded flight));
         ("coverage_fraction", J.float coverage);
         ("live_words", J.int live);
         ("stages", Obs.Prof.report_json ~records:n_records ~total_s:drive_s report);
         ( "gate",
           J.obj
             [
               ("max_overhead_fraction", J.float 0.05);
               ("epsilon_s", J.float 0.010);
               ("min_coverage_fraction", J.float 0.90);
               ("passed", J.bool gate_passed);
             ] );
       ]
    ^ "\n");
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt in
  if not prof_transparent then fail "profiling changed the engine digest";
  if not tel_transparent then fail "telemetry changed the engine digest";
  if not prof_ok then
    fail "profiling overhead %.2f%% exceeds the 5%% gate" (100. *. overhead prof_s);
  if not tel_ok then
    fail "telemetry overhead %.2f%% exceeds the 5%% gate" (100. *. overhead tel_s);
  if not coverage_ok then fail "span coverage %.1f%% below the 90%% gate" (100. *. coverage)
