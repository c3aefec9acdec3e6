(* Deterministic recovery: snapshot + journal suffix + trace replay.

   The convergence contract (held by the property tests and by fixed cuts
   under the default and governed presets): restoring the latest valid
   snapshot, merging journal entries recorded after its checkpoint marker,
   and replaying the trace records timestamped strictly after it yields an
   engine whose canonical digest equals that of a run that never crashed.

   Journal alerts are merged before the replay, so their dedup keys are
   pending and a replay that re-raises one stays exactly-once.  The
   replay is one [Trace.play] pass over the packets and the journaled
   extension records, so ties at an instant follow [Trace]'s rule as
   they did in the run that never crashed. *)

type outcome = {
  engine : Engine.t;
  sched : Dsim.Scheduler.t;
  snapshot_seq : int;
  snapshot_at : Dsim.Time.t;
  journal_alerts : int;
  journal_evictions : int;
  journal_exts : int;
  replayed : int;
}

let recover ?config ?prepare ?on_ext ?gate ?(journal = []) ?(trace = []) ?until snapshot =
  let snapshot_at = Snapshot.at snapshot in
  let snapshot_seq = Snapshot.seq snapshot in
  let suffix = Journal.suffix_after ~seq:snapshot_seq ~at:snapshot_at journal in
  let alerts = List.filter_map (function Journal.Alert a -> Some a | _ -> None) suffix in
  let evictions =
    List.length (List.filter (function Journal.Eviction _ -> true | _ -> false) suffix)
  in
  let exts =
    List.filter_map
      (function Journal.Ext { at; tag; payload } -> Some (at, tag, payload) | _ -> None)
      suffix
  in
  let packets =
    List.filter (fun (r : Trace.record) -> Dsim.Time.( > ) r.Trace.at snapshot_at) trace
  in
  match Snapshot.restore ?config snapshot with
  | Error e -> Error e
  | Ok (sched, engine) ->
      (* The caller's hook first, before any packet or journal entry
         lands: telemetry re-attaches its registry; an enforcement layer
         rebuilds its state from the snapshot's extension records. *)
      Option.iter (fun f -> f sched engine) prepare;
      List.iter (Engine.merge_journal_alert engine) alerts;
      (* Replayed alerts are claimed and never re-notify listeners, so an
         action taken on one live comes back from the journal, applied
         when the pass reaches its instant. *)
      let decisions =
        match on_ext with
        | None -> []
        | Some f -> List.map (fun (at, tag, payload) -> (at, fun () -> f ~tag ~payload)) exts
      in
      Trace.play ~decisions ?until (Trace.player ?gate sched engine) packets;
      Ok
        {
          engine;
          sched;
          snapshot_seq;
          snapshot_at;
          journal_alerts = List.length alerts;
          journal_evictions = evictions;
          journal_exts = List.length exts;
          replayed = List.length packets;
        }

(* --------------------------------------------------------------- *)
(* From files                                                       *)
(* --------------------------------------------------------------- *)

type file_report = {
  outcome : outcome;
  snapshot_path : string;  (** The snapshot actually used. *)
  used_fallback : bool;  (** True when the primary was rejected and [path.1] used. *)
  rejected : (string * string) list;  (** Snapshots rejected before one loaded, with reasons. *)
  journal_skipped : (int * string) list;
  trace_skipped : (int * string) list;
}

let load_with_fallback path =
  match Snapshot.load path with
  | Ok snap -> Ok (snap, path, false, [])
  | Error primary_err -> (
      let fallback = Snapshot.previous_path path in
      if not (Sys.file_exists fallback) then Error [ (path, primary_err) ]
      else
        match Snapshot.load fallback with
        | Ok snap -> Ok (snap, fallback, true, [ (path, primary_err) ])
        | Error fallback_err -> Error [ (path, primary_err); (fallback, fallback_err) ])

let recover_files ?config ?prepare ?on_snapshot ?on_ext ?gate ?journal_path ?trace_path ?until
    ~snapshot_path () =
  match load_with_fallback snapshot_path with
  | Error rejected ->
      Error
        (String.concat "; "
           (List.map (fun (p, e) -> Printf.sprintf "%s: %s" p e) rejected))
  | Ok (snapshot, used_path, used_fallback, rejected) -> (
      (match on_snapshot with None -> () | Some f -> f snapshot);
      let journal =
        match journal_path with
        | Some p when Sys.file_exists p -> Journal.load p
        | _ -> Ok ([], [])
      in
      let trace =
        match trace_path with
        | Some p when Sys.file_exists p ->
            Result.map (fun (records, skipped, _) -> (records, skipped)) (Pcap.read_file p)
        | _ -> Ok ([], [])
      in
      match (journal, trace) with
      | Error e, _ | _, Error e -> Error e
      | Ok (journal, journal_skipped), Ok (trace, trace_skipped) ->
          Result.map
            (fun outcome ->
              {
                outcome;
                snapshot_path = used_path;
                used_fallback;
                rejected;
                journal_skipped;
                trace_skipped;
              })
            (recover ?config ?prepare ?on_ext ?gate ~journal ~trace ?until snapshot))
