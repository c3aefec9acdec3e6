(* Deterministic recovery: snapshot + capture replay, audited by the
   journal.

   The convergence contract (held by the property tests and by fixed cuts
   under the default and governed presets): restoring the latest valid
   snapshot and replaying the capture's records timestamped strictly
   after it yields an engine whose canonical digest equals that of a run
   that never crashed.

   The replay notifies every listener, so each alert and each decision
   taken on one is re-derived inside the step that caused it, as live.
   The capture is written ahead of the journal, so the replay re-raises
   every entry the journal holds after the checkpoint marker; one it does
   not is reported by its line, never applied. *)

type outcome = {
  engine : Engine.t;
  sched : Dsim.Scheduler.t;
  snapshot_seq : int;
  snapshot_at : Dsim.Time.t;
  audited : int;
  not_reproduced : (int * Journal.entry) list;
  replayed : int;
}

let kind = function
  | Journal.Alert _ -> `Alert
  | Journal.Eviction _ -> `Eviction
  | Journal.Ext _ -> `Ext
  | Journal.Checkpoint _ -> `Marker

(* Journal entries of kind [k] the replay did not reproduce.  Within a
   kind the journal holds the live run's order; across kinds it does not
   (an alert's newest listener, the enforcer, journals its decision
   first), so each journaled entry is sought, in order, among the
   replayed entries of its kind after the last one matched.  A replayed
   entry past the journal's end is not a finding: a kill can leave
   records in the capture whose alerts never reached the journal. *)
let missing suffix replayed k =
  let rec seek line = function
    | [] -> None
    | l :: rest -> if String.equal l line then Some rest else seek line rest
  in
  let lines =
    List.filter_map
      (fun e -> if kind e = k then Some (Journal.entry_to_line e) else None)
      replayed
  in
  let rec go acc lines = function
    | [] -> acc
    | (n, e) :: rest when kind e = k -> (
        match seek (Journal.entry_to_line e) lines with
        | Some lines -> go acc lines rest
        | None -> go ((n, e) :: acc) lines rest)
    | _ :: rest -> go acc lines rest
  in
  go [] lines suffix

let recover ?config ?prepare ?gate ?(journal = []) ?(trace = []) ?until snapshot =
  let snapshot_at = Snapshot.at snapshot in
  let snapshot_seq = Snapshot.seq snapshot in
  let suffix = Journal.suffix_after ~seq:snapshot_seq ~at:snapshot_at journal in
  let packets =
    List.filter (fun (r : Trace.record) -> Dsim.Time.( > ) r.Trace.at snapshot_at) trace
  in
  match Snapshot.restore ?config snapshot with
  | Error e -> Error e
  | Ok (sched, engine) ->
      (* What the live run journals, collected during the replay only,
         and only of the kinds the suffix holds: after a clean shutdown
         the checkpoint's marker is the journal's last entry, and the
         replay collects nothing. *)
      let kinds =
        List.filter
          (fun k -> List.exists (fun (_, e) -> kind e = k) suffix)
          [ `Alert; `Eviction; `Ext ]
      in
      let replaying = ref true and replayed = ref [] in
      let note entry = if !replaying then replayed := entry :: !replayed in
      if List.mem `Alert kinds then Engine.on_alert engine (fun a -> note (Journal.Alert a));
      if List.mem `Eviction kinds then
        Engine.on_eviction engine (fun ~at ~subject ~detail ->
            note (Journal.Eviction { at; subject; detail }));
      (* The caller's hook, before any packet lands: telemetry re-attaches
         its registry; an enforcement layer rebuilds its state from the
         snapshot's extension records and journals into [journal]. *)
      let journal = if List.mem `Ext kinds then Some note else None in
      Option.iter (fun f -> f ~journal sched engine) prepare;
      Trace.play ?until (Trace.player ?gate sched engine) packets;
      replaying := false;
      let replayed = List.rev !replayed in
      Ok
        {
          engine;
          sched;
          snapshot_seq;
          snapshot_at;
          audited = List.length (List.filter (fun (_, e) -> kind e <> `Marker) suffix);
          not_reproduced =
            List.sort
              (fun (a, _) (b, _) -> Int.compare a b)
              (List.concat_map (missing suffix replayed) kinds);
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

let recover_files ?config ?prepare ?on_snapshot ?gate ?journal_path ?trace_path ?until
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
        | Some p when Sys.file_exists p -> Journal.load_numbered p
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
            (recover ?config ?prepare ?gate ~journal ~trace ?until snapshot))
