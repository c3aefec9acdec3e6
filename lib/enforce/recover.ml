(* Enforcement-aware recovery.  See recover.mli for the ordering
   contract each hook discharges. *)

let recover_files ?config ?policy ?journal ?journal_path ?trace_path ?until ~snapshot_path () =
  let enforcer = ref None in
  let stash = ref None in
  let on_snapshot snap = stash := List.assoc_opt Enforcer.ext_tag (Vids.Snapshot.ext snap) in
  let prepare sched engine =
    let e = Enforcer.create ?policy ?journal sched engine in
    (match !stash with
    | None -> ()
    | Some payload ->
        (* The error path is already policy: a fail-closed enforcer locked
           itself down inside [restore]; fail-open starts empty. *)
        (match Enforcer.restore e ~payload with Ok () -> () | Error _ -> ()));
    enforcer := Some e
  in
  let on_ext ~tag ~payload =
    if String.equal tag Enforcer.ext_tag then
      match !enforcer with Some e -> Enforcer.apply_journal e ~payload | None -> ()
  in
  let gate pkt = match !enforcer with Some e -> ignore (Enforcer.ingest e pkt) | None -> () in
  match
    Vids.Recovery.recover_files ?config ~prepare ~on_snapshot ~on_ext ~gate ?journal_path
      ?trace_path ?until ~snapshot_path ()
  with
  | Error e -> Error e
  | Ok report -> (
      match !enforcer with
      | Some e -> Ok (report, e)
      | None -> Error "enforcement recovery: prepare hook never ran")
