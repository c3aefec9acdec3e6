(* The checkpoint step shared by the daemon and every CLI command that
   checkpoints.  Periodic checkpoints ride the virtual clock as
   self-re-arming events: under live pacing the grid tracks wall time
   through the daemon's clock bridge, and under replay it is a
   deterministic grid, so two runs over the same input write the same
   files. *)

type t = {
  sched : Dsim.Scheduler.t;
  engine : Engine.t;
  snapshot_path : string option;
  writer : Journal.writer option;
  tee : (out_channel * Pcap.writer) option;
  counter : Obs.Metrics.counter option;
  seconds : Obs.Metrics.histogram option;
  mutable ext : unit -> (string * string) list;
  mutable seq : int;
}

let flush_tee t = Option.iter (fun (oc, _) -> flush oc) t.tee

(* The tee is flushed before every append: no alert or decision is
   durable ahead of the record that caused it. *)
let journal t entry =
  match t.writer with
  | None -> ()
  | Some w ->
      flush_tee t;
      Journal.append w entry

let create ?record_path ?counter ?snapshot_path ?journal_path sched engine =
  let registry = Engine.metrics_registry engine in
  let writer = Option.map (Journal.create_writer ?registry) journal_path in
  (* The tee's pcap header is on disk before the first record, so a kill
     at any point leaves a capture recovery can read. *)
  let tee =
    Option.map
      (fun p ->
        let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 p in
        let w = Pcap.to_channel oc in
        flush oc;
        (oc, w))
      record_path
  in
  let seconds =
    match (registry, snapshot_path) with
    | Some m, Some _ ->
        Some
          (Obs.Metrics.histogram m "vids_checkpoint_seconds"
             ~help:"Wall-clock duration of one checkpoint (capture, save, journal marker, fsync)")
    | _ -> None
  in
  let t =
    { sched; engine; snapshot_path; writer; tee; counter; seconds; ext = (fun () -> []); seq = 0 }
  in
  if writer <> None then begin
    Engine.on_alert engine (fun a -> journal t (Journal.Alert a));
    Engine.on_eviction engine (fun ~at ~subject ~detail ->
        journal t (Journal.Eviction { at; subject; detail }))
  end;
  t

let tee t = Option.map snd t.tee
let set_ext t ext = t.ext <- ext
let taken t = t.seq

let take t =
  match t.snapshot_path with
  | None -> ()
  | Some path ->
      let prof = Engine.profiler t.engine in
      let enter stage = Option.iter (fun p -> Obs.Prof.enter p stage) prof in
      let exit stage = Option.iter (fun p -> Obs.Prof.exit p stage) prof in
      enter Obs.Prof.Checkpoint;
      let t0 = match t.seconds with None -> 0.0 | Some _ -> Unix.gettimeofday () in
      (* A kill -9 must not leave a snapshot whose replay suffix is still
         sitting in the tee's buffer. *)
      flush_tee t;
      let at = Dsim.Scheduler.now t.sched in
      Snapshot.save ~path (Snapshot.capture ~seq:(t.seq + 1) ~ext:(t.ext ()) ~at t.engine);
      t.seq <- t.seq + 1;
      Option.iter Obs.Metrics.incr t.counter;
      Option.iter
        (fun w ->
          Journal.append w (Journal.Checkpoint { at; seq = t.seq });
          enter Obs.Prof.Journal_fsync;
          Journal.fsync_writer w;
          exit Obs.Prof.Journal_fsync)
        t.writer;
      Option.iter (fun h -> Obs.Metrics.observe h (Unix.gettimeofday () -. t0)) t.seconds;
      Option.iter
        (fun fl -> Obs.Trace.record fl ~at (Obs.Trace.Checkpoint { seq = t.seq }))
        (Engine.flight_recorder t.engine);
      exit Obs.Prof.Checkpoint

let arm t ~every ?until () =
  if t.snapshot_path <> None && Dsim.Time.( > ) every Dsim.Time.zero then begin
    let before_until at =
      match until with None -> true | Some u -> Dsim.Time.( < ) at u
    in
    let rec arm_at at =
      if before_until at then
        ignore
          (Dsim.Scheduler.schedule_at t.sched at (fun () ->
               take t;
               arm_at (Dsim.Time.add at every)))
    in
    arm_at (Dsim.Time.add (Dsim.Scheduler.now t.sched) every)
  end

let close t =
  Option.iter
    (fun (oc, _) ->
      flush oc;
      (try Unix.fsync (Unix.descr_of_out_channel oc)
       with Unix.Unix_error _ | Sys_error _ | Invalid_argument _ -> ());
      close_out_noerr oc)
    t.tee;
  Option.iter Journal.close_writer t.writer
