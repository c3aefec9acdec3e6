(* The live-ingestion daemon: one loop from the wire to the engine.

   Each record is dispatched through [Vids.Trace.step], the step every
   offline replay and recovery goes through, which is why a live run's
   digest converges with an offline replay of its own capture file. *)

type source =
  | Pcap_file of { path : string; pace : bool }
  | Udp of Udp_source.t

type config = {
  engine_config : Vids.Config.t option;
  spec_overrides : (string * Efsm.Machine.spec) list;
  queue_capacity : int;
  queue_high_water : int option;
  checkpoint_every_s : float;
  snapshot_path : string option;
  journal_path : string option;
  record_path : string option;
  max_runtime_s : float option;
  batch : int;
  poll_interval_s : float;
  enforce : Enforce.Enforcer.policy option;
}

let default =
  {
    engine_config = None;
    spec_overrides = [];
    queue_capacity = 4096;
    queue_high_water = None;
    checkpoint_every_s = 5.0;
    snapshot_path = None;
    journal_path = None;
    record_path = None;
    max_runtime_s = None;
    batch = 256;
    poll_interval_s = 0.01;
    enforce = None;
  }

type stop_reason = Eof | Signalled | Deadline | Source_dead | Killed

type report = {
  stop_reason : stop_reason;
  dispatched : int;
  parse_errors : int;
  checkpoints : int;
  queue : Shed_queue.stats;
  pcap : (string * Vids.Pcap.stats) list;
  udp : Udp_source.stats list;
  dispatch : Dsim.Stat.Quantiles.t;
  horizon : Dsim.Time.t;
  engine : Vids.Engine.t;
  sched : Dsim.Scheduler.t;
  enforcer : Enforce.Enforcer.t option;
}

(* A capture file being streamed.  [base] is the first record's absolute
   capture timestamp; every record is rebased to [at - base] so the
   virtual clock starts at zero regardless of when the capture was
   taken. *)
type pcap_state = {
  p_path : string;
  p_pace : bool;
  p_ic : in_channel;
  p_reader : Vids.Pcap.reader;
  mutable p_base : Dsim.Time.t option;
  mutable p_eof : bool;
}

type src_state = S_pcap of pcap_state | S_udp of Udp_source.t

let run ?clock ?metrics ?flight ?prof ?stop ?hard_kill ?on_batch config sources =
  let clock = match clock with Some c -> c | None -> Clock.system () in
  let penter s = match prof with None -> () | Some p -> Obs.Prof.enter p s in
  let pexit s = match prof with None -> () | Some p -> Obs.Prof.exit p s in
  let stop = match stop with Some r -> r | None -> ref false in
  let hard_kill = match hard_kill with Some r -> r | None -> ref false in
  if sources = [] then Error "no sources"
  else begin
    (* Open every capture file before touching the engine, so a bad path
       is a startup error, not a half-started daemon. *)
    let opened =
      List.fold_left
        (fun acc src ->
          match acc with
          | Error _ as e -> e
          | Ok states -> (
              match src with
              | Udp u -> Ok (S_udp u :: states)
              | Pcap_file { path; pace } -> (
                  match open_in_bin path with
                  | exception Sys_error e -> Error e
                  | ic -> (
                      match Vids.Pcap.of_channel ic with
                      | Error e ->
                          close_in_noerr ic;
                          Error (path ^ ": " ^ e)
                      | Ok reader ->
                          Ok
                            (S_pcap
                               {
                                 p_path = path;
                                 p_pace = pace;
                                 p_ic = ic;
                                 p_reader = reader;
                                 p_base = None;
                                 p_eof = false;
                               }
                            :: states)))))
        (Ok []) sources
    in
    match opened with
    | Error e -> Error e
    | Ok rev_states ->
        let states = List.rev rev_states in
        let sched = Dsim.Scheduler.create () in
        let engine =
          match config.engine_config with
          | Some c -> Vids.Engine.create ~config:c ~overrides:config.spec_overrides sched
          | None -> Vids.Engine.create ~overrides:config.spec_overrides sched
        in
        Vids.Engine.set_telemetry engine ?metrics ?flight ();
        Vids.Engine.set_profiler engine prof;
        let ctr name help =
          Option.map (fun m -> Obs.Metrics.counter m name ~help) metrics
        in
        let ck =
          Vids.Checkpoint.create ?record_path:config.record_path
            ?counter:(ctr "vids_ingest_checkpoints_total" "Checkpoints saved by the daemon")
            ?snapshot_path:config.snapshot_path ?journal_path:config.journal_path sched engine
        in
        let tee = Vids.Checkpoint.tee ck in
        (* Prevention mode: the gate sits between the queue and the
           engine, its decisions are journaled write-ahead through the
           same writer as alerts, and the block table (with live
           token-bucket levels) rides in every checkpoint, so a kill -9
           recovers into the same enforcement state. *)
        let enforcer =
          Option.map
            (fun policy ->
              let e =
                Enforce.Enforcer.create ~policy ~journal:(Vids.Checkpoint.journal ck) sched
                  engine
              in
              Vids.Checkpoint.set_ext ck (fun () -> Enforce.Enforcer.ext e);
              e)
            config.enforce
        in
        let queue =
          Shed_queue.create ?high_water:config.queue_high_water
            ~capacity:config.queue_capacity ()
        in
        let packets_c = ctr "vids_ingest_packets_total" "Records dispatched to the engine" in
        let shed_c = ctr "vids_ingest_shed_total" "Records refused or displaced by the ingest queue" in
        let dispatch_h =
          Option.map
            (fun m ->
              Obs.Metrics.histogram m "vids_ingest_dispatch_seconds"
                ~help:"Wall-clock seconds per record dispatch")
            metrics
        in
        let tick c = Option.iter Obs.Metrics.incr c in
        let note action detail =
          Option.iter
            (fun fl ->
              Obs.Trace.record fl ~at:(Dsim.Scheduler.now sched)
                (Obs.Trace.Ingest { action; detail }))
            flight
        in
        let wall0 = clock.Clock.now () in
        let vat now_s = Dsim.Time.of_sec (now_s -. wall0) in
        let quantiles = Dsim.Stat.Quantiles.create () in
        let player =
          Vids.Trace.player sched engine
            ?gate:
              (Option.map
                 (fun e pkt ->
                   (* The gate's own verdict cost; the engine spans it
                      forwards into nest underneath as children. *)
                   penter Obs.Prof.Enforce_gate;
                   ignore (Enforce.Enforcer.ingest e pkt);
                   pexit Obs.Prof.Enforce_gate)
                 enforcer)
        in
        let dispatched = ref 0 in
        Vids.Checkpoint.arm ck ~every:(Dsim.Time.of_sec config.checkpoint_every_s) ();
        let dispatch r =
          penter Obs.Prof.Drive;
          (* Into the tee before the step, so before any alert or decision
             it causes reaches the journal.  A wall-timestamped datagram
             can land behind a capture that raced ahead of real time; the
             tee records the instant the step delivers it at. *)
          (match tee with None -> () | Some w -> Vids.Pcap.write w (Vids.Trace.stamp player r));
          let t0 = Unix.gettimeofday () in
          Vids.Trace.step player r;
          let dt = Unix.gettimeofday () -. t0 in
          Dsim.Stat.Quantiles.add quantiles dt;
          (match dispatch_h with None -> () | Some h -> Obs.Metrics.observe h dt);
          incr dispatched;
          tick packets_c;
          pexit Obs.Prof.Drive
        in
        let push r =
          match Shed_queue.push queue r with
          | Shed_queue.Enqueued -> ()
          | Shed_queue.Shed_media | Shed_queue.Displaced_oldest -> tick shed_c
        in
        (* Pull up to [batch] frames from one source into the queue,
           returning how many frames were consumed (decoded or not — a
           skipped frame is progress too, or a garbage capture would spin
           the loop forever). *)
        let poll_source st =
          match st with
          | S_pcap p when p.p_eof -> 0
          | S_pcap p ->
              let consumed = ref 0 in
              let continue = ref true in
              while !continue && !consumed < config.batch && not !stop && not !hard_kill do
                match Vids.Pcap.next p.p_reader with
                | None ->
                    p.p_eof <- true;
                    close_in_noerr p.p_ic;
                    continue := false
                | Some (Vids.Pcap.Skipped _) -> incr consumed
                | Some (Vids.Pcap.Record r) ->
                    incr consumed;
                    let base =
                      match p.p_base with
                      | Some b -> b
                      | None ->
                          p.p_base <- Some r.Vids.Trace.at;
                          r.Vids.Trace.at
                    in
                    let at = Dsim.Time.sub r.Vids.Trace.at base in
                    if p.p_pace then begin
                      let target = wall0 +. Dsim.Time.to_sec at in
                      let now_s = clock.Clock.now () in
                      if target > now_s then clock.Clock.sleep (target -. now_s)
                    end;
                    (* The identity for a capture that starts at 0. *)
                    push (if at = r.Vids.Trace.at then r else { r with Vids.Trace.at = at })
              done;
              !consumed
          | S_udp u ->
              let before_alive = Udp_source.alive u in
              let ds = Udp_source.recv_batch u ~clock ~max:config.batch in
              if before_alive && not (Udp_source.alive u) then
                note "source_dead" (Dsim.Addr.to_string (Udp_source.local_addr u));
              List.iter
                (fun { Udp_source.src; payload } ->
                  push
                    {
                      Vids.Trace.at = vat (clock.Clock.now ());
                      src;
                      dst = Udp_source.local_addr u;
                      payload;
                    })
                ds;
              List.length ds
        in
        let drain limit =
          let n = ref 0 in
          let continue = ref true in
          while !continue && !n < limit && not !hard_kill do
            match Shed_queue.pop queue with
            | None -> continue := false
            | Some r ->
                dispatch r;
                incr n
          done;
          !n
        in
        let source_live = function
          | S_pcap p -> not p.p_eof
          | S_udp u -> Udp_source.alive u
        in
        let deadline_hit () =
          match config.max_runtime_s with
          | None -> false
          | Some limit -> clock.Clock.now () -. wall0 >= limit
        in
        let reason = ref None in
        while !reason = None do
          if !hard_kill then reason := Some Killed
          else if !stop then reason := Some Signalled
          else if deadline_hit () then reason := Some Deadline
          else begin
            let produced =
              List.fold_left
                (fun acc st ->
                  penter Obs.Prof.Ingest_poll;
                  let n = poll_source st in
                  pexit Obs.Prof.Ingest_poll;
                  acc + n)
                0 states
            in
            let consumed = drain config.batch in
            Option.iter (fun f -> f ()) on_batch;
            if (not (List.exists source_live states)) && Shed_queue.length queue = 0
            then
              reason :=
                Some
                  (if
                     List.exists
                       (function
                         | S_udp u -> (Udp_source.stats u).Udp_source.gave_up
                         | S_pcap _ -> false)
                       states
                   then Source_dead
                   else Eof)
            else if produced = 0 && consumed = 0 then begin
              (* Idle: keep the virtual clock tracking the wall so call
                 timers (flood windows, BYE grace) fire even in silence,
                 then nap.  [advance_to] ignores targets in the past, so
                 an unpaced capture that raced ahead is left alone. *)
              Dsim.Scheduler.advance_to sched (vat (clock.Clock.now ()));
              clock.Clock.sleep config.poll_interval_s
            end
          end
        done;
        let reason = Option.get !reason in
        let graceful = reason <> Killed in
        if graceful then begin
          (* Drain what is already queued (a hard kill arriving mid-drain
             still aborts), then make the shutdown durable. *)
          ignore (drain max_int);
          (* A step runs timers strictly before its packet, so a timer
             due exactly at the last packet's instant is still pending
             here; fire it, or the final state disagrees with an offline
             [replay_until] of the same capture at this horizon. *)
          Dsim.Scheduler.run_until sched (Dsim.Scheduler.now sched);
          note "shutdown"
            (match reason with
            | Eof -> "eof"
            | Signalled -> "signal"
            | Deadline -> "deadline"
            | Source_dead -> "source_dead"
            | Killed -> assert false);
          Vids.Checkpoint.take ck;
          Vids.Checkpoint.close ck;
          List.iter (function S_udp u -> Udp_source.close u | S_pcap _ -> ()) states;
          Option.iter (fun fl -> ignore (Obs.Trace.dump fl ~reason:"daemon shutdown")) flight
        end;
        Ok
          {
            stop_reason = reason;
            dispatched = !dispatched;
            parse_errors = Vids.Engine.malformed_packets engine;
            checkpoints = Vids.Checkpoint.taken ck;
            queue = Shed_queue.stats queue;
            pcap =
              List.filter_map
                (function
                  | S_pcap p -> Some (p.p_path, Vids.Pcap.stats p.p_reader)
                  | S_udp _ -> None)
                states;
            udp =
              List.filter_map
                (function S_udp u -> Some (Udp_source.stats u) | S_pcap _ -> None)
                states;
            dispatch = quantiles;
            horizon = Dsim.Scheduler.now sched;
            engine;
            sched;
            enforcer;
          }
  end
