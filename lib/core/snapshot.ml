(* Versioned, checksummed snapshots of the full engine state.

   A snapshot captures everything the sensor would lose to process death:
   per-call EFSM systems (current states, variable vectors, queued sync
   events, armed timers), standalone detector machines, the fact base's
   aggregate counters and eviction order, the engine's counters and cost
   model, the alert log, and recovery history.  The text format is
   line-oriented with hex-armored strings, a version header, and a trailing
   CRC-32 + length so truncation and corruption are detected — a damaged
   snapshot is rejected with a diagnostic, never applied partially.

   Serialization is canonical: records are emitted in creation order (which
   is deterministic for a given packet stream) and bindings sorted by name,
   so two engines that analyzed the same traffic produce byte-identical
   snapshots.  [digest] builds on that to measure post-recovery divergence:
   it must be zero. *)

let ( let* ) = Result.bind

let magic = "VIDS-SNAPSHOT"
let version = 1

type machine_snap = {
  m_name : string;
  m_state : string;
  m_vars : (string * Efsm.Value.t) list;
  m_hist : Dsim.Time.t array * string array; (* times and labels, oldest first *)
}

type system_snap = {
  s_globals : (string * Efsm.Value.t) list;
  s_syncs : (string * Efsm.Event.t) list; (* FIFO order *)
  s_timers : (string * string * Dsim.Time.t) list; (* machine, id, fire at *)
  s_machines : machine_snap list;
}

type call_snap = {
  c_id : string;
  c_created : Dsim.Time.t;
  c_closing : bool;
  c_finish : bool;
  c_delete_at : Dsim.Time.t option;
  c_recheck_at : Dsim.Time.t option;
  c_media : Dsim.Addr.t list; (* sorted *)
  c_system : system_snap;
}

type detector_snap = {
  d_kind : Fact_base.detector_kind;
  d_key : string;
  d_created : Dsim.Time.t;
  d_touched : Dsim.Time.t;
  d_system : system_snap;
}

type fb_snap = {
  fb_peak : int;
  fb_created : int;
  fb_deleted : int;
  fb_calls_evicted : int;
  fb_detectors_evicted : int;
  fb_swept : int;
  fb_dswept : int;
  fb_sweep_at : Dsim.Time.t option;
}

type t = {
  seq : int;
  at : Dsim.Time.t;
  engine : Engine.Persist.dump;
  fb : fb_snap;
  calls : call_snap list; (* creation order *)
  detectors : detector_snap list; (* creation order *)
  ext : (string * string) list;
      (* Uninterpreted (tag, payload) records for subsystems layered on top
         of the engine (e.g. enforcement rules): carried in the checkpoint
         and its CRC, ignored by [restore], surfaced through [ext] for the
         owning subsystem to re-apply.  Serialization order is the given
         order. *)
}

let seq t = t.seq
let at t = t.at
let ext t = t.ext

(* --------------------------------------------------------------- *)
(* Capture                                                          *)
(* --------------------------------------------------------------- *)

let snap_machine m =
  {
    m_name = Efsm.Machine.name m;
    m_state = Efsm.Machine.state m;
    m_vars = Efsm.Env.local_bindings (Efsm.Machine.env m);
    m_hist = Efsm.Machine.history m;
  }

let snap_system sys machines =
  {
    s_globals = Efsm.Env.globals_bindings (Efsm.System.globals sys);
    s_syncs = Efsm.System.pending_sync sys;
    s_timers = Efsm.System.pending_timers sys;
    s_machines = List.map snap_machine machines;
  }

let alert_order (a : Alert.t) (b : Alert.t) =
  compare
    (Dsim.Time.to_us a.Alert.at, Alert.kind_to_string a.Alert.kind, a.Alert.subject, a.Alert.detail)
    (Dsim.Time.to_us b.Alert.at, Alert.kind_to_string b.Alert.kind, b.Alert.subject, b.Alert.detail)

let capture ?(seq = 0) ?(ext = []) ~at engine =
  let base = Engine.fact_base engine in
  let stats = Fact_base.stats base in
  let dump = Engine.Persist.dump engine in
  (* Alerts raised at the same instant may be logged in an order that
     depends on timer-queue internals; sort for a canonical form. *)
  let dump =
    { dump with Engine.Persist.p_alerts = List.stable_sort alert_order dump.Engine.Persist.p_alerts }
  in
  {
    seq;
    at;
    engine = dump;
    fb =
      {
        fb_peak = stats.Fact_base.peak_calls;
        fb_created = stats.Fact_base.calls_created;
        fb_deleted = stats.Fact_base.calls_deleted;
        fb_calls_evicted = stats.Fact_base.calls_evicted;
        fb_detectors_evicted = stats.Fact_base.detectors_evicted;
        fb_swept = stats.Fact_base.calls_swept;
        fb_dswept = stats.Fact_base.detectors_swept;
        fb_sweep_at = Fact_base.next_sweep_at base;
      };
    calls =
      List.map
        (fun (call : Fact_base.call) ->
          {
            c_id = call.Fact_base.call_id;
            c_created = call.Fact_base.created_at;
            c_closing = call.Fact_base.closing;
            c_finish = call.Fact_base.finish_pending;
            c_delete_at = call.Fact_base.delete_at;
            c_recheck_at = call.Fact_base.recheck_at;
            c_media = List.sort Dsim.Addr.compare call.Fact_base.media_addrs;
            c_system =
              snap_system call.Fact_base.system [ call.Fact_base.sip; call.Fact_base.rtp ];
          })
        (Fact_base.calls_in_creation_order base);
    detectors =
      List.map
        (fun (kind, key, (d : Fact_base.detector)) ->
          {
            d_kind = kind;
            d_key = key;
            d_created = d.d_created;
            d_touched = d.d_touched;
            d_system = snap_system d.d_system [ d.d_machine ];
          })
        (Fact_base.detectors_in_creation_order base);
    ext;
  }

(* --------------------------------------------------------------- *)
(* Serialization                                                    *)
(* --------------------------------------------------------------- *)

(* Every record is appended straight into a buffer, and no field builds
   a string of its own: a checkpoint of a few thousand open calls is
   megabytes of text, and the daemon's dispatch loop stalls while it is
   written.  Each field appender writes the separating space before its
   field. *)

let us = Dsim.Time.to_us
let word buf s = Buffer.add_char buf ' '; Buffer.add_string buf s
let int buf n = Buffer.add_char buf ' '; Codec.add_int buf n
let time buf t = int buf (us t)
let flag buf b = word buf (if b then "1" else "0")
let opt_time buf t = Buffer.add_char buf ' '; Codec.add_opt_time buf t
let hex buf s = Buffer.add_char buf ' '; Codec.add_hex buf s
let token buf v = Buffer.add_char buf ' '; Efsm.Value.add_token buf v
let eol buf = Buffer.add_char buf '\n'

let add_system buf ss =
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf "G";
      hex buf k;
      token buf v;
      eol buf)
    ss.s_globals;
  List.iter
    (fun (target, event) ->
      Buffer.add_string buf "Y";
      hex buf target;
      Buffer.add_char buf ' ';
      Codec.add_event buf event;
      eol buf)
    ss.s_syncs;
  List.iter
    (fun (machine, id, fire_at) ->
      Buffer.add_string buf "R";
      hex buf machine;
      hex buf id;
      time buf fire_at;
      eol buf)
    ss.s_timers;
  List.iter
    (fun ms ->
      Buffer.add_string buf "M";
      hex buf ms.m_name;
      hex buf ms.m_state;
      eol buf;
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf "V";
          hex buf k;
          token buf v;
          eol buf)
        ms.m_vars;
      let ats, labels = ms.m_hist in
      Array.iteri
        (fun i at ->
          Buffer.add_string buf "H";
          time buf at;
          hex buf labels.(i);
          eol buf)
        ats)
    ss.s_machines

(* [flush buf] runs after each alert, call, detector and extension
   record; {!save} uses it to stream the body out. *)
let add_body buf t ~flush =
  let p = t.engine in
  let c = p.Engine.Persist.p_counters in
  Buffer.add_string buf "EC";
  (* The 14th field counted the stalls of a feed queue that no longer
     exists; it is written as 0 because every engine digest hashes this
     line. *)
  List.iter (int buf)
    [
      c.Engine.sip_packets; c.Engine.rtp_packets; c.Engine.rtcp_packets; c.Engine.other_packets;
      c.Engine.malformed_packets; c.Engine.orphan_requests; c.Engine.orphan_responses;
      c.Engine.alerts_raised; c.Engine.alerts_suppressed; c.Engine.anomalies; c.Engine.faults;
      p.Engine.Persist.p_injects; c.Engine.rtp_shed; 0;
    ];
  eol buf;
  Buffer.add_string buf "ET";
  time buf p.Engine.Persist.p_busy;
  time buf p.Engine.Persist.p_inline_free_at;
  eol buf;
  Option.iter
    (fun since ->
      Buffer.add_string buf "ED";
      time buf since;
      eol buf)
    p.Engine.Persist.p_degraded_since;
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf "EL";
      time buf a;
      time buf b;
      eol buf)
    p.Engine.Persist.p_degraded_log;
  List.iter
    (fun alert ->
      Buffer.add_string buf "EA ";
      Codec.add_alert buf alert;
      eol buf;
      flush buf)
    p.Engine.Persist.p_alerts;
  Buffer.add_string buf "FB";
  List.iter (int buf)
    [
      t.fb.fb_peak; t.fb.fb_created; t.fb.fb_deleted; t.fb.fb_calls_evicted;
      t.fb.fb_detectors_evicted; t.fb.fb_swept; t.fb.fb_dswept;
    ];
  opt_time buf t.fb.fb_sweep_at;
  eol buf;
  List.iter
    (fun cs ->
      Buffer.add_string buf "CALL";
      hex buf cs.c_id;
      time buf cs.c_created;
      flag buf cs.c_closing;
      flag buf cs.c_finish;
      opt_time buf cs.c_delete_at;
      opt_time buf cs.c_recheck_at;
      eol buf;
      List.iter
        (fun addr ->
          Buffer.add_string buf "CM";
          token buf (Efsm.Value.Addr (Dsim.Addr.host addr, Dsim.Addr.port addr));
          eol buf)
        cs.c_media;
      add_system buf cs.c_system;
      flush buf)
    t.calls;
  List.iter
    (fun ds ->
      Buffer.add_string buf "DET";
      word buf (Fact_base.kind_label ds.d_kind);
      hex buf ds.d_key;
      time buf ds.d_created;
      time buf ds.d_touched;
      eol buf;
      add_system buf ds.d_system;
      flush buf)
    t.detectors;
  List.iter
    (fun (tag, payload) ->
      Buffer.add_string buf "X";
      hex buf tag;
      hex buf payload;
      eol buf;
      flush buf)
    t.ext

(* The file is a header line, the body, and a trailer line carrying the
   body's CRC-32 and length. *)
let header t = Printf.sprintf "%s %d %d %d\n" magic version t.seq (us t.at)
let trailer ~crc ~len = Printf.sprintf "END %08x %d\n" crc len

let to_string t =
  let buf = Buffer.create 65536 in
  add_body buf t ~flush:ignore;
  let body = Buffer.contents buf in
  String.concat "" [ header t; body; trailer ~crc:(Codec.crc32 body) ~len:(String.length body) ]

(* --------------------------------------------------------------- *)
(* Parsing                                                          *)
(* --------------------------------------------------------------- *)

type machine_builder = {
  mb_name : string;
  mb_state : string;
  mutable mb_vars : (string * Efsm.Value.t) list; (* reversed *)
  mutable mb_at : Dsim.Time.t list; (* reversed *)
  mutable mb_labels : string list; (* reversed *)
}

type system_builder = {
  mutable sb_globals : (string * Efsm.Value.t) list; (* reversed *)
  mutable sb_syncs : (string * Efsm.Event.t) list; (* reversed *)
  mutable sb_timers : (string * string * Dsim.Time.t) list; (* reversed *)
  mutable sb_machines : machine_builder list; (* reversed *)
}

let new_system_builder () = { sb_globals = []; sb_syncs = []; sb_timers = []; sb_machines = [] }

(* [Array.of_list (List.rev l)], without the reversed list. *)
let array_of_rev = function
  | [] -> [||]
  | x :: _ as l ->
      let n = List.length l in
      let a = Array.make n x in
      List.iteri (fun i v -> a.(n - 1 - i) <- v) l;
      a

let finish_machine mb =
  {
    m_name = mb.mb_name;
    m_state = mb.mb_state;
    m_vars = List.rev mb.mb_vars;
    m_hist = (array_of_rev mb.mb_at, array_of_rev mb.mb_labels);
  }

let finish_system sb =
  {
    s_globals = List.rev sb.sb_globals;
    s_syncs = List.rev sb.sb_syncs;
    s_timers = List.rev sb.sb_timers;
    s_machines = List.rev_map finish_machine sb.sb_machines;
  }

type block =
  | Top
  | In_call of call_snap * system_builder (* c_system placeholder; media reversed in c_media *)
  | In_det of detector_snap * system_builder

(* Parses the body [text.[off] .. text.[off + len - 1]] line by line in
   place; blank lines are skipped and not counted. *)
let of_body text ~off ~len =
  let counters = ref None in
  let times = ref None in
  let degraded_since = ref None in
  let degraded_log = ref [] in
  let alerts = ref [] in
  let fb = ref None in
  let calls = ref [] in
  let detectors = ref [] in
  let exts = ref [] in
  let block = ref Top in
  let finish_block () =
    match !block with
    | Top -> ()
    | In_call (cs, sb) ->
        calls :=
          { cs with c_media = List.rev cs.c_media; c_system = finish_system sb } :: !calls
    | In_det (ds, sb) -> detectors := { ds with d_system = finish_system sb } :: !detectors
  in
  let current_system () =
    match !block with
    | Top -> Error "record outside a CALL/DET block"
    | In_call (_, sb) | In_det (_, sb) -> Ok sb
  in
  let current_machine () =
    let* sb = current_system () in
    match sb.sb_machines with
    | [] -> Error "V/H record before any M record"
    | mb :: _ -> Ok mb
  in
  let parse_fb ~peak ~created ~deleted ~evicted ~devicted ~swept ~dswept ~sweep =
    let* peak = Codec.int_tok peak in
    let* created = Codec.int_tok created in
    let* deleted = Codec.int_tok deleted in
    let* evicted = Codec.int_tok evicted in
    let* devicted = Codec.int_tok devicted in
    let* swept = Codec.int_tok swept in
    let* dswept = Codec.int_tok dswept in
    let* sweep_at = Codec.opt_time_tok sweep in
    fb :=
      Some
        {
          fb_peak = peak;
          fb_created = created;
          fb_deleted = deleted;
          fb_calls_evicted = evicted;
          fb_detectors_evicted = devicted;
          fb_swept = swept;
          fb_dswept = dswept;
          fb_sweep_at = sweep_at;
        };
    Ok ()
  in
  let parse_det ~label ~key_hex ~created ~touched =
    let* d_kind =
      match Fact_base.kind_of_label label with
      | Some k -> Ok k
      | None -> Error ("unknown detector kind " ^ label)
    in
    let* d_key = Codec.unhex key_hex in
    let* d_created = Codec.time_tok created in
    let* d_touched = Codec.time_tok touched in
    finish_block ();
    block :=
      In_det
        ( { d_kind; d_key; d_created; d_touched; d_system = finish_system (new_system_builder ()) },
          new_system_builder () );
    Ok ()
  in
  let parse_line line =
    match String.split_on_char ' ' line with
    | [] | [ "" ] -> Ok ()
    | "EC" :: toks -> (
        (* 13 fields through format version 1's first shape; a 14th, now
           always 0, was appended later.  Read both. *)
        match List.map int_of_string_opt toks with
        | Some sip :: Some rtp :: Some rtcp :: Some other :: Some malformed :: Some oreq
          :: Some oresp :: Some raised :: Some suppressed :: Some anomalies :: Some faults
          :: Some injects :: Some shed :: ([] | [ Some _ ]) ->
            counters :=
              Some
                ( {
                    Engine.sip_packets = sip;
                    rtp_packets = rtp;
                    rtcp_packets = rtcp;
                    other_packets = other;
                    malformed_packets = malformed;
                    orphan_requests = oreq;
                    orphan_responses = oresp;
                    alerts_raised = raised;
                    alerts_suppressed = suppressed;
                    anomalies;
                    faults;
                    rtp_shed = shed;
                  },
                  injects );
            Ok ()
        | _ -> Error "malformed EC record")
    | [ "ET"; busy; free ] ->
        let* busy = Codec.time_tok busy in
        let* free = Codec.time_tok free in
        times := Some (busy, free);
        Ok ()
    | [ "ED"; since ] ->
        let* since = Codec.time_tok since in
        degraded_since := Some since;
        Ok ()
    | [ "EL"; a; b ] ->
        let* a = Codec.time_tok a in
        let* b = Codec.time_tok b in
        degraded_log := (a, b) :: !degraded_log;
        Ok ()
    | "EA" :: toks ->
        let* alert = Codec.alert_of_tokens toks in
        alerts := alert :: !alerts;
        Ok ()
    (* 7 operands through version 1's first shape; detectors_swept was
       appended later.  Read both: the missing field is zero. *)
    | [ "FB"; peak; created; deleted; evicted; devicted; swept; sweep ] ->
        parse_fb ~peak ~created ~deleted ~evicted ~devicted ~swept ~dswept:"0" ~sweep
    | [ "FB"; peak; created; deleted; evicted; devicted; swept; dswept; sweep ] ->
        parse_fb ~peak ~created ~deleted ~evicted ~devicted ~swept ~dswept ~sweep
    | [ "CALL"; id_hex; created; closing; finish; delete_at; recheck_at ] ->
        let* c_id = Codec.unhex id_hex in
        let* c_created = Codec.time_tok created in
        let* c_delete_at = Codec.opt_time_tok delete_at in
        let* c_recheck_at = Codec.opt_time_tok recheck_at in
        let* c_closing =
          match closing with "0" -> Ok false | "1" -> Ok true | _ -> Error "bad closing flag"
        in
        let* c_finish =
          match finish with "0" -> Ok false | "1" -> Ok true | _ -> Error "bad finish flag"
        in
        finish_block ();
        block :=
          In_call
            ( {
                c_id;
                c_created;
                c_closing;
                c_finish;
                c_delete_at;
                c_recheck_at;
                c_media = [];
                c_system = finish_system (new_system_builder ());
              },
              new_system_builder () );
        Ok ()
    (* The trailing last-touched time was appended within version 1; an
       older 3-operand line means the detector was last touched when it
       was created. *)
    | [ "DET"; label; key_hex; created ] -> parse_det ~label ~key_hex ~created ~touched:created
    | [ "DET"; label; key_hex; created; touched ] -> parse_det ~label ~key_hex ~created ~touched
    | [ "CM"; addr_tok ] -> (
        match !block with
        | In_call (cs, sb) -> (
            let* v = Efsm.Value.of_token addr_tok in
            match v with
            | Efsm.Value.Addr (host, port) ->
                block := In_call ({ cs with c_media = Dsim.Addr.v host port :: cs.c_media }, sb);
                Ok ()
            | _ -> Error "CM record is not an address")
        | In_det _ | Top -> Error "CM record outside a CALL block")
    | [ "G"; k_hex; v_tok ] ->
        let* sb = current_system () in
        let* k = Codec.unhex k_hex in
        let* v = Efsm.Value.of_token v_tok in
        sb.sb_globals <- (k, v) :: sb.sb_globals;
        Ok ()
    | "Y" :: target_hex :: event_toks ->
        let* sb = current_system () in
        let* target = Codec.unhex target_hex in
        let* event, rest = Codec.event_of_tokens event_toks in
        if rest <> [] then Error "trailing tokens after sync event"
        else begin
          sb.sb_syncs <- (target, event) :: sb.sb_syncs;
          Ok ()
        end
    | [ "R"; machine_hex; id_hex; fire_at ] ->
        let* sb = current_system () in
        let* machine = Codec.unhex machine_hex in
        let* id = Codec.unhex id_hex in
        let* fire_at = Codec.time_tok fire_at in
        sb.sb_timers <- (machine, id, fire_at) :: sb.sb_timers;
        Ok ()
    | [ "M"; name_hex; state_hex ] ->
        let* sb = current_system () in
        let* mb_name = Codec.unhex name_hex in
        let* mb_state = Codec.unhex state_hex in
        sb.sb_machines <-
          { mb_name; mb_state; mb_vars = []; mb_at = []; mb_labels = [] } :: sb.sb_machines;
        Ok ()
    | [ "V"; k_hex; v_tok ] ->
        let* mb = current_machine () in
        let* k = Codec.unhex k_hex in
        let* v = Efsm.Value.of_token v_tok in
        mb.mb_vars <- (k, v) :: mb.mb_vars;
        Ok ()
    | [ "H"; at; label_hex ] ->
        let* mb = current_machine () in
        let* at = Codec.time_tok at in
        let* label = Codec.unhex label_hex in
        mb.mb_at <- at :: mb.mb_at;
        mb.mb_labels <- label :: mb.mb_labels;
        Ok ()
    | [ "X"; tag_hex; payload_hex ] ->
        let* tag = Codec.unhex tag_hex in
        let* payload = Codec.unhex payload_hex in
        finish_block ();
        block := Top;
        exts := (tag, payload) :: !exts;
        Ok ()
    | tag :: _ -> Error ("unknown record tag " ^ tag)
  in
  let stop = off + len in
  let rec go i pos =
    if pos >= stop then Ok ()
    else
      let eol =
        match String.index_from_opt text pos '\n' with Some j when j < stop -> j | _ -> stop
      in
      if eol = pos then go i (pos + 1)
      else
        match parse_line (String.sub text pos (eol - pos)) with
        | Ok () -> go (i + 1) (eol + 1)
        | Error e -> Error (Printf.sprintf "body line %d: %s" i e)
  in
  let* () = go 1 off in
  finish_block ();
  match (!counters, !times, !fb) with
  | None, _, _ -> Error "missing EC record"
  | _, None, _ -> Error "missing ET record"
  | _, _, None -> Error "missing FB record"
  | Some (c, injects), Some (busy, free), Some fb ->
      Ok
        (fun ~seq ~at ->
          {
            seq;
            at;
            engine =
              {
                Engine.Persist.p_counters = c;
                p_injects = injects;
                p_busy = busy;
                p_inline_free_at = free;
                p_degraded_since = !degraded_since;
                p_degraded_log = List.rev !degraded_log;
                p_alerts = List.rev !alerts;
              };
            fb;
            calls = List.rev !calls;
            detectors = List.rev !detectors;
            ext = List.rev !exts;
          })

let of_string text =
  match String.index_opt text '\n' with
  | None -> Error "not a vIDS snapshot: missing header"
  | Some header_end -> (
      match String.split_on_char ' ' (String.sub text 0 header_end) with
      | [ m; v; seq_tok; at_tok ] when String.equal m magic -> (
          let* v = Codec.int_tok v in
          if v <> version then
            Error (Printf.sprintf "snapshot version skew: file v%d, supported v%d" v version)
          else
            let* seq = Codec.int_tok seq_tok in
            let* at = Codec.time_tok at_tok in
            (* Body and trailer follow the header; the trailer is the last
               line, "END <crc> <len>\n".  [last_nl] is the newline that
               ends the body, if the body is not empty. *)
            let start = header_end + 1 and n = String.length text in
            let last_nl =
              match String.rindex_from_opt text (n - 2) '\n' with
              | Some i when i >= start -> Some i
              | Some _ | None -> None
            in
            match last_nl with
            | _ when n = start -> Error "truncated snapshot: missing END trailer"
            | None when n - start < 4 || String.sub text start 3 <> "END" ->
                Error "truncated snapshot: missing END trailer"
            | last_nl -> (
                let body_len = match last_nl with None -> 0 | Some i -> i + 1 - start in
                let trailer_at = start + body_len in
                match
                  String.split_on_char ' '
                    (String.trim (String.sub text trailer_at (n - trailer_at)))
                with
                | [ "END"; crc_hex; len_tok ] ->
                    let* len = Codec.int_tok len_tok in
                    if len <> body_len then
                      Error
                        (Printf.sprintf "truncated snapshot: body is %d bytes, trailer says %d"
                           body_len len)
                    else if
                      not
                        (String.equal crc_hex
                           (Printf.sprintf "%08x" (Codec.crc32_sub text ~off:start ~len)))
                    then Error "corrupted snapshot: CRC mismatch"
                    else
                      let* make = of_body text ~off:start ~len in
                      Ok (make ~seq ~at)
                | _ -> Error "truncated snapshot: malformed END trailer"))
      | _ -> Error "not a vIDS snapshot")

(* --------------------------------------------------------------- *)
(* Restore                                                          *)
(* --------------------------------------------------------------- *)

exception Restore_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Restore_error s)) fmt

let apply_machine sys ms =
  match Efsm.System.machine sys ms.m_name with
  | None -> fail "snapshot references unknown machine %S" ms.m_name
  | Some m -> (
      match Efsm.Machine.restore m ~state:ms.m_state ~vars:ms.m_vars ~history:ms.m_hist with
      | Ok () -> ()
      | Error e -> fail "%s" e)

let apply_system sys ss =
  List.iter (fun (k, v) -> Efsm.Env.globals_put (Efsm.System.globals sys) k v) ss.s_globals;
  List.iter (apply_machine sys) ss.s_machines;
  List.iter (fun (target, event) -> Efsm.System.push_sync sys ~target event) ss.s_syncs;
  List.iter
    (fun (machine, id, fire_at) -> Efsm.System.restore_timer sys ~machine ~id ~fire_at)
    ss.s_timers

let apply engine snap =
  let base = Engine.fact_base engine in
  Engine.Persist.restore engine snap.engine;
  Fact_base.set_counters base ~peak:snap.fb.fb_peak ~created:snap.fb.fb_created
    ~deleted:snap.fb.fb_deleted ~calls_evicted:snap.fb.fb_calls_evicted
    ~detectors_evicted:snap.fb.fb_detectors_evicted ~swept:snap.fb.fb_swept
    ~detectors_swept:snap.fb.fb_dswept;
  (* Cancel the sweep armed by Engine.create; it is re-armed below at the
     snapshot's recorded phase. *)
  Fact_base.set_next_sweep base None;
  List.iter
    (fun cs ->
      let call = Fact_base.restore_call base ~call_id:cs.c_id ~created_at:cs.c_created in
      apply_system call.Fact_base.system cs.c_system;
      List.iter (fun addr -> Fact_base.register_media base call addr) cs.c_media;
      call.Fact_base.closing <- cs.c_closing;
      call.Fact_base.finish_pending <- cs.c_finish;
      (match cs.c_delete_at with Some at -> Fact_base.arm_delete_at base call at | None -> ());
      match cs.c_recheck_at with
      | Some at when cs.c_delete_at = None -> Fact_base.arm_recheck_at base call at
      | Some _ | None -> ())
    snap.calls;
  List.iter
    (fun ds ->
      let d =
        Fact_base.restore_detector base ds.d_kind ~key:ds.d_key ~created_at:ds.d_created
          ~touched:ds.d_touched
      in
      apply_system d.Fact_base.d_system ds.d_system)
    snap.detectors;
  match snap.fb.fb_sweep_at with
  | Some at -> Fact_base.set_next_sweep base (Some at)
  | None -> ()

let restore ?(config = Config.default) snap =
  let sched = Dsim.Scheduler.create () in
  Dsim.Scheduler.run_until sched snap.at;
  let engine = Engine.create ~config sched in
  match apply engine snap with
  | () -> Ok (sched, engine)
  | exception (Restore_error e | Invalid_argument e | Failure e) ->
      (* The message alone: an operator reads it, not OCaml's spelling
         of the exception. *)
      Error ("snapshot restore: " ^ e)
  | exception exn -> Error ("snapshot restore: " ^ Printexc.to_string exn)

(* --------------------------------------------------------------- *)
(* Files                                                            *)
(* --------------------------------------------------------------- *)

let previous_path path = path ^ ".1"

(* Directory fsync makes the renames themselves durable; a filesystem
   that refuses (some network mounts) degrades to the old behaviour
   rather than failing the checkpoint. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      ( try Unix.close fd with Unix.Unix_error _ -> ())

(* [save] streams the body: once the buffer holds [chunk] bytes they are
   copied through one reusable [Bytes] into the file and the running
   CRC, and the buffer is cleared, so neither the body nor a copy of it
   is ever built whole. *)
let chunk = 32768

type sink = { oc : out_channel; mutable scratch : Bytes.t; mutable crc : int; mutable len : int }

(* The first drain sizes the scratch: it is a whole chunk only for a body
   that fills one. *)
let drain sink buf =
  let n = Buffer.length buf in
  if Bytes.length sink.scratch = 0 then sink.scratch <- Bytes.create (min chunk n);
  let off = ref 0 in
  while !off < n do
    let k = min (Bytes.length sink.scratch) (n - !off) in
    Buffer.blit buf !off sink.scratch 0 k;
    sink.crc <- Codec.crc32_update sink.crc sink.scratch ~off:0 ~len:k;
    output sink.oc sink.scratch 0 k;
    off := !off + k
  done;
  sink.len <- sink.len + n;
  Buffer.clear buf

let save ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (header t);
  let sink = { oc; scratch = Bytes.empty; crc = 0; len = 0 } in
  (* Drained between records, the buffer holds a chunk plus at most one
     record. *)
  let buf = Buffer.create (2 * chunk) in
  add_body buf t ~flush:(fun buf -> if Buffer.length buf >= chunk then drain sink buf);
  drain sink buf;
  output_string oc (trailer ~crc:sink.crc ~len:sink.len);
  flush oc;
  (* fsync BEFORE the rename: without it, a power loss can leave the
     rename durable but the data not — a zero-length or torn file sitting
     where a checkpoint should be, which [of_string] would then reject at
     the worst possible moment.  With it, the atomic rename publishes
     only fully-durable bytes. *)
  (try Unix.fsync (Unix.descr_of_out_channel oc)
   with Unix.Unix_error _ | Sys_error _ | Invalid_argument _ -> ());
  close_out oc;
  (* Keep the previous checkpoint as a fallback for a write torn by the
     very crash we are defending against. *)
  if Sys.file_exists path then Sys.rename path (previous_path path);
  Sys.rename tmp path;
  fsync_dir path

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      of_string text

(* --------------------------------------------------------------- *)
(* Divergence                                                       *)
(* --------------------------------------------------------------- *)

let digest ~at engine = to_string (capture ~seq:0 ~at engine)
