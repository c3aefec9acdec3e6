(* Write-ahead alert/eviction journal.

   The journal is the low-latency half of crash safety: checkpoints are
   periodic, but every alert and resource reclamation is appended (and
   flushed) the moment it happens, so a crash between checkpoints loses no
   delivered alert.  Each line carries its own CRC-32; the lenient loader
   skips torn or corrupted lines — expected at the tail of a file cut by
   the crash itself — and reports them as (line, reason) diagnostics. *)

type entry =
  | Alert of Alert.t
  | Eviction of { at : Dsim.Time.t; subject : string; detail : string }
  | Checkpoint of { at : Dsim.Time.t; seq : int }
  | Ext of { at : Dsim.Time.t; tag : string; payload : string }
      (* A record for a subsystem layered on top of the engine (e.g. an
         enforcement decision), uninterpreted here: journaled like an alert
         so a crash loses none, replayed to the owning subsystem during
         recovery. *)

let ( let* ) = Result.bind

let entry_at = function
  | Alert a -> a.Alert.at
  | Eviction { at; _ } -> at
  | Checkpoint { at; _ } -> at
  | Ext { at; _ } -> at

let payload_of_entry = function
  | Alert a ->
      let buf = Buffer.create 96 in
      Buffer.add_string buf "A ";
      Codec.add_alert buf a;
      Buffer.contents buf
  | Eviction { at; subject; detail } ->
      Printf.sprintf "E %d %s %s" (Dsim.Time.to_us at) (Codec.hex subject) (Codec.hex detail)
  | Checkpoint { at; seq } -> Printf.sprintf "C %d %d" (Dsim.Time.to_us at) seq
  | Ext { at; tag; payload } ->
      Printf.sprintf "X %d %s %s" (Dsim.Time.to_us at) (Codec.hex tag) (Codec.hex payload)

let entry_to_line entry =
  let payload = payload_of_entry entry in
  Codec.crc32_hex payload ^ " " ^ payload

let entry_of_line line =
  match String.index_opt line ' ' with
  | None -> Error "missing CRC field"
  | Some i ->
      let crc = String.sub line 0 i in
      let payload = String.sub line (i + 1) (String.length line - i - 1) in
      if not (String.equal crc (Codec.crc32_hex payload)) then Error "CRC mismatch (torn line?)"
      else (
        match String.split_on_char ' ' payload with
        | "A" :: toks ->
            let* alert = Codec.alert_of_tokens toks in
            Ok (Alert alert)
        | [ "E"; at; subject; detail ] ->
            let* at = Codec.time_tok at in
            let* subject = Codec.unhex subject in
            let* detail = Codec.unhex detail in
            Ok (Eviction { at; subject; detail })
        | [ "C"; at; seq ] ->
            let* at = Codec.time_tok at in
            let* seq = Codec.int_tok seq in
            Ok (Checkpoint { at; seq })
        | [ "X"; at; tag; payload ] ->
            let* at = Codec.time_tok at in
            let* tag = Codec.unhex tag in
            let* payload = Codec.unhex payload in
            Ok (Ext { at; tag; payload })
        | tag :: _ -> Error ("unknown journal tag " ^ tag)
        | [] -> Error "empty journal payload")

(* --------------------------------------------------------------- *)
(* Writer                                                           *)
(* --------------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  mutable closed : bool;
  append_hist : Obs.Metrics.histogram option;
}

let create_writer ?registry path =
  let append_hist =
    Option.map
      (fun m ->
        Obs.Metrics.histogram m "vids_journal_append_seconds"
          ~help:"Wall-clock duration of one journal append+flush")
      registry
  in
  { oc = open_out_gen [ Open_append; Open_creat ] 0o644 path; closed = false; append_hist }

let append w entry =
  if not w.closed then begin
    (* Wall-clock, not virtual: the flush latency is a property of the
       host's disk, and that is exactly what the histogram is for. *)
    let t0 = match w.append_hist with None -> 0.0 | Some _ -> Unix.gettimeofday () in
    output_string w.oc (entry_to_line entry);
    output_char w.oc '\n';
    (* Flush per entry: the journal is only worth its latency cost if the
       line is on disk before the alert's consequences are visible. *)
    flush w.oc;
    match w.append_hist with
    | None -> ()
    | Some h -> Obs.Metrics.observe h (Unix.gettimeofday () -. t0)
  end

let fsync_writer w =
  if not w.closed then begin
    flush w.oc;
    (* Past the OS cache and onto the platter: a per-append fsync would
       dominate the hot path, so durability beyond the page cache is
       batched to checkpoint instants and shutdown.  A filesystem that
       cannot fsync (pipes in tests) is not a reason to fail. *)
    try Unix.fsync (Unix.descr_of_out_channel w.oc) with
    | Unix.Unix_error _ | Sys_error _ | Invalid_argument _ -> ()
  end

let close_writer w =
  if not w.closed then begin
    fsync_writer w;
    w.closed <- true;
    close_out w.oc
  end

(* --------------------------------------------------------------- *)
(* Loading                                                          *)
(* --------------------------------------------------------------- *)

let load_channel ic =
  let entries = ref [] in
  let skipped = ref [] in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       if String.trim line <> "" then
         match entry_of_line line with
         | Ok entry -> entries := entry :: !entries
         | Error reason -> skipped := (!line_no, reason) :: !skipped
     done
   with End_of_file -> ());
  (List.rev !entries, List.rev !skipped)

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let result =
        match load_channel ic with
        | loaded -> Ok loaded
        | exception Sys_error e -> Error (path ^ ": " ^ e)
      in
      close_in_noerr ic;
      result

(* --------------------------------------------------------------- *)
(* Recovery suffix                                                  *)
(* --------------------------------------------------------------- *)

let suffix_after ~seq ~at entries =
  let rec after_marker acc found = function
    | [] -> if found then Some (List.rev acc) else None
    | Checkpoint c :: rest when c.seq = seq -> after_marker [] true rest
    | e :: rest -> after_marker (if found then e :: acc else acc) found rest
  in
  match after_marker [] false entries with
  | Some suffix -> suffix
  | None ->
      (* No marker for this checkpoint (e.g. the journal rotated, or the
         snapshot predates journaling): fall back to timestamps. *)
      List.filter (fun e -> Dsim.Time.compare (entry_at e) at > 0) entries
