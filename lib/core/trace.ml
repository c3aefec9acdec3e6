type record = { at : Dsim.Time.t; src : Dsim.Addr.t; dst : Dsim.Addr.t; payload : string }

let record_of_packet ~at (packet : Dsim.Packet.t) =
  { at; src = packet.src; dst = packet.dst; payload = packet.payload }

(* An empty payload still gets its separator: the line ends in a space,
   which [record_of_line] trims. *)
let add_record_line b r =
  Buffer.add_string b (string_of_int (Dsim.Time.to_us r.at));
  Buffer.add_char b ' ';
  Buffer.add_string b (Dsim.Addr.to_string r.src);
  Buffer.add_char b ' ';
  Buffer.add_string b (Dsim.Addr.to_string r.dst);
  Buffer.add_char b ' ';
  Efsm.Value.add_hex b r.payload

let record_to_line r =
  let b = Buffer.create (48 + (2 * String.length r.payload)) in
  add_record_line b r;
  Buffer.contents b

let record_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ at_str; src_str; dst_str; hex ] -> (
      match
        (int_of_string_opt at_str, Dsim.Addr.of_string src_str, Dsim.Addr.of_string dst_str)
      with
      | Some at, Some src, Some dst -> (
          match Efsm.Value.string_of_hex hex with
          | Ok payload -> Ok { at = Dsim.Time.of_us at; src; dst; payload }
          | Error e -> Error e)
      | None, _, _ -> Error "bad timestamp"
      | _, None, _ -> Error "bad source address"
      | _, _, None -> Error "bad destination address")
  | [ at_str; src_str; dst_str ] -> (
      (* Empty payload: the hex field is absent. *)
      match
        (int_of_string_opt at_str, Dsim.Addr.of_string src_str, Dsim.Addr.of_string dst_str)
      with
      | Some at, Some src, Some dst -> Ok { at = Dsim.Time.of_us at; src; dst; payload = "" }
      | _ -> Error "malformed record")
  | _ -> Error "malformed record"

let save oc records =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.clear b;
      add_record_line b r;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)
    records

let load ic =
  let rec go acc line_number =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go acc (line_number + 1)
    | line -> (
        match record_of_line line with
        | Ok r -> go (r :: acc) (line_number + 1)
        | Error e -> Error (Printf.sprintf "line %d: %s" line_number e))
  in
  go [] 1

let load_lenient ic =
  let rec go acc skipped line_number =
    match input_line ic with
    | exception End_of_file -> (List.rev acc, List.rev skipped)
    | "" -> go acc skipped (line_number + 1)
    | line -> (
        match record_of_line line with
        | Ok r -> go (r :: acc) skipped (line_number + 1)
        | Error e -> go acc ((line_number, e) :: skipped) (line_number + 1))
  in
  go [] [] 1

type recorder = { mutable entries : record list }

let recorder () = { entries = [] }

let tap t sched (packet : Dsim.Packet.t) =
  t.entries <- record_of_packet ~at:(Dsim.Scheduler.now sched) packet :: t.entries

let records t = List.rev t.entries

let schedule_into ?inject sched engine records =
  let alloc = Dsim.Packet.allocator () in
  let deliver = match inject with Some f -> f | None -> Engine.process_packet engine in
  let sorted = List.stable_sort (fun a b -> Dsim.Time.compare a.at b.at) records in
  List.iter
    (fun r ->
      ignore
        (Dsim.Scheduler.schedule_at sched r.at (fun () ->
             deliver (Dsim.Packet.make alloc ~src:r.src ~dst:r.dst ~sent_at:r.at r.payload))))
    sorted;
  List.length sorted

let replay ?config records =
  let sched = Dsim.Scheduler.create () in
  let engine =
    match config with Some c -> Engine.create ~config:c sched | None -> Engine.create sched
  in
  ignore (schedule_into sched engine records);
  Dsim.Scheduler.run sched;
  engine

let replay_until ?config ~until records =
  let sched = Dsim.Scheduler.create () in
  let engine =
    match config with Some c -> Engine.create ~config:c sched | None -> Engine.create sched
  in
  ignore (schedule_into sched engine records);
  Dsim.Scheduler.run_until sched until;
  (sched, engine)
