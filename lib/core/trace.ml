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

type player = {
  sched : Dsim.Scheduler.t;
  deliver : Dsim.Packet.t -> unit;
  alloc : Dsim.Packet.allocator;
}

let player ?gate sched engine =
  let deliver = match gate with Some f -> f | None -> Engine.process_packet engine in
  { sched; deliver; alloc = Dsim.Packet.allocator () }

let step p r =
  let at = Dsim.Time.max r.at (Dsim.Scheduler.now p.sched) in
  Dsim.Scheduler.advance_to p.sched at;
  p.deliver (Dsim.Packet.make p.alloc ~src:r.src ~dst:r.dst ~sent_at:at r.payload);
  if at = r.at then r else { r with at }

(* Captures are chronological, so most inputs need no sort (nor its
   allocation). *)
let by_time key l =
  let rec sorted = function
    | a :: (b :: _ as rest) -> Dsim.Time.( <= ) (key a) (key b) && sorted rest
    | _ -> true
  in
  if sorted l then l else List.stable_sort (fun a b -> Dsim.Time.compare (key a) (key b)) l

let play ?(decisions = []) ?until p records =
  let within at = match until with None -> true | Some u -> Dsim.Time.( <= ) at u in
  (* At an instant, the record goes before the decision. *)
  let record_first r = function [] -> true | (at, _) :: _ -> Dsim.Time.( <= ) r.at at in
  let rec go rs ds =
    match (rs, ds) with
    | r :: rs', _ when within r.at && record_first r ds ->
        ignore (step p r);
        go rs' ds
    | _, (at, decide) :: ds' when within at ->
        Dsim.Scheduler.advance_to p.sched at;
        decide ();
        go rs ds'
    | _ -> ()
  in
  go (by_time (fun r -> r.at) records) (by_time fst decisions);
  match until with
  | Some u -> Dsim.Scheduler.run_until p.sched u
  | None -> Dsim.Scheduler.run p.sched

let run ?config ?until records =
  let sched = Dsim.Scheduler.create () in
  let engine = Engine.create ?config sched in
  play ?until (player sched engine) records;
  (sched, engine)

let replay ?config records = snd (run ?config records)
let replay_until ?config ~until records = run ?config ~until records
