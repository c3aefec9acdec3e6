type record = Pcap.record = {
  at : Dsim.Time.t;
  src : Dsim.Addr.t;
  dst : Dsim.Addr.t;
  payload : string;
}

let record_of_packet ~at (packet : Dsim.Packet.t) =
  { at; src = packet.src; dst = packet.dst; payload = packet.payload }

let save oc records =
  let w = Pcap.to_channel oc in
  List.iter (Pcap.write w) records

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

(* The clock never moves backwards. *)
let instant p r = Dsim.Time.max r.at (Dsim.Scheduler.now p.sched)

let stamp p r =
  let at = instant p r in
  if at = r.at then r else { r with at }

let step p r =
  let at = instant p r in
  Dsim.Scheduler.advance_to p.sched at;
  p.deliver (Dsim.Packet.make p.alloc ~src:r.src ~dst:r.dst ~sent_at:at r.payload)

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
        step p r;
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
