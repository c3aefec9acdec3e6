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
let by_time l =
  let rec sorted = function
    | a :: (b :: _ as rest) -> Dsim.Time.( <= ) a.at b.at && sorted rest
    | _ -> true
  in
  if sorted l then l else List.stable_sort (fun a b -> Dsim.Time.compare a.at b.at) l

let play ?until p records =
  let within at = match until with None -> true | Some u -> Dsim.Time.( <= ) at u in
  let rec go = function
    | r :: rs when within r.at ->
        step p r;
        go rs
    | _ -> ()
  in
  go (by_time records);
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
