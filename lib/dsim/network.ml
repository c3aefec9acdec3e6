type link = {
  peer : int; (* node id at the far end *)
  rate_bps : float;
  prop_delay : Time.t;
  loss_prob : float;
  mutable free_at : Time.t; (* when this direction's transmitter is idle *)
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable lost_packets : int;
}

type node = {
  id : int;
  name : string;
  hosts : string list;
  mutable links : link list;
  mutable handler : Packet.t -> unit;
  mutable tap : (Packet.t -> unit) option;
  mutable transit_delay : (Packet.t -> Time.t) option;
}

and t = {
  sched : Scheduler.t;
  rng : Rng.t;
  alloc : Packet.allocator;
  mutable nodes : node array;
  mutable count : int;
  host_owner : (string, int) Hashtbl.t;
  mutable next_hop : int array array; (* next_hop.(src).(dst) = peer id, -1 if unreachable *)
  mutable routes_dirty : bool;
  mutable faults : fault_profile option;
  mutable burst_remaining : int;
  mutable truncated : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable burst_lost : int;
}

and fault_profile = {
  truncate_prob : float;
  corrupt_prob : float;
  duplicate_prob : float;
  reorder_prob : float;
  reorder_delay : Time.t;
  burst_loss_prob : float;
  burst_length : int;
}

let pristine =
  {
    truncate_prob = 0.0;
    corrupt_prob = 0.0;
    duplicate_prob = 0.0;
    reorder_prob = 0.0;
    reorder_delay = Time.zero;
    burst_loss_prob = 0.0;
    burst_length = 0;
  }

let create sched rng =
  {
    sched;
    rng;
    alloc = Packet.allocator ();
    nodes = [||];
    count = 0;
    host_owner = Hashtbl.create 64;
    next_hop = [||];
    routes_dirty = true;
    faults = None;
    burst_remaining = 0;
    truncated = 0;
    corrupted = 0;
    duplicated = 0;
    reordered = 0;
    burst_lost = 0;
  }

let scheduler t = t.sched

let add_node t ~name ~hosts =
  let node =
    {
      id = t.count;
      name;
      hosts;
      links = [];
      handler = (fun _ -> ());
      tap = None;
      transit_delay = None;
    }
  in
  List.iter
    (fun host ->
      if Hashtbl.mem t.host_owner host then
        invalid_arg (Printf.sprintf "Network.add_node: host %s already assigned" host);
      Hashtbl.replace t.host_owner host node.id)
    hosts;
  if t.count = Array.length t.nodes then begin
    let capacity = Stdlib.max 8 (2 * Array.length t.nodes) in
    let nodes' = Array.make capacity node in
    Array.blit t.nodes 0 nodes' 0 t.count;
    t.nodes <- nodes'
  end;
  t.nodes.(t.count) <- node;
  t.count <- t.count + 1;
  t.routes_dirty <- true;
  node

let find_node t ~host =
  match Hashtbl.find_opt t.host_owner host with
  | None -> None
  | Some id -> Some t.nodes.(id)

let connect t a b ~rate_bps ~prop_delay ~loss_prob =
  let fresh peer =
    { peer; rate_bps; prop_delay; loss_prob; free_at = Time.zero; tx_packets = 0;
      tx_bytes = 0; lost_packets = 0 }
  in
  a.links <- fresh b.id :: a.links;
  b.links <- fresh a.id :: b.links;
  t.routes_dirty <- true

let set_handler node f = node.handler <- f
let set_tap node tap = node.tap <- tap
let set_transit_delay node f = node.transit_delay <- f

let recompute_routes t =
  let n = t.count in
  let next_hop = Array.make_matrix n n (-1) in
  for src = 0 to n - 1 do
    (* BFS from [src]; record the first hop on each shortest path. *)
    let first = Array.make n (-1) in
    let visited = Array.make n false in
    visited.(src) <- true;
    let queue = Queue.create () in
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.take queue in
      List.iter
        (fun link ->
          let v = link.peer in
          if not visited.(v) then begin
            visited.(v) <- true;
            first.(v) <- (if u = src then v else first.(u));
            Queue.add v queue
          end)
        t.nodes.(u).links
    done;
    Array.blit first 0 next_hop.(src) 0 n
  done;
  t.next_hop <- next_hop;
  t.routes_dirty <- false

let ensure_routes t = if t.routes_dirty then recompute_routes t

let make_packet t ~src ~dst payload =
  Packet.make t.alloc ~src ~dst ~sent_at:(Scheduler.now t.sched) payload

let link_to node peer_id = List.find_opt (fun link -> link.peer = peer_id) node.links

(* Forwarding: each hop serializes the packet on the outgoing link (FIFO
   behind earlier packets), suffers propagation delay, and may be lost. *)
let rec arrive_at t node packet =
  (match node.tap with None -> () | Some tap -> tap packet);
  let dst_host = (packet : Packet.t).dst.host in
  match Hashtbl.find_opt t.host_owner dst_host with
  | Some owner when owner = node.id -> node.handler packet
  | Some _ | None -> (
      match node.transit_delay with
      | None -> forward t node packet
      | Some delay_of ->
          let delay = delay_of packet in
          if delay = Time.zero then forward t node packet
          else ignore (Scheduler.schedule_after t.sched delay (fun () -> forward t node packet)))

and forward t node packet =
  ensure_routes t;
  let dst_host = (packet : Packet.t).dst.host in
  match Hashtbl.find_opt t.host_owner dst_host with
  | None -> ()
  | Some owner when t.next_hop.(node.id).(owner) = -1 -> ()
  | Some owner -> (
      let hop = t.next_hop.(node.id).(owner) in
      match link_to node hop with None -> () | Some link -> transmit t link packet)

and transmit t link packet =
  let now = Scheduler.now t.sched in
  let tx_time =
    if link.rate_bps <= 0.0 then Time.zero
    else Time.of_sec (float_of_int (8 * Packet.size packet) /. link.rate_bps)
  in
  let start = Time.max now link.free_at in
  let done_ = Time.add start tx_time in
  link.free_at <- done_;
  let arrival = Time.add done_ link.prop_delay in
  link.tx_packets <- link.tx_packets + 1;
  link.tx_bytes <- link.tx_bytes + Packet.size packet;
  let lost = link.loss_prob > 0.0 && Rng.bool t.rng link.loss_prob in
  let peer = t.nodes.(link.peer) in
  if lost then link.lost_packets <- link.lost_packets + 1
  else
    match t.faults with
    | None -> ignore (Scheduler.schedule_at t.sched arrival (fun () -> arrive_at t peer packet))
    | Some profile -> deliver_faulty t profile ~arrival peer packet

(* The fault-injection layer: applied per link traversal, after the link's
   own Bernoulli loss.  Order: burst loss kills the packet outright;
   surviving bytes may be truncated then corrupted; the mangled packet may
   be duplicated; each copy may be independently held back (reordering). *)
and deliver_faulty t p ~arrival peer packet =
  let drop =
    if t.burst_remaining > 0 then begin
      t.burst_remaining <- t.burst_remaining - 1;
      true
    end
    else if p.burst_loss_prob > 0.0 && Rng.bool t.rng p.burst_loss_prob then begin
      t.burst_remaining <- Stdlib.max 0 (p.burst_length - 1);
      true
    end
    else false
  in
  if drop then t.burst_lost <- t.burst_lost + 1
  else begin
    let payload = (packet : Packet.t).payload in
    let payload =
      if String.length payload > 0 && p.truncate_prob > 0.0 && Rng.bool t.rng p.truncate_prob
      then begin
        t.truncated <- t.truncated + 1;
        String.sub payload 0 (Rng.int t.rng (String.length payload))
      end
      else payload
    in
    let payload =
      if String.length payload > 0 && p.corrupt_prob > 0.0 && Rng.bool t.rng p.corrupt_prob
      then begin
        t.corrupted <- t.corrupted + 1;
        let bytes = Bytes.of_string payload in
        let flips = 1 + Rng.int t.rng 4 in
        for _ = 1 to flips do
          let i = Rng.int t.rng (Bytes.length bytes) in
          Bytes.set bytes i
            (Char.chr (Char.code (Bytes.get bytes i) lxor (1 + Rng.int t.rng 255)))
        done;
        Bytes.to_string bytes
      end
      else payload
    in
    let packet = if payload == (packet : Packet.t).payload then packet else Packet.with_payload packet payload in
    let copies =
      if p.duplicate_prob > 0.0 && Rng.bool t.rng p.duplicate_prob then begin
        t.duplicated <- t.duplicated + 1;
        2
      end
      else 1
    in
    for _ = 1 to copies do
      let arrival =
        if
          p.reorder_prob > 0.0
          && Time.( > ) p.reorder_delay Time.zero
          && Rng.bool t.rng p.reorder_prob
        then begin
          t.reordered <- t.reordered + 1;
          Time.add arrival (Time.of_sec (Rng.float t.rng (Time.to_sec p.reorder_delay)))
        end
        else arrival
      in
      ignore (Scheduler.schedule_at t.sched arrival (fun () -> arrive_at t peer packet))
    done
  end

let send t ~from packet = arrive_at t from packet

type link_stats = {
  from_node : string;
  to_node : string;
  rate_bps : float;
  tx_packets : int;
  tx_bytes : int;
  lost_packets : int;
}

let link_stats t =
  let stats = ref [] in
  for i = 0 to t.count - 1 do
    let node = t.nodes.(i) in
    List.iter
      (fun link ->
        stats :=
          {
            from_node = node.name;
            to_node = t.nodes.(link.peer).name;
            rate_bps = link.rate_bps;
            tx_packets = link.tx_packets;
            tx_bytes = link.tx_bytes;
            lost_packets = link.lost_packets;
          }
          :: !stats)
      node.links
  done;
  List.rev !stats

let set_fault_profile t profile =
  t.faults <- profile;
  if profile = None then t.burst_remaining <- 0

type fault_stats = {
  truncated : int;
  corrupted : int;
  duplicated : int;
  reordered : int;
  burst_lost : int;
}

let fault_stats (t : t) =
  {
    truncated = t.truncated;
    corrupted = t.corrupted;
    duplicated = t.duplicated;
    reordered = t.reordered;
    burst_lost = t.burst_lost;
  }
