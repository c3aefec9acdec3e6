type vids_mode = Inline | Monitor | Off

type t = {
  sched : Dsim.Scheduler.t;
  rng : Dsim.Rng.t;
  net : Dsim.Network.t;
  metrics : Metrics.t;
  uas_a : Ua.t list;
  uas_b : Ua.t list;
  proxy_a : Proxy.t;
  proxy_b : Proxy.t;
  proxy_a_addr : Dsim.Addr.t;
  proxy_b_addr : Dsim.Addr.t;
  cloud : Dsim.Network.node;
  vids_node : Dsim.Network.node;
  engine : Vids.Engine.t option;
}

let lan_rate = 100e6
let lan_delay = Dsim.Time.of_us 50
let ds1_rate = 1.536e6
let domain_a = "a.example"
let domain_b = "b.example"

let make ?(seed = 42) ?(n_ua = 10) ?(vids = Monitor) ?config ?(overrides = [])
    ?(loss = 0.0042) ?(wan_delay_ms = 50.0) ?(vad = false) ?(record_route = false)
    ?(auth = false) () =
  let sched = Dsim.Scheduler.create () in
  let rng = Dsim.Rng.create seed in
  let net = Dsim.Network.create sched (Dsim.Rng.split rng) in
  let metrics = Metrics.create () in
  (* --- Nodes --- *)
  let hub_a = Dsim.Network.add_node net ~name:"hubA" ~hosts:[] in
  let router_a = Dsim.Network.add_node net ~name:"routerA" ~hosts:[ "10.1.0.1" ] in
  let cloud = Dsim.Network.add_node net ~name:"cloud" ~hosts:[ "198.18.0.1" ] in
  let router_b = Dsim.Network.add_node net ~name:"routerB" ~hosts:[ "10.2.0.1" ] in
  let vids_node = Dsim.Network.add_node net ~name:"vids" ~hosts:[] in
  let hub_b = Dsim.Network.add_node net ~name:"hubB" ~hosts:[] in
  let proxy_a_host = "10.1.0.2" and proxy_b_host = "10.2.0.2" in
  let proxy_a_node = Dsim.Network.add_node net ~name:"proxyA" ~hosts:[ proxy_a_host ] in
  let proxy_b_node = Dsim.Network.add_node net ~name:"proxyB" ~hosts:[ proxy_b_host ] in
  (* --- Links (Figure 7) --- *)
  let lan a b = Dsim.Network.connect net a b ~rate_bps:lan_rate ~prop_delay:lan_delay ~loss_prob:0.0 in
  lan hub_a router_a;
  lan proxy_a_node hub_a;
  lan router_b vids_node;
  lan vids_node hub_b;
  lan proxy_b_node hub_b;
  (* The 50 ms / 0.42% Internet cloud, split across the two DS1 legs. *)
  let wan_leg = Dsim.Time.of_ms (wan_delay_ms /. 2.0) in
  let leg_loss = 1.0 -. sqrt (1.0 -. loss) in
  Dsim.Network.connect net router_a cloud ~rate_bps:ds1_rate ~prop_delay:wan_leg
    ~loss_prob:leg_loss;
  Dsim.Network.connect net cloud router_b ~rate_bps:ds1_rate ~prop_delay:wan_leg
    ~loss_prob:leg_loss;
  (* --- vIDS --- *)
  let engine =
    match vids with
    | Off -> None
    | Inline | Monitor ->
        let engine =
          match config with
          | Some c -> Vids.Engine.create ~config:c ~overrides sched
          | None -> Vids.Engine.create ~overrides sched
        in
        Dsim.Network.set_tap vids_node (Some (Vids.Engine.process_packet engine));
        if vids = Inline then
          Dsim.Network.set_transit_delay vids_node
            (Some (Vids.Engine.transit_delay engine));
        Some engine
  in
  (* --- SIP entities --- *)
  let proxy_a_addr = Dsim.Addr.v proxy_a_host 5060 in
  let proxy_b_addr = Dsim.Addr.v proxy_b_host 5060 in
  let dns domain =
    if String.equal domain domain_a then Some proxy_a_addr
    else if String.equal domain domain_b then Some proxy_b_addr
    else None
  in
  (* Every provisioned phone uses the default UA password scheme. *)
  let credentials username =
    if auth then Some ("pw-" ^ username) else None
  in
  let auth_store = if auth then Some credentials else None in
  let proxy_a =
    Proxy.create ~record_route ?auth:auth_store
      (Transport.create net proxy_a_node ~local:proxy_a_addr)
      ~domain:domain_a ~dns
  in
  let proxy_b =
    Proxy.create ~record_route ?auth:auth_store
      (Transport.create net proxy_b_node ~local:proxy_b_addr)
      ~domain:domain_b ~dns
  in
  Dsim.Network.set_handler proxy_a_node (Proxy.handle_packet proxy_a);
  Dsim.Network.set_handler proxy_b_node (Proxy.handle_packet proxy_b);
  let make_ua ~prefix ~subnet ~hub ~domain ~proxy i =
    let name = Printf.sprintf "%s%d" prefix (i + 1) in
    let host = Printf.sprintf "%s.%d" subnet (10 + i) in
    let node = Dsim.Network.add_node net ~name ~hosts:[ host ] in
    lan node hub;
    Ua.create net node ~name ~host ~domain ~proxy ~rng:(Dsim.Rng.split rng) ~metrics ~vad ()
  in
  let uas_a =
    List.init n_ua (make_ua ~prefix:"a" ~subnet:"10.1.0" ~hub:hub_a ~domain:domain_a
                      ~proxy:proxy_a_addr)
  in
  let uas_b =
    List.init n_ua (make_ua ~prefix:"b" ~subnet:"10.2.0" ~hub:hub_b ~domain:domain_b
                      ~proxy:proxy_b_addr)
  in
  (* Stagger registrations through the first second. *)
  List.iteri
    (fun i ua ->
      ignore
        (Dsim.Scheduler.schedule_at sched (Dsim.Time.of_ms (10.0 *. float_of_int (i + 1)))
           (fun () -> Ua.register ua)))
    (uas_a @ uas_b);
  {
    sched;
    rng;
    net;
    metrics;
    uas_a;
    uas_b;
    proxy_a;
    proxy_b;
    proxy_a_addr;
    proxy_b_addr;
    cloud;
    vids_node;
    engine;
  }

let engine_exn t =
  match t.engine with Some e -> e | None -> failwith "Testbed: vIDS is off in this run"

let ua_b_uris t =
  Array.of_list (List.map (fun ua -> Ua.aor ua) t.uas_b)

let ua_b_host t i = Dsim.Addr.host (Ua.addr (List.nth t.uas_b i))

let attacker t ~host =
  let node = Dsim.Network.add_node t.net ~name:("attacker-" ^ host) ~hosts:[ host ] in
  Dsim.Network.connect t.net node t.cloud ~rate_bps:lan_rate ~prop_delay:(Dsim.Time.of_ms 5.0)
    ~loss_prob:0.0;
  (node, Transport.create t.net node ~local:(Dsim.Addr.v host 5060))

let run_until t time = Dsim.Scheduler.run_until t.sched time

let run_workload t ?(profile = Call_generator.default_profile) ~duration () =
  Call_generator.start t.sched (Dsim.Rng.split t.rng) ~callers:t.uas_a
    ~callees:(ua_b_uris t) ~metrics:t.metrics ~profile ~until:duration;
  (* Drain: let calls started near the end complete. *)
  let drain = Dsim.Time.of_sec 600.0 in
  run_until t (Dsim.Time.add duration drain)
