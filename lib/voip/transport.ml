type t = { net : Dsim.Network.t; node : Dsim.Network.node; local : Dsim.Addr.t }

let create net node ~local = { net; node; local }
let local t = t.local
let scheduler t = Dsim.Network.scheduler t.net

let send_raw t ~src ~dst payload =
  let packet = Dsim.Network.make_packet t.net ~src ~dst payload in
  Dsim.Network.send t.net ~from:t.node packet

let send_msg t msg dst = send_raw t ~src:t.local ~dst (Sip.Msg.serialize msg)

let txn_transport t =
  { Sip.Transaction.sched = scheduler t; send = (fun msg dst -> send_msg t msg dst) }
