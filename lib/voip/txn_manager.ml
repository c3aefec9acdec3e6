type callbacks = {
  on_request : Sip.Msg.t -> src:Dsim.Addr.t -> Sip.Transaction.Server.t -> unit;
  on_cancel : Sip.Msg.t -> src:Dsim.Addr.t -> Sip.Transaction.Server.t option -> unit;
  on_ack : Sip.Msg.t -> src:Dsim.Addr.t -> unit;
  on_stray_response : Sip.Msg.t -> src:Dsim.Addr.t -> unit;
}

type t = {
  transport : Transport.t;
  callbacks : callbacks;
  clients : (string, Sip.Transaction.Client.t) Hashtbl.t;
  servers : (string, Sip.Transaction.Server.t) Hashtbl.t;
}

let create transport callbacks =
  {
    transport;
    callbacks;
    clients = Hashtbl.create 16;
    servers = Hashtbl.create 16;
  }

let client_key ~branch ~meth = branch ^ "|" ^ Sip.Msg_method.to_string meth

let client_key_of_msg msg =
  match (Sip.Msg.top_via msg, Sip.Msg.cseq msg) with
  | Ok via, Ok cseq ->
      let branch = Option.value (Sip.Via.branch via) ~default:"no-branch" in
      Some (client_key ~branch ~meth:cseq.Sip.Cseq.meth)
  | _ -> None

let request t msg ~dst ~on_response ~on_timeout =
  let key = match client_key_of_msg msg with Some k -> k | None -> "unkeyed" in
  let txn =
    Sip.Transaction.Client.create
      (Transport.txn_transport t.transport)
      msg ~dst ~on_response ~on_timeout
      ~on_terminated:(fun () -> Hashtbl.remove t.clients key)
  in
  Hashtbl.replace t.clients key txn;
  txn

let handle_response t msg ~src =
  match client_key_of_msg msg with
  | None -> ()
  | Some key -> (
      match Hashtbl.find_opt t.clients key with
      | Some txn -> Sip.Transaction.Client.receive txn msg
      | None -> t.callbacks.on_stray_response msg ~src)

let new_server_txn t msg ~src ~key =
  let txn =
    Sip.Transaction.Server.create
      (Transport.txn_transport t.transport)
      msg ~src
      ~on_ack:(fun _ -> ())
      ~on_terminated:(fun () -> Hashtbl.remove t.servers key)
  in
  Hashtbl.replace t.servers key txn;
  txn

let handle_request t msg ~src =
  match Sip.Msg.transaction_key msg with
  | Error _ -> ()
  | Ok key -> (
      let meth = match Sip.Msg.method_of msg with Some m -> m | None -> Sip.Msg_method.INFO in
      match Hashtbl.find_opt t.servers key with
      | Some txn -> Sip.Transaction.Server.receive txn msg
      | None -> (
          match meth with
          | Sip.Msg_method.ACK ->
              (* ACK for a 2xx creates no transaction (RFC 3261 §13.3). *)
              t.callbacks.on_ack msg ~src
          | Sip.Msg_method.CANCEL ->
              (* The CANCEL gets its own transaction: 200 when it matches a
                 pending INVITE (the TU then answers that INVITE with 487),
                 481 otherwise (RFC 3261 §9.2). *)
              let cancel_txn = new_server_txn t msg ~src ~key in
              let invite_txn =
                match Sip.Msg.invite_key_of_cancel msg with
                | Ok invite_key -> Hashtbl.find_opt t.servers invite_key
                | Error _ -> None
              in
              let code = match invite_txn with Some _ -> 200 | None -> 481 in
              Sip.Transaction.Server.respond cancel_txn (Sip.Msg.response_to msg ~code ());
              t.callbacks.on_cancel msg ~src invite_txn
          | _ ->
              let txn = new_server_txn t msg ~src ~key in
              t.callbacks.on_request msg ~src txn))

let handle_packet t (packet : Dsim.Packet.t) =
  match Sip.Msg.parse packet.payload with
  | Error _ -> ()
  | Ok msg ->
      if Sip.Msg.is_response msg then handle_response t msg ~src:packet.src
      else handle_request t msg ~src:packet.src
