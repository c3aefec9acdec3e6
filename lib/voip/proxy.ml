type t = {
  transport : Transport.t;
  domain : string;
  dns : string -> Dsim.Addr.t option;
  record_route : bool;
  auth : (string -> string option) option; (* username -> password *)
  ident : Sip.Ident.t;
  nonces : (string, unit) Hashtbl.t;
  location : Location.t;
  mutable requests_forwarded : int;
}

let create ?(record_route = false) ?auth transport ~domain ~dns =
  {
    transport;
    domain;
    dns;
    record_route;
    auth;
    ident = Sip.Ident.create (Dsim.Rng.create (Hashtbl.hash domain));
    nonces = Hashtbl.create 16;
    location = Location.create ();
    requests_forwarded = 0;
  }

let location t = t.location

(* Stateless branch: deterministic function of the incoming top branch so a
   retransmitted request gets the same transaction identity downstream. *)
let stateless_branch msg =
  let seed =
    match Sip.Msg.top_via msg with
    | Ok via -> Option.value (Sip.Via.branch via) ~default:"?"
    | Error _ -> "?"
  in
  let meth =
    match Sip.Msg.method_of msg with Some m -> Sip.Msg_method.to_string m | None -> "?"
  in
  Printf.sprintf "%ssl%08x" Sip.Via.magic_cookie (Hashtbl.hash (seed, meth))

let reply t msg code =
  match Sip.Msg.top_via msg with
  | Error _ -> ()
  | Ok via ->
      Transport.send_msg t.transport
        (Sip.Msg.response_to msg ~code ~to_tag:"proxy" ())
        (Sip.Via.sent_by via)

(* RFC 3261 §22: challenge unauthenticated REGISTERs when a credential
   store is configured. *)
let authenticated t msg =
  match t.auth with
  | None -> true
  | Some password_of ->
      Sip.Auth.verify ~password_of ~realm:t.domain
        ~nonce_valid:(fun nonce -> Hashtbl.mem t.nonces nonce)
        msg

let send_401 t msg =
  let nonce = Sip.Auth.fresh_nonce t.ident in
  Hashtbl.replace t.nonces nonce ();
  match Sip.Msg.top_via msg with
  | Error _ -> ()
  | Ok via ->
      Transport.send_msg t.transport
        (Sip.Msg.response_to msg ~code:401 ~to_tag:"auth"
           ~headers:
             [
               ( "WWW-Authenticate",
                 Sip.Auth.challenge_header { Sip.Auth.realm = t.domain; nonce } );
             ]
           ())
        (Sip.Via.sent_by via)

let handle_register t msg =
  if not (authenticated t msg) then send_401 t msg
  else
  match (Sip.Msg.to_ msg, Sip.Msg.contact msg) with
  | Ok to_, Ok contact ->
      let aor = Location.aor_of_uri to_.Sip.Name_addr.uri in
      let uri = contact.Sip.Name_addr.uri in
      let contact_addr =
        Dsim.Addr.v uri.Sip.Uri.host (Option.value uri.Sip.Uri.port ~default:5060)
      in
      (match Sip.Msg.expires msg with
      | Some 0 -> Location.unbind t.location ~aor
      | Some _ | None -> Location.bind t.location ~aor ~contact:contact_addr);
      (match Sip.Msg.top_via msg with
      | Ok via ->
          Transport.send_msg t.transport
            (Sip.Msg.response_to msg ~code:200 ~to_tag:"reg" ())
            (Sip.Via.sent_by via)
      | Error _ -> ())
  | _ -> reply t msg 400

let addr_of_route_value value =
  match Sip.Name_addr.parse value with
  | Ok na ->
      let uri = na.Sip.Name_addr.uri in
      Some (Dsim.Addr.v uri.Sip.Uri.host (Option.value uri.Sip.Uri.port ~default:5060))
  | Error _ -> None

(* Is this Route/Record-Route entry this proxy itself? *)
let route_is_self t value =
  match addr_of_route_value value with
  | Some addr -> Dsim.Addr.equal addr (Transport.local t.transport)
  | None -> false

let forward_request t msg =
  match msg.Sip.Msg.start with
  | Sip.Msg.Response _ -> ()
  | Sip.Msg.Request { meth; uri } -> (
      let is_ack = Sip.Msg_method.equal meth Sip.Msg_method.ACK in
      match Sip.Msg.decrement_max_forwards msg with
      | Error `Exhausted -> if not is_ack then reply t msg 483
      | Error `Malformed -> if not is_ack then reply t msg 400
      | Ok msg -> (
          (* Loose routing (RFC 3261 §16.4): pop our own Route entry. *)
          let msg =
            match Sip.Header.get_all msg.Sip.Msg.headers "Route" with
            | top :: _ when route_is_self t top ->
                { msg with Sip.Msg.headers = Sip.Header.remove_first msg.Sip.Msg.headers "Route" }
            | _ -> msg
          in
          let target =
            (* Remaining Route set wins; otherwise resolve the request URI:
               our domain via the location service, a foreign domain via
               DNS, and a contact-style host:port directly. *)
            match Sip.Header.get_all msg.Sip.Msg.headers "Route" with
            | next :: _ -> addr_of_route_value next
            | [] ->
                if String.equal uri.Sip.Uri.host t.domain then
                  Location.lookup t.location ~aor:(Location.aor_of_uri uri)
                else (
                  match t.dns uri.Sip.Uri.host with
                  | Some addr -> Some addr
                  | None ->
                      Some
                        (Dsim.Addr.v uri.Sip.Uri.host
                           (Option.value uri.Sip.Uri.port ~default:5060)))
          in
          match target with
          | None -> if not is_ack then reply t msg 404
          | Some addr ->
              let local = Transport.local t.transport in
              let via =
                Sip.Via.make ~port:(Dsim.Addr.port local) ~branch:(stateless_branch msg)
                  (Dsim.Addr.host local)
              in
              let msg =
                (* Stay on the signaling path of dialogs we helped form. *)
                if t.record_route && Sip.Msg_method.equal meth Sip.Msg_method.INVITE then
                  {
                    msg with
                    Sip.Msg.headers =
                      Sip.Header.add_first msg.Sip.Msg.headers "Record-Route"
                        (Printf.sprintf "<sip:%s:%d;lr>" (Dsim.Addr.host local)
                           (Dsim.Addr.port local));
                  }
                else msg
              in
              t.requests_forwarded <- t.requests_forwarded + 1;
              Transport.send_msg t.transport (Sip.Msg.push_via msg via) addr))

let forward_response t msg =
  (* Pop our Via; the next Via names the previous hop to deliver to. *)
  let popped = Sip.Msg.pop_via msg in
  match Sip.Msg.top_via popped with
  | Error _ -> ()
  | Ok via ->
      Transport.send_msg t.transport popped (Sip.Via.sent_by via)

let handle_packet t (packet : Dsim.Packet.t) =
  match Sip.Msg.parse packet.payload with
  | Error _ -> ()
  | Ok msg -> (
      match msg.Sip.Msg.start with
      | Sip.Msg.Response _ -> forward_response t msg
      | Sip.Msg.Request { meth = Sip.Msg_method.REGISTER; uri }
        when String.equal uri.Sip.Uri.host t.domain ->
          handle_register t msg
      | Sip.Msg.Request _ -> forward_request t msg)

let requests_forwarded t = t.requests_forwarded
