(* Non-blocking UDP listener.  One receive buffer is reused across the
   whole life of the source; each delivered payload is the only per-
   datagram allocation.  On an error: close, wait out a capped
   exponential backoff, rebind, give up when the budget is spent. *)

type datagram = { src : Dsim.Addr.t; payload : string }

type stats = { received : int; recv_errors : int; reopens : int; gave_up : bool }

type t = {
  host : string;
  port : int;  (* requested; 0 = ephemeral *)
  recv_buffer : int;
  backoff : Backoff.t;
  buf : Bytes.t;
  mutable sock : Unix.file_descr option;
  mutable bound : Dsim.Addr.t;
  mutable retry_at : float;  (* next rebind attempt when the socket is down *)
  mutable received : int;
  mutable recv_errors : int;
  mutable reopens : int;
  mutable gave_up : bool;
}

let addr_of_sockaddr = function
  | Unix.ADDR_INET (ip, port) -> Dsim.Addr.v (Unix.string_of_inet_addr ip) port
  | Unix.ADDR_UNIX path -> Dsim.Addr.v path 0

let bind_socket ~host ~port ~recv_buffer =
  let ip =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
      | _ -> raise (Unix.Unix_error (Unix.EINVAL, "getaddrinfo", host)))
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (try Unix.setsockopt_int sock Unix.SO_RCVBUF recv_buffer
   with Unix.Unix_error _ -> () (* best effort *));
  (try Unix.setsockopt sock Unix.SO_REUSEADDR true with Unix.Unix_error _ -> ());
  match Unix.bind sock (Unix.ADDR_INET (ip, port)) with
  | () ->
      Unix.set_nonblock sock;
      (sock, addr_of_sockaddr (Unix.getsockname sock))
  | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e

let listen ?(recv_buffer = 1 lsl 20) ?(backoff = Backoff.create ()) ~host ~port () =
  match bind_socket ~host ~port ~recv_buffer with
  | sock, bound ->
      Ok
        {
          host;
          port;
          recv_buffer;
          backoff;
          buf = Bytes.create 65536;
          sock = Some sock;
          bound;
          retry_at = 0.0;
          received = 0;
          recv_errors = 0;
          reopens = 0;
          gave_up = false;
        }
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "bind %s:%d: %s" host port (Unix.error_message err))
  | exception e -> Error (Printf.sprintf "bind %s:%d: %s" host port (Printexc.to_string e))

let local_addr t = t.bound

let alive t = not t.gave_up

let close t =
  (match t.sock with
  | Some s -> ( try Unix.close s with Unix.Unix_error _ -> ())
  | None -> ());
  t.sock <- None

(* A receive error: drop the descriptor and arm the rebind deadline; a
   spent budget kills the source for good. *)
let fail t ~(clock : Clock.t) =
  t.recv_errors <- t.recv_errors + 1;
  close t;
  match Backoff.next t.backoff with
  | Some delay -> t.retry_at <- clock.Clock.now () +. delay
  | None -> t.gave_up <- true

let try_reopen t ~(clock : Clock.t) =
  if (not t.gave_up) && clock.Clock.now () >= t.retry_at then begin
    (* Rebind to the requested port — except that a source bound
       ephemerally must reclaim the port it already announced. *)
    let port = if t.port = 0 then Dsim.Addr.port t.bound else t.port in
    match bind_socket ~host:t.host ~port ~recv_buffer:t.recv_buffer with
    | sock, bound ->
        t.sock <- Some sock;
        t.bound <- bound;
        t.reopens <- t.reopens + 1
    | exception _ -> fail t ~clock
  end

let recv_batch t ~clock ~max =
  if t.sock = None then try_reopen t ~clock;
  match t.sock with
  | None -> []
  | Some sock ->
      let rec go acc n =
        if n >= max then List.rev acc
        else
          match Unix.recvfrom sock t.buf 0 (Bytes.length t.buf) [] with
          | len, from ->
              t.received <- t.received + 1;
              Backoff.reset t.backoff;
              let d = { src = addr_of_sockaddr from; payload = Bytes.sub_string t.buf 0 len } in
              go (d :: acc) (n + 1)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              List.rev acc
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
              (* Linux surfaces stale ICMP errors on unconnected UDP
                 sockets; the socket itself is healthy — keep draining. *)
              go acc n
          | exception Unix.Unix_error (_, _, _) ->
              fail t ~clock;
              List.rev acc
      in
      go [] 0

let stats t =
  {
    received = t.received;
    recv_errors = t.recv_errors;
    reopens = t.reopens;
    gave_up = t.gave_up;
  }
