type transport = { sched : Dsim.Scheduler.t; send : Msg.t -> Dsim.Addr.t -> unit }

let cancel_opt = function None -> () | Some timer -> Dsim.Scheduler.cancel timer

module Client = struct
  type state = Calling | Trying | Proceeding | Completed | Terminated

  type t = {
    transport : transport;
    request : Msg.t;
    dst : Dsim.Addr.t;
    invite : bool;
    branch : string;
    on_response : Msg.t -> unit;
    on_timeout : unit -> unit;
    on_terminated : unit -> unit;
    mutable state : state;
    mutable retransmit_timer : Dsim.Scheduler.timer option;
    mutable timeout_timer : Dsim.Scheduler.timer option;
    mutable linger_timer : Dsim.Scheduler.timer option;
    mutable retransmissions : int;
    mutable ack : Msg.t option; (* ACK sent for a non-2xx final (INVITE only) *)
  }

  let state t = t.state

  let terminate t =
    if t.state <> Terminated then begin
      t.state <- Terminated;
      cancel_opt t.retransmit_timer;
      cancel_opt t.timeout_timer;
      cancel_opt t.linger_timer;
      t.on_terminated ()
    end

  (* Timer A / E: retransmit while no response, doubling the interval
     (capped at T2 for non-INVITE). *)
  let rec arm_retransmit t interval =
    t.retransmit_timer <-
      Some
        (Dsim.Scheduler.schedule_after t.transport.sched interval (fun () ->
             let retransmit_allowed =
               match t.state with
               | Calling -> true
               | Trying | Proceeding -> not t.invite
               | Completed | Terminated -> false
             in
             if retransmit_allowed then begin
               t.retransmissions <- t.retransmissions + 1;
               t.transport.send t.request t.dst;
               let interval' =
                 if t.invite then 2 * interval else Dsim.Time.min (2 * interval) Timers.t2
               in
               arm_retransmit t interval'
             end))

  let create transport request ~dst ~on_response ~on_timeout ~on_terminated =
    let invite = Msg.method_of request = Some Msg_method.INVITE in
    let branch =
      match Msg.top_via request with
      | Ok via -> Option.value (Via.branch via) ~default:"no-branch"
      | Error _ -> "no-branch"
    in
    let t =
      {
        transport;
        request;
        dst;
        invite;
        branch;
        on_response;
        on_timeout;
        on_terminated;
        state = (if invite then Calling else Trying);
        retransmit_timer = None;
        timeout_timer = None;
        linger_timer = None;
        retransmissions = 0;
        ack = None;
      }
    in
    transport.send request dst;
    arm_retransmit t Timers.t1;
    let timeout = if invite then Timers.timer_b else Timers.timer_f in
    t.timeout_timer <-
      Some
        (Dsim.Scheduler.schedule_after transport.sched timeout (fun () ->
             match t.state with
             | Calling | Trying | Proceeding ->
                 t.on_timeout ();
                 terminate t
             | Completed | Terminated -> ()));
    t

  let send_ack t response =
    let ack =
      match t.ack with
      | Some ack -> ack
      | None ->
          let ack = Msg.ack_for t.request ~response in
          t.ack <- Some ack;
          ack
    in
    t.transport.send ack t.dst

  let receive t response =
    match Msg.status_of response with
    | None -> () (* requests never reach a client transaction *)
    | Some code -> (
        match t.state with
        | Terminated -> ()
        | Completed ->
            (* Response retransmission: replay ACK for INVITE non-2xx. *)
            if t.invite && code >= 300 then send_ack t response
        | Calling | Trying | Proceeding ->
            if Status.is_provisional code then begin
              t.state <- Proceeding;
              t.on_response response
            end
            else if Status.is_success code then begin
              (* 2xx: transaction ends; the TU handles the ACK (INVITE) or
                 nothing further (non-INVITE). *)
              t.on_response response;
              if t.invite then terminate t
              else begin
                t.state <- Completed;
                cancel_opt t.retransmit_timer;
                cancel_opt t.timeout_timer;
                t.linger_timer <-
                  Some (Dsim.Scheduler.schedule_after t.transport.sched Timers.t4 (fun () ->
                           terminate t))
              end
            end
            else begin
              (* Final non-2xx. *)
              t.on_response response;
              t.state <- Completed;
              cancel_opt t.retransmit_timer;
              cancel_opt t.timeout_timer;
              if t.invite then send_ack t response;
              let linger = if t.invite then Timers.timer_d else Timers.t4 in
              t.linger_timer <-
                Some (Dsim.Scheduler.schedule_after t.transport.sched linger (fun () ->
                         terminate t))
            end)
end

module Server = struct
  type state = Trying | Proceeding | Completed | Accepted | Confirmed | Terminated

  type t = {
    transport : transport;
    request : Msg.t;
    src : Dsim.Addr.t;
    invite : bool;
    key : string;
    on_ack : Msg.t -> unit;
    on_terminated : unit -> unit;
    mutable state : state;
    mutable last_response : Msg.t option;
    mutable retransmit_timer : Dsim.Scheduler.timer option;
    mutable timeout_timer : Dsim.Scheduler.timer option;
    mutable linger_timer : Dsim.Scheduler.timer option;
  }

  let state t = t.state
  let request t = t.request

  let terminate t =
    if t.state <> Terminated then begin
      t.state <- Terminated;
      cancel_opt t.retransmit_timer;
      cancel_opt t.timeout_timer;
      cancel_opt t.linger_timer;
      t.on_terminated ()
    end

  let create transport request ~src ~on_ack ~on_terminated =
    let invite = Msg.method_of request = Some Msg_method.INVITE in
    let key = match Msg.transaction_key request with Ok k -> k | Error e -> "bad-key:" ^ e in
    {
      transport;
      request;
      src;
      invite;
      key;
      on_ack;
      on_terminated;
      state = (if invite then Proceeding else Trying);
      last_response = None;
      retransmit_timer = None;
      timeout_timer = None;
      linger_timer = None;
    }

  (* Timer G: retransmit the final INVITE response until ACK, doubling up
     to T2.  Used for both non-2xx (Completed) and 2xx (Accepted). *)
  let rec arm_response_retransmit t interval =
    t.retransmit_timer <-
      Some
        (Dsim.Scheduler.schedule_after t.transport.sched interval (fun () ->
             match (t.state, t.last_response) with
             | (Completed | Accepted), Some response ->
                 t.transport.send response t.src;
                 arm_response_retransmit t (Dsim.Time.min (2 * interval) Timers.t2)
             | _ -> ()))

  let respond t response =
    match t.state with
    | Terminated | Confirmed -> ()
    | Trying | Proceeding | Completed | Accepted -> (
        t.last_response <- Some response;
        t.transport.send response t.src;
        match Msg.status_of response with
        | None -> ()
        | Some code ->
            if Status.is_provisional code then begin
              if t.state = Trying then t.state <- Proceeding
            end
            else if t.invite then begin
              t.state <- (if Status.is_success code then Accepted else Completed);
              arm_response_retransmit t Timers.t1;
              t.timeout_timer <-
                Some
                  (Dsim.Scheduler.schedule_after t.transport.sched Timers.timer_h (fun () ->
                       terminate t))
            end
            else begin
              t.state <- Completed;
              t.linger_timer <-
                Some
                  (Dsim.Scheduler.schedule_after t.transport.sched Timers.timer_j (fun () ->
                       terminate t))
            end)

  let receive t msg =
    match Msg.method_of msg with
    | Some Msg_method.ACK when t.invite -> (
        match t.state with
        | Completed | Accepted ->
            t.state <- Confirmed;
            cancel_opt t.retransmit_timer;
            cancel_opt t.timeout_timer;
            t.on_ack msg;
            t.linger_timer <-
              Some (Dsim.Scheduler.schedule_after t.transport.sched Timers.t4 (fun () ->
                       terminate t))
        | Trying | Proceeding | Confirmed | Terminated -> ())
    | Some _ | None -> (
        (* Request retransmission: replay the latest response, if any. *)
        match (t.state, t.last_response) with
        | (Proceeding | Completed | Accepted), Some response -> t.transport.send response t.src
        | _ -> ())
end
