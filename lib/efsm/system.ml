type timer_host = {
  now : unit -> Dsim.Time.t;
  set : Dsim.Time.t -> (unit -> unit) -> Dsim.Scheduler.timer;
  cancel : Dsim.Scheduler.timer -> unit;
}

let timer_host_of_scheduler sched =
  {
    now = (fun () -> Dsim.Scheduler.now sched);
    set = (fun delay f -> Dsim.Scheduler.schedule_after sched delay f);
    cancel = Dsim.Scheduler.cancel;
  }

type notification = { machine : string; state : string; event : Event.t; detail : string }

(* An armed timer, at most one per (machine, timer id). *)
type armed = { owner : string; id : string; handle : Dsim.Scheduler.timer }

(* A system holds one or two machines and a few armed timers, so both are
   plain lists: a hash table per system cost more than the machines' own
   state. *)
type t = {
  timer_host : timer_host;
  on_alert : notification -> unit;
  on_anomaly : notification -> unit;
  shared : Env.globals;
  mutable machines : Machine.t list; (* in creation order *)
  sync_queue : (string * Event.t) Queue.t; (* target machine, event — FIFO across the system *)
  mutable timers : armed list;
  mutable released : bool;
}

let create ?(on_alert = fun _ -> ()) ?(on_anomaly = fun _ -> ()) timer_host =
  {
    timer_host;
    on_alert;
    on_anomaly;
    shared = Env.globals ();
    machines = [];
    sync_queue = Queue.create ();
    timers = [];
    released = false;
  }

let globals t = t.shared

let rec find_machine name = function
  | [] -> None
  | m :: rest -> if String.equal (Machine.name m) name then Some m else find_machine name rest

let add_machine t program =
  let m = Machine.instantiate program ~globals:t.shared in
  let name = Machine.name m in
  if Option.is_some (find_machine name t.machines) then
    invalid_arg (Printf.sprintf "System.add_machine: duplicate machine %S" name);
  t.machines <- t.machines @ [ m ];
  m

let machine t name = find_machine name t.machines
let machines t = t.machines

let is_timer owner id a = String.equal a.owner owner && String.equal a.id id

let rec find_timer owner id = function
  | [] -> None
  | a :: rest -> if is_timer owner id a then Some a else find_timer owner id rest

let rec without_timer owner id = function
  | [] -> []
  | a :: rest -> if is_timer owner id a then rest else a :: without_timer owner id rest

let cancel_timer t machine_name id =
  match find_timer machine_name id t.timers with
  | None -> ()
  | Some a ->
      t.timer_host.cancel a.handle;
      t.timers <- without_timer machine_name id t.timers

let rec arm_timer t machine_name id ~delay =
  cancel_timer t machine_name id;
  let handle =
    t.timer_host.set delay (fun () ->
        t.timers <- without_timer machine_name id t.timers;
        let event = Event.make Event.Timer ~at:(t.timer_host.now ()) id in
        feed t machine_name event ~is_data:false;
        drain_sync t)
  in
  t.timers <- { owner = machine_name; id; handle } :: t.timers

and apply_effects t machine_name = function
  | [] -> ()
  | effect :: rest ->
      (match effect with
      | Machine.Send_sync { target; event_name; args } ->
          let event =
            Event.make ~args (Event.Sync { from_machine = machine_name })
              ~at:(t.timer_host.now ()) event_name
          in
          Queue.add (target, event) t.sync_queue
      | Machine.Set_timer { id; delay } -> arm_timer t machine_name id ~delay
      | Machine.Cancel_timer id -> cancel_timer t machine_name id);
      apply_effects t machine_name rest

and feed t machine_name event ~is_data =
  match find_machine machine_name t.machines with
  | None ->
      t.on_anomaly
        { machine = machine_name; state = "?"; event; detail = "no such machine in system" }
  | Some m -> (
      match Machine.step m event with
      | Machine.Moved { effects; attack; _ } -> (
          apply_effects t machine_name effects;
          match attack with
          | None -> ()
          | Some detail ->
              t.on_alert { machine = machine_name; state = Machine.state m; event; detail })
      | Machine.Rejected ->
          (* Unmatched timers and sync messages are absorbed silently (a
             machine past the relevant state no longer cares); an unmatched
             data packet is a specification deviation. *)
          if is_data then
            t.on_anomaly
              {
                machine = machine_name;
                state = Machine.state m;
                event;
                detail = "event rejected: no enabled transition";
              }
      | Machine.Nondeterministic labels ->
          t.on_anomaly
            {
              machine = machine_name;
              state = Machine.state m;
              event;
              detail =
                "nondeterministic specification: " ^ String.concat ", " labels;
            })

and drain_sync t =
  while not (Queue.is_empty t.sync_queue) do
    let target, event = Queue.take t.sync_queue in
    feed t target event ~is_data:false
  done

let inject t ~machine event =
  drain_sync t;
  feed t machine event ~is_data:true;
  drain_sync t

let queued_sync t = Queue.length t.sync_queue

(* --------------------------------------------------------------- *)
(* Checkpoint support                                               *)
(* --------------------------------------------------------------- *)

let pending_sync t = List.of_seq (Queue.to_seq t.sync_queue)
let push_sync t ~target event = Queue.add (target, event) t.sync_queue

let pending_timers t =
  List.map (fun a -> (a.owner, a.id, Dsim.Scheduler.fire_time a.handle)) t.timers
  |> List.sort compare

let restore_timer t ~machine ~id ~fire_at =
  let now = t.timer_host.now () in
  let delay = if Dsim.Time.( > ) fire_at now then Dsim.Time.sub fire_at now else Dsim.Time.zero in
  arm_timer t machine id ~delay

let estimated_bytes t =
  List.fold_left (fun acc m -> acc + Env.estimated_bytes (Machine.env m)) 0 t.machines

let release t =
  if not t.released then begin
    List.iter (fun a -> t.timer_host.cancel a.handle) t.timers;
    t.timers <- [];
    t.released <- true
  end
