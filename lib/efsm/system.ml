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

type hooks = {
  on_alert : string -> notification -> unit;
  on_anomaly : string -> notification -> unit;
}

(* An armed timer, at most one per (machine, timer id). *)
type armed = { machine_name : string; id : string; handle : Dsim.Scheduler.timer }

(* A system holds one or two machines, a few armed timers and rarely more
   than one pending sync event, so all three are plain lists: a hash table
   or a [Queue] per system cost more than the machines' own state.  The
   hooks are shared by every system of a kind; the owner is a string its
   record already holds. *)
type t = {
  timer_host : timer_host;
  hooks : hooks;
  owner : string;
  shared : Env.globals;
  mutable machines : Machine.t list; (* in creation order *)
  mutable pending : (string * Event.t) list; (* target machine, event — newest first *)
  mutable timers : armed list;
  mutable released : bool;
}

let create ~hooks ~owner timer_host =
  {
    timer_host;
    hooks;
    owner;
    shared = Env.globals ();
    machines = [];
    pending = [];
    timers = [];
    released = false;
  }

let globals t = t.shared
let owner t = t.owner

(* Raises [Not_found], so that a lookup allocates nothing. *)
let rec find_machine name = function
  | [] -> raise Not_found
  | m :: rest -> if String.equal (Machine.name m) name then m else find_machine name rest

let machine t name =
  match find_machine name t.machines with m -> Some m | exception Not_found -> None

let add_machine t program =
  let m = Machine.instantiate program ~globals:t.shared in
  let name = Machine.name m in
  if Option.is_some (machine t name) then
    invalid_arg (Printf.sprintf "System.add_machine: duplicate machine %S" name);
  t.machines <- t.machines @ [ m ];
  m

let is_timer machine_name id a = String.equal a.machine_name machine_name && String.equal a.id id

let rec find_timer machine_name id = function
  | [] -> None
  | a :: rest -> if is_timer machine_name id a then Some a else find_timer machine_name id rest

let rec without_timer machine_name id = function
  | [] -> []
  | a :: rest ->
      if is_timer machine_name id a then rest else a :: without_timer machine_name id rest

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
  t.timers <- { machine_name; id; handle } :: t.timers

and apply_effects t machine_name = function
  | [] -> ()
  | effect :: rest ->
      (match effect with
      | Machine.Send_sync { target; event_name; args } ->
          let event =
            Event.make ~args (Event.Sync { from_machine = machine_name })
              ~at:(t.timer_host.now ()) event_name
          in
          t.pending <- (target, event) :: t.pending
      | Machine.Set_timer { id; delay } -> arm_timer t machine_name id ~delay
      | Machine.Cancel_timer id -> cancel_timer t machine_name id);
      apply_effects t machine_name rest

and feed t machine_name event ~is_data =
  match find_machine machine_name t.machines with
  | exception Not_found ->
      t.hooks.on_anomaly t.owner
        { machine = machine_name; state = "?"; event; detail = "no such machine in system" }
  | m -> (
      match Machine.step m event with
      | Machine.Moved { effects; attack; _ } -> (
          apply_effects t machine_name effects;
          match attack with
          | None -> ()
          | Some detail ->
              t.hooks.on_alert t.owner
                { machine = machine_name; state = Machine.state m; event; detail })
      | Machine.Rejected ->
          (* Unmatched timers and sync messages are absorbed silently (a
             machine past the relevant state no longer cares); an unmatched
             data packet is a specification deviation. *)
          if is_data then
            t.hooks.on_anomaly t.owner
              {
                machine = machine_name;
                state = Machine.state m;
                event;
                detail = "event rejected: no enabled transition";
              }
      | Machine.Nondeterministic labels ->
          t.hooks.on_anomaly t.owner
            {
              machine = machine_name;
              state = Machine.state m;
              event;
              detail =
                "nondeterministic specification: " ^ String.concat ", " labels;
            })

(* Takes every pending event, feeds them oldest first and repeats until
   none is left: an event sent while a batch drains runs after that batch,
   the order one FIFO queue gives.  A machine that raises abandons the
   rest of its batch; the engine quarantines a record whose machine
   faults on a packet. *)
and drain_sync t =
  match t.pending with
  | [] -> ()
  | batch ->
      t.pending <- [];
      feed_batch t batch;
      drain_sync t

(* A newest-first batch, fed oldest first without reversing it. *)
and feed_batch t = function
  | [] -> ()
  | (target, event) :: older ->
      feed_batch t older;
      feed t target event ~is_data:false

let inject t ~machine event =
  drain_sync t;
  feed t machine event ~is_data:true;
  drain_sync t

(* --------------------------------------------------------------- *)
(* Checkpoint support                                               *)
(* --------------------------------------------------------------- *)

let pending_sync t = List.rev t.pending
let push_sync t ~target event = t.pending <- (target, event) :: t.pending

let pending_timers t =
  List.map (fun a -> (a.machine_name, a.id, Dsim.Scheduler.fire_time a.handle)) t.timers
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
