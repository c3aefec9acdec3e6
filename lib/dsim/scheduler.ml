type state = Pending | Fired | Cancelled

type timer = {
  fire_at : Time.t;
  seq : int;
  action : unit -> unit;
  mutable state : state;
  owner : t;
}

and t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable live : int; (* queued timers still in Pending state *)
  queue : timer Heap.t;
}

let cmp_timer a b =
  let c = Time.compare a.fire_at b.fire_at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () = { clock = Time.zero; next_seq = 0; live = 0; queue = Heap.create ~cmp:cmp_timer }
let now t = t.clock

let schedule_at t when_ action =
  if Time.( < ) when_ t.clock then
    invalid_arg
      (Format.asprintf "Scheduler.schedule_at: %a is in the past (now %a)" Time.pp when_ Time.pp
         t.clock);
  let timer = { fire_at = when_; seq = t.next_seq; action; state = Pending; owner = t } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Heap.push t.queue timer;
  timer

let schedule_after t delay action = schedule_at t (Time.add t.clock delay) action

let cancel timer =
  match timer.state with
  | Pending ->
      timer.state <- Cancelled;
      timer.owner.live <- timer.owner.live - 1
  | Fired | Cancelled -> ()

let fire_time timer = timer.fire_at
let pending t = t.live

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some timer ->
      t.clock <- timer.fire_at;
      (match timer.state with
      | Pending ->
          timer.state <- Fired;
          t.live <- t.live - 1;
          timer.action ()
      | Cancelled | Fired -> ());
      true

let run t = while step t do () done

let run_until t limit =
  let continue = ref true in
  while !continue do
    match Heap.peek t.queue with
    | Some timer when Time.( <= ) timer.fire_at limit -> ignore (step t)
    | Some _ | None -> continue := false
  done;
  if Time.( < ) t.clock limit then t.clock <- limit

let advance_to t target =
  let continue = ref true in
  while !continue do
    match Heap.peek t.queue with
    | Some timer when Time.( < ) timer.fire_at target -> ignore (step t)
    | Some _ | None -> continue := false
  done;
  if Time.( < ) t.clock target then t.clock <- target
