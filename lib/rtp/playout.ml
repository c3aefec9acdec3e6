type t = { target_delay : Dsim.Time.t; mutable received : int; mutable late : int }

let create ~target_delay = { target_delay; received = 0; late = 0 }

let offer t ~capture ~arrival =
  t.received <- t.received + 1;
  let deadline = Dsim.Time.add capture t.target_delay in
  if Dsim.Time.( > ) arrival deadline then begin
    t.late <- t.late + 1;
    `Late
  end
  else `On_time

let received t = t.received

let late_fraction t =
  if t.received = 0 then 0.0 else float_of_int t.late /. float_of_int t.received
