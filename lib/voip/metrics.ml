module Stat = Dsim.Stat

type t = {
  arrivals : Stat.Series.t;
  setups : (string, Stat.Series.t) Hashtbl.t;
  setup_all : Stat.Summary.t;
  rtp_delay : Stat.Series.t;
  delay_variation : Stat.Series.t;
  jitter : Stat.Summary.t;
  playout_late : Stat.Summary.t;
  mutable attempted : int;
  mutable established : int;
  mutable completed : int;
  mutable failed : int;
}

let create () =
  {
    arrivals = Stat.Series.create ();
    setups = Hashtbl.create 32;
    setup_all = Stat.Summary.create ();
    rtp_delay = Stat.Series.create ();
    delay_variation = Stat.Series.create ();
    jitter = Stat.Summary.create ();
    playout_late = Stat.Summary.create ();
    attempted = 0;
    established = 0;
    completed = 0;
    failed = 0;
  }

let record_call_arrival t ~at ~duration =
  Stat.Series.add t.arrivals at (Dsim.Time.to_sec duration)

let arrivals t = t.arrivals

let record_setup t ~caller ~at ~delay =
  let series =
    match Hashtbl.find_opt t.setups caller with
    | Some s -> s
    | None ->
        let s = Stat.Series.create () in
        Hashtbl.replace t.setups caller s;
        s
  in
  let seconds = Dsim.Time.to_sec delay in
  Stat.Series.add series at seconds;
  Stat.Summary.add t.setup_all seconds

let setup_series t ~caller = Hashtbl.find_opt t.setups caller
let setup_all t = t.setup_all
let callers t = Hashtbl.fold (fun k _ acc -> k :: acc) t.setups [] |> List.sort String.compare
let record_rtp_delay t ~at ~delay = Stat.Series.add t.rtp_delay at (Dsim.Time.to_sec delay)
let record_delay_variation t ~at ~variation = Stat.Series.add t.delay_variation at variation
let record_jitter t j = Stat.Summary.add t.jitter j
let record_playout_late t fraction = Stat.Summary.add t.playout_late fraction
let playout_late_summary t = t.playout_late
let rtp_delay t = t.rtp_delay
let delay_variation t = t.delay_variation
let jitter_summary t = t.jitter
let incr_attempted t = t.attempted <- t.attempted + 1
let incr_established t = t.established <- t.established + 1
let incr_completed t = t.completed <- t.completed + 1
let incr_failed t = t.failed <- t.failed + 1
let attempted t = t.attempted
let established t = t.established
let completed t = t.completed
let failed t = t.failed
