type t = {
  clock_rate : int;
  mutable jitter : float; (* in timestamp ticks *)
  mutable last : (Dsim.Time.t * int32) option;
}

let create ~clock_rate = { clock_rate; jitter = 0.0; last = None }

let observe t ~arrival ~rtp_timestamp =
  (match t.last with
  | None -> ()
  | Some (prev_arrival, prev_ts) ->
      let arrival_ticks =
        Dsim.Time.to_sec (Dsim.Time.sub arrival prev_arrival) *. float_of_int t.clock_rate
      in
      let ts_ticks = float_of_int (Rtp_packet.ts_delta prev_ts rtp_timestamp) in
      let d = Float.abs (arrival_ticks -. ts_ticks) in
      t.jitter <- t.jitter +. ((d -. t.jitter) /. 16.0));
  t.last <- Some (arrival, rtp_timestamp)

let jitter_seconds t = t.jitter /. float_of_int t.clock_rate
