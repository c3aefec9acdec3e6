module Sender = struct
  type t = {
    ssrc : int32;
    codec : Codec.t;
    mutable sequence : int;
    mutable timestamp : int32;
    mutable sent : int;
    mutable marker_pending : bool;
  }

  let create ~ssrc ~codec ~initial_seq ~initial_ts =
    {
      ssrc;
      codec;
      sequence = initial_seq land 0xFFFF;
      timestamp = initial_ts;
      sent = 0;
      marker_pending = true;
    }

  let ssrc t = t.ssrc

  let next_packet t =
    let payload = String.make (Codec.payload_size t.codec) '\x55' in
    let packet =
      Rtp_packet.make ~marker:t.marker_pending ~payload_type:t.codec.Codec.payload_type
        ~sequence:t.sequence ~timestamp:t.timestamp ~ssrc:t.ssrc payload
    in
    t.marker_pending <- false;
    t.sequence <- (t.sequence + 1) land 0xFFFF;
    t.timestamp <- Int32.add t.timestamp (Int32.of_int (Codec.timestamp_increment t.codec));
    t.sent <- t.sent + 1;
    packet

  let skip_silence t gap =
    let ticks =
      Dsim.Time.to_sec gap *. float_of_int t.codec.Codec.clock_rate |> Float.round
      |> int_of_float
    in
    t.timestamp <- Int32.add t.timestamp (Int32.of_int ticks);
    t.marker_pending <- true

  let packets_sent t = t.sent
  let current_sequence t = t.sequence
  let current_timestamp t = t.timestamp
end

module Receiver = struct
  type t = { mutable received : int; jitter : Jitter.t }

  let create ~clock_rate = { received = 0; jitter = Jitter.create ~clock_rate }

  let observe t ~arrival (packet : Rtp_packet.t) =
    t.received <- t.received + 1;
    Jitter.observe t.jitter ~arrival ~rtp_timestamp:packet.Rtp_packet.timestamp

  let packets_received t = t.received
  let jitter t = t.jitter
end
