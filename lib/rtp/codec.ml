type t = {
  name : string;
  payload_type : int;
  clock_rate : int;
  frame_ms : float;
  frames_per_packet : int;
  bytes_per_frame : int;
}

let g729 =
  {
    name = "G.729";
    payload_type = 18;
    clock_rate = 8000;
    frame_ms = 10.0;
    frames_per_packet = 2;
    bytes_per_frame = 10;
  }

let packet_interval t = Dsim.Time.of_ms (t.frame_ms *. float_of_int t.frames_per_packet)

let timestamp_increment t =
  int_of_float
    (float_of_int t.clock_rate *. t.frame_ms *. float_of_int t.frames_per_packet /. 1000.0)

let payload_size t = t.bytes_per_frame * t.frames_per_packet
