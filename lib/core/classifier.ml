type 'sip verdict =
  | Sip of 'sip
  | Rtp of int
  | Rtcp of Rtp.Rtcp.t
  | Malformed_sip of string
  | Malformed_rtp of string
  | Other

type classification = Sip.Msg.t verdict

let sip_port = 5060
let rtp_port_range = (16384, 32767)

let in_rtp_range port =
  let lo, hi = rtp_port_range in
  port >= lo && port <= hi

let is_sip (packet : Dsim.Packet.t) =
  packet.dst.Dsim.Addr.port = sip_port || packet.src.Dsim.Addr.port = sip_port

let quick_protocol (packet : Dsim.Packet.t) =
  if is_sip packet then `Sip
  else if in_rtp_range packet.dst.Dsim.Addr.port then `Media
  else `Other

let enter prof stage = match prof with None -> () | Some p -> Obs.Prof.enter p stage
let leave prof stage = match prof with None -> () | Some p -> Obs.Prof.exit p stage

(* The range test runs first: both are pure, and it is the cheaper. *)
let media ?prof ~known_media (packet : Dsim.Packet.t) =
  let dst_port = packet.dst.Dsim.Addr.port in
  if in_rtp_range dst_port || known_media packet.dst then
    if dst_port land 1 = 0 then begin
      enter prof Obs.Prof.Rtp_parse;
      match Rtp.Rtp_packet.payload_length packet.payload with
      | size ->
          leave prof Obs.Prof.Rtp_parse;
          Rtp size
      | exception Rtp.Rtp_packet.Malformed e ->
          leave prof Obs.Prof.Rtp_parse;
          Malformed_rtp e
    end
    else begin
      enter prof Obs.Prof.Rtp_parse;
      let decoded = Rtp.Rtcp.decode packet.payload in
      leave prof Obs.Prof.Rtp_parse;
      match decoded with Ok r -> Rtcp r | Error e -> Malformed_rtp e
    end
  else Other

let classify ?prof ~known_media (packet : Dsim.Packet.t) =
  if is_sip packet then begin
    enter prof Obs.Prof.Sip_parse;
    let parsed = Sip.Msg.parse packet.payload in
    leave prof Obs.Prof.Sip_parse;
    match parsed with Ok msg -> Sip msg | Error e -> Malformed_sip e
  end
  else media ?prof ~known_media packet

let read ?prof index ~known_media (packet : Dsim.Packet.t) =
  if is_sip packet then begin
    enter prof Obs.Prof.Sip_parse;
    let indexed = Sip.Index.read index packet.payload in
    leave prof Obs.Prof.Sip_parse;
    match indexed with Ok () -> Sip () | Error e -> Malformed_sip e
  end
  else media ?prof ~known_media packet
