type 'sip verdict =
  | Sip of 'sip
  | Rtp of Rtp.Rtp_packet.t
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

let media ?prof ~known_media (packet : Dsim.Packet.t) =
  let enter s = match prof with None -> () | Some p -> Obs.Prof.enter p s in
  let leave s = match prof with None -> () | Some p -> Obs.Prof.exit p s in
  let dst_port = packet.dst.Dsim.Addr.port in
  if known_media packet.dst || in_rtp_range dst_port then
    if dst_port land 1 = 0 then begin
      enter Obs.Prof.Rtp_parse;
      let decoded = Rtp.Rtp_packet.decode packet.payload in
      leave Obs.Prof.Rtp_parse;
      match decoded with Ok p -> Rtp p | Error e -> Malformed_rtp e
    end
    else begin
      enter Obs.Prof.Rtp_parse;
      let decoded = Rtp.Rtcp.decode packet.payload in
      leave Obs.Prof.Rtp_parse;
      match decoded with Ok r -> Rtcp r | Error e -> Malformed_rtp e
    end
  else Other

let enter prof = match prof with None -> () | Some p -> Obs.Prof.enter p Obs.Prof.Sip_parse
let leave prof = match prof with None -> () | Some p -> Obs.Prof.exit p Obs.Prof.Sip_parse

let classify ?prof ~known_media (packet : Dsim.Packet.t) =
  if is_sip packet then begin
    enter prof;
    let parsed = Sip.Msg.parse packet.payload in
    leave prof;
    match parsed with Ok msg -> Sip msg | Error e -> Malformed_sip e
  end
  else media ?prof ~known_media packet

let read ?prof index ~known_media (packet : Dsim.Packet.t) =
  if is_sip packet then begin
    enter prof;
    let indexed = Sip.Index.read index packet.payload in
    leave prof;
    match indexed with Ok () -> Sip () | Error e -> Malformed_sip e
  end
  else media ?prof ~known_media packet
