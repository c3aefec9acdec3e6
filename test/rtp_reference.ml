(* Reference model for [Rtp.Rtp_packet.decode]: the decoder as it was
   written before it shared its header reader with the engine, each check
   in line, the way RFC 3550 §5.1 lays the header out.  [Test_rtp_diff]
   holds [decode] to it. *)

module P = Rtp.Rtp_packet

let decode s =
  let len = String.length s in
  if len < 12 then Error "RTP: shorter than fixed header"
  else
    let b0 = Char.code s.[0] in
    let version = b0 lsr 6 in
    if version <> 2 then Error (Printf.sprintf "RTP: version %d" version)
    else
      let cc = b0 land 0xF in
      let after_fixed = 12 + (4 * cc) in
      if len < after_fixed then Error "RTP: truncated CSRC list"
      else
        let start =
          if b0 land 0x10 = 0 then Ok after_fixed
          else if len < after_fixed + 4 then Error "RTP: truncated extension header"
          else
            let start = after_fixed + 4 + (4 * String.get_uint16_be s (after_fixed + 2)) in
            if len < start then Error "RTP: truncated extension body" else Ok start
        in
        let stop start =
          if b0 land 0x20 = 0 then Ok len
          else
            let pad = Char.code s.[len - 1] in
            if pad = 0 || len - pad < start then Error "RTP: bad padding" else Ok (len - pad)
        in
        match start with
        | Error e -> Error e
        | Ok start -> (
            match stop start with
            | Error e -> Error e
            | Ok stop ->
                Ok
                  {
                    P.version;
                    padding = b0 land 0x20 <> 0;
                    marker = Char.code s.[1] land 0x80 <> 0;
                    payload_type = Char.code s.[1] land 0x7F;
                    sequence = String.get_uint16_be s 2;
                    timestamp = String.get_int32_be s 4;
                    ssrc = String.get_int32_be s 8;
                    csrc = List.init cc (fun i -> String.get_int32_be s (12 + (4 * i)));
                    payload = String.sub s start (stop - start);
                  })
