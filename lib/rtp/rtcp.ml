type report_block = {
  ssrc : int32;
  fraction_lost : int;
  cumulative_lost : int;
  highest_seq : int32;
  jitter : int32;
}

type t =
  | Sender_report of {
      ssrc : int32;
      ntp_sec : int32;
      rtp_ts : int32;
      packet_count : int32;
      octet_count : int32;
      blocks : report_block list;
    }
  | Receiver_report of { ssrc : int32; blocks : report_block list }

let pt_sr = 200
let pt_rr = 201

let block_bytes block =
  let b = Bytes.create 24 in
  Bytes.set_int32_be b 0 block.ssrc;
  Bytes.set_uint8 b 4 (block.fraction_lost land 0xFF);
  (* 24-bit cumulative loss *)
  Bytes.set_uint8 b 5 ((block.cumulative_lost lsr 16) land 0xFF);
  Bytes.set_uint8 b 6 ((block.cumulative_lost lsr 8) land 0xFF);
  Bytes.set_uint8 b 7 (block.cumulative_lost land 0xFF);
  Bytes.set_int32_be b 8 block.highest_seq;
  Bytes.set_int32_be b 12 block.jitter;
  Bytes.set_int32_be b 16 0l (* LSR *);
  Bytes.set_int32_be b 20 0l (* DLSR *);
  b

let decode_block b off =
  {
    ssrc = Bytes.get_int32_be b off;
    fraction_lost = Bytes.get_uint8 b (off + 4);
    cumulative_lost =
      (Bytes.get_uint8 b (off + 5) lsl 16)
      lor (Bytes.get_uint8 b (off + 6) lsl 8)
      lor Bytes.get_uint8 b (off + 7);
    highest_seq = Bytes.get_int32_be b (off + 8);
    jitter = Bytes.get_int32_be b (off + 12);
  }

let encode t =
  let blocks, pt, ssrc, sr_info =
    match t with
    | Sender_report { ssrc; ntp_sec; rtp_ts; packet_count; octet_count; blocks } ->
        (blocks, pt_sr, ssrc, Some (ntp_sec, rtp_ts, packet_count, octet_count))
    | Receiver_report { ssrc; blocks } -> (blocks, pt_rr, ssrc, None)
  in
  let n = List.length blocks in
  if n > 31 then invalid_arg "Rtcp.encode: too many report blocks";
  let sr_len = match sr_info with Some _ -> 20 | None -> 0 in
  let total = 8 + sr_len + (24 * n) in
  let words = (total / 4) - 1 in
  let b = Bytes.create total in
  Bytes.set_uint8 b 0 ((2 lsl 6) lor n);
  Bytes.set_uint8 b 1 pt;
  Bytes.set_uint16_be b 2 words;
  Bytes.set_int32_be b 4 ssrc;
  (match sr_info with
  | None -> ()
  | Some (ntp_sec, rtp_ts, packet_count, octet_count) ->
      Bytes.set_int32_be b 8 ntp_sec;
      Bytes.set_int32_be b 12 0l (* NTP fraction *);
      Bytes.set_int32_be b 16 rtp_ts;
      Bytes.set_int32_be b 20 packet_count;
      Bytes.set_int32_be b 24 octet_count);
  List.iteri
    (fun i block -> Bytes.blit (block_bytes block) 0 b (8 + sr_len + (24 * i)) 24)
    blocks;
  Bytes.to_string b

let decode s =
  let len = String.length s in
  if len < 8 then Error "RTCP: too short"
  else begin
    let b = Bytes.unsafe_of_string s in
    let b0 = Bytes.get_uint8 b 0 in
    if b0 lsr 6 <> 2 then Error "RTCP: bad version"
    else begin
      let count = b0 land 0x1F in
      let pt = Bytes.get_uint8 b 1 in
      let ssrc = Bytes.get_int32_be b 4 in
      let read_blocks off =
        if len < off + (24 * count) then Error "RTCP: truncated report blocks"
        else Ok (List.init count (fun i -> decode_block b (off + (24 * i))))
      in
      if pt = pt_sr then
        if len < 28 then Error "RTCP: truncated sender info"
        else
          Result.map
            (fun blocks ->
              Sender_report
                {
                  ssrc;
                  ntp_sec = Bytes.get_int32_be b 8;
                  rtp_ts = Bytes.get_int32_be b 16;
                  packet_count = Bytes.get_int32_be b 20;
                  octet_count = Bytes.get_int32_be b 24;
                  blocks;
                })
            (read_blocks 28)
      else if pt = pt_rr then
        Result.map (fun blocks -> Receiver_report { ssrc; blocks }) (read_blocks 8)
      else Error (Printf.sprintf "RTCP: unsupported packet type %d" pt)
    end
  end
