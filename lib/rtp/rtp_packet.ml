type t = {
  version : int;
  padding : bool;
  marker : bool;
  payload_type : int;
  sequence : int;
  timestamp : int32;
  ssrc : int32;
  csrc : int32 list;
  payload : string;
}

let make ?(marker = false) ~payload_type ~sequence ~timestamp ~ssrc payload =
  if payload_type < 0 || payload_type > 127 then invalid_arg "Rtp_packet.make: payload_type";
  {
    version = 2;
    padding = false;
    marker;
    payload_type;
    sequence = sequence land 0xFFFF;
    timestamp;
    ssrc;
    csrc = [];
    payload;
  }

let encode t =
  let n = List.length t.csrc in
  if n > 15 then invalid_arg "Rtp_packet.encode: too many CSRCs";
  let header = Bytes.create (12 + (4 * n)) in
  let b0 =
    (t.version land 0x3) lsl 6
    lor ((if t.padding then 1 else 0) lsl 5)
    lor (0 lsl 4) (* extension bit: we never generate extensions *)
    lor (n land 0xF)
  in
  let b1 = ((if t.marker then 1 else 0) lsl 7) lor (t.payload_type land 0x7F) in
  Bytes.set_uint8 header 0 b0;
  Bytes.set_uint8 header 1 b1;
  Bytes.set_uint16_be header 2 (t.sequence land 0xFFFF);
  Bytes.set_int32_be header 4 t.timestamp;
  Bytes.set_int32_be header 8 t.ssrc;
  List.iteri (fun i csrc -> Bytes.set_int32_be header (12 + (4 * i)) csrc) t.csrc;
  Bytes.to_string header ^ t.payload

let decode s =
  let len = String.length s in
  if len < 12 then Error "RTP: shorter than fixed header"
  else begin
    let b = Bytes.unsafe_of_string s in
    let b0 = Bytes.get_uint8 b 0 in
    let version = b0 lsr 6 in
    if version <> 2 then Error (Printf.sprintf "RTP: version %d" version)
    else begin
      let padding = b0 land 0x20 <> 0 in
      let extension = b0 land 0x10 <> 0 in
      let cc = b0 land 0xF in
      let b1 = Bytes.get_uint8 b 1 in
      let marker = b1 land 0x80 <> 0 in
      let payload_type = b1 land 0x7F in
      let sequence = Bytes.get_uint16_be b 2 in
      let timestamp = Bytes.get_int32_be b 4 in
      let ssrc = Bytes.get_int32_be b 8 in
      let after_fixed = 12 + (4 * cc) in
      if len < after_fixed then Error "RTP: truncated CSRC list"
      else begin
        let csrc = List.init cc (fun i -> Bytes.get_int32_be b (12 + (4 * i))) in
        let payload_start =
          if not extension then Ok after_fixed
          else if len < after_fixed + 4 then Error "RTP: truncated extension header"
          else begin
            let words = Bytes.get_uint16_be b (after_fixed + 2) in
            let start = after_fixed + 4 + (4 * words) in
            if len < start then Error "RTP: truncated extension body" else Ok start
          end
        in
        match payload_start with
        | Error e -> Error e
        | Ok start ->
            let payload_end =
              if not padding then Ok len
              else begin
                let pad = Bytes.get_uint8 b (len - 1) in
                if pad = 0 || len - pad < start then Error "RTP: bad padding"
                else Ok (len - pad)
              end
            in
            (match payload_end with
            | Error e -> Error e
            | Ok stop ->
                Ok
                  {
                    version;
                    padding;
                    marker;
                    payload_type;
                    sequence;
                    timestamp;
                    ssrc;
                    csrc;
                    payload = String.sub s start (stop - start);
                  })
      end
    end
  end

let seq_delta a b =
  let d = (b - a) land 0xFFFF in
  if d >= 0x8000 then d - 0x10000 else d

let ts_delta a b =
  let d = Int32.sub b a in
  Int32.to_int d
