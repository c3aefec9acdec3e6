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

exception Malformed of string

(* Where the payload ends: before the padding, whose last byte counts it. *)
let payload_end s =
  let len = String.length s in
  if String.get_uint8 s 0 land 0x20 = 0 then len else len - String.get_uint8 s (len - 1)

let payload_length s =
  let len = String.length s in
  if len < 12 then raise (Malformed "RTP: shorter than fixed header");
  let b0 = String.get_uint8 s 0 in
  if b0 lsr 6 <> 2 then raise (Malformed (Printf.sprintf "RTP: version %d" (b0 lsr 6)));
  let after_fixed = 12 + (4 * (b0 land 0xF)) in
  if len < after_fixed then raise (Malformed "RTP: truncated CSRC list");
  let start =
    if b0 land 0x10 = 0 then after_fixed
    else if len < after_fixed + 4 then raise (Malformed "RTP: truncated extension header")
    else after_fixed + 4 + (4 * String.get_uint16_be s (after_fixed + 2))
  in
  if len < start then raise (Malformed "RTP: truncated extension body");
  let stop = payload_end s in
  if b0 land 0x20 <> 0 && (stop = len || stop < start) then raise (Malformed "RTP: bad padding");
  stop - start

let payload_type_of s = String.get_uint8 s 1 land 0x7F
let sequence_of s = String.get_uint16_be s 2
let timestamp_of s = Int32.to_int (String.get_int32_be s 4)
let ssrc_of s = Int32.to_int (String.get_int32_be s 8)

let decode s =
  match payload_length s with
  | exception Malformed e -> Error e
  | size ->
      let b0 = String.get_uint8 s 0 in
      Ok
        {
          version = 2;
          padding = b0 land 0x20 <> 0;
          marker = String.get_uint8 s 1 land 0x80 <> 0;
          payload_type = payload_type_of s;
          sequence = sequence_of s;
          timestamp = Int32.of_int (timestamp_of s);
          ssrc = Int32.of_int (ssrc_of s);
          csrc = List.init (b0 land 0xF) (fun i -> String.get_int32_be s (12 + (4 * i)));
          payload = String.sub s (payload_end s - size) size;
        }

let seq_delta a b =
  let d = (b - a) land 0xFFFF in
  if d >= 0x8000 then d - 0x10000 else d

let ts_delta a b =
  let d = Int32.sub b a in
  Int32.to_int d
