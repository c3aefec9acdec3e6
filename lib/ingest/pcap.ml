(* Classic libpcap reader/writer.

   The reader is written as a total function over arbitrary bytes: every
   length is checked before use, every arithmetic result is bounded, and
   anything surprising becomes [Skipped] (bad frame) or ends the stream
   with [truncated_tail] (bad file).  The decode path allocates the frame,
   the delivered payload and the two dotted-quad hosts, and formats
   nothing. *)

type item = Record of Vids.Trace.record | Skipped of string

(* Magics: A1B2C3D4 = microseconds, A1B23C4D = nanoseconds; each in both
   byte orders. *)
let magic_us = 0xA1B2C3D4l
let magic_us_swapped = 0xD4C3B2A1l
let magic_ns = 0xA1B23C4Dl
let magic_ns_swapped = 0x4D3CB2A1l

(* Link types we can peel. *)
let dlt_null = 0
let dlt_en10mb = 1
let dlt_raw = 101
let dlt_linux_sll = 113

type stats = { frames : int; records : int; skipped : int; truncated_tail : bool }

type reader = {
  ic : in_channel;
  swapped : bool;  (** File byte order differs from the one we read with. *)
  nanos : bool;
  link : int;
  mutable frames : int;
  mutable records : int;
  mutable skipped : int;
  mutable truncated : bool;
  mutable eof : bool;
}

let stats r =
  { frames = r.frames; records = r.records; skipped = r.skipped; truncated_tail = r.truncated }

(* Bounded read: [None] when fewer than [n] bytes remain. *)
let read_exact ic n =
  match really_input_string ic n with
  | s -> Some s
  | exception End_of_file -> None
  | exception Sys_error _ -> None

let u32 ~swapped s off =
  let v = if swapped then String.get_int32_be s off else String.get_int32_le s off in
  Int32.to_int v land 0xFFFFFFFF

let of_channel ic =
  match read_exact ic 24 with
  | None -> Error "not a pcap file: header shorter than 24 bytes"
  | Some hdr -> (
      let magic = String.get_int32_le hdr 0 in
      let order =
        if Int32.equal magic magic_us then Some (false, false)
        else if Int32.equal magic magic_ns then Some (false, true)
        else if Int32.equal magic magic_us_swapped then Some (true, false)
        else if Int32.equal magic magic_ns_swapped then Some (true, true)
        else None
      in
      match order with
      | None -> Error (Printf.sprintf "not a pcap file: bad magic 0x%08lx" magic)
      | Some (swapped, nanos) ->
          let link = u32 ~swapped hdr 20 in
          Ok
            {
              ic;
              swapped;
              nanos;
              link;
              frames = 0;
              records = 0;
              skipped = 0;
              truncated = false;
              eof = false;
            })

(* ------------------------------------------------------------------ *)
(* Frame decoding                                                      *)
(* ------------------------------------------------------------------ *)

(* Dotted quads are built from a table of the 256 octet strings into one
   exact-length string: every record carries two, so this is the reader's
   hottest allocation after the payload. *)
let octets = Array.init 256 string_of_int
let octet s off = octets.(Char.code s.[off])

(* Blits [x] into [q] at [pos]; returns the position past it and the
   separator already there. *)
let blit_part q pos x =
  Bytes.blit_string x 0 q pos (String.length x);
  pos + String.length x + 1

let dotted s off =
  let a = octet s off and b = octet s (off + 1) and c = octet s (off + 2) in
  let d = octet s (off + 3) in
  let q =
    Bytes.make (String.length a + String.length b + String.length c + String.length d + 3) '.'
  in
  ignore (blit_part q (blit_part q (blit_part q (blit_part q 0 a) b) c) d);
  Bytes.unsafe_to_string q

let be16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

(* Offset of the IPv4 header within the frame, or an error.  Returns the
   offset so the IP decoder below slices once. *)
let ip_offset link frame =
  let len = String.length frame in
  match link with
  | l when l = dlt_raw -> Ok 0
  | l when l = dlt_null ->
      (* 4-byte host-order address family; AF_INET is 2 on every Unix. *)
      if len < 4 then Error "loopback frame shorter than family header"
      else
        let fam_le = Char.code frame.[0] and fam_be = Char.code frame.[3] in
        if fam_le = 2 || fam_be = 2 then Ok 4 else Error "loopback frame is not AF_INET"
  | l when l = dlt_en10mb ->
      if len < 14 then Error "ethernet frame shorter than 14 bytes"
      else
        let ethertype = be16 frame 12 in
        if ethertype = 0x0800 then Ok 14
        else if ethertype = 0x8100 then
          (* One 802.1Q VLAN tag. *)
          if len < 18 then Error "vlan frame shorter than 18 bytes"
          else if be16 frame 16 = 0x0800 then Ok 18
          else Error "vlan frame is not IPv4"
        else Error (Printf.sprintf "ethertype 0x%04x is not IPv4" ethertype)
  | l when l = dlt_linux_sll ->
      if len < 16 then Error "sll frame shorter than 16 bytes"
      else if be16 frame 14 = 0x0800 then Ok 16
      else Error "sll frame is not IPv4"
  | l -> Error (Printf.sprintf "unsupported link type %d" l)

(* IPv4 + UDP decode over [frame] starting at [off]; total, never raises. *)
let decode_udp ~at link frame =
  match ip_offset link frame with
  | Error e -> Skipped e
  | Ok off -> (
      let len = String.length frame in
      if len < off + 20 then Skipped "ipv4 header truncated"
      else
        let vihl = Char.code frame.[off] in
        if vihl lsr 4 <> 4 then Skipped "not ipv4"
        else
          let ihl = (vihl land 0xF) * 4 in
          if ihl < 20 then Skipped "ipv4 header length below 20"
          else if len < off + ihl then Skipped "ipv4 options truncated"
          else
            let frag = be16 frame (off + 6) in
            if frag land 0x3FFF <> 0 (* MF set or nonzero offset *) then
              Skipped "ipv4 fragment"
            else if Char.code frame.[off + 9] <> 17 then Skipped "not udp"
            else
              let udp = off + ihl in
              if len < udp + 8 then Skipped "udp header truncated"
              else
                let src_port = be16 frame udp and dst_port = be16 frame (udp + 2) in
                let udp_len = be16 frame (udp + 4) in
                if udp_len < 8 then Skipped "udp length below 8"
                else
                  (* A snaplen-truncated capture may hold fewer payload
                     bytes than the UDP header claims: deliver what is
                     there, like tcpdump does. *)
                  let avail = len - udp - 8 in
                  let plen = min (udp_len - 8) avail in
                  let payload = String.sub frame (udp + 8) plen in
                  let src = Dsim.Addr.v (dotted frame (off + 12)) src_port in
                  let dst = Dsim.Addr.v (dotted frame (off + 16)) dst_port in
                  Record { Vids.Trace.at = Dsim.Time.of_us at; src; dst; payload })

(* An incl_len beyond this is a corrupt length field, not a jumbo frame;
   stop rather than trying to allocate it. *)
let max_frame = 0x40000 (* 256 KiB *)

let next r =
  if r.eof then None
  else
    match read_exact r.ic 16 with
    | None ->
        r.eof <- true;
        (* A clean EOF lands exactly on a record boundary; anything the
           read consumed before failing means a torn tail, but
           [really_input_string] does not tell us which, so probe: if the
           channel is at EOF we cannot distinguish — treat a short final
           header as clean only when 0 bytes remained.  [read_exact]
           consumed nothing on success; on failure we check whether any
           bytes were available at all via [pos_in] against [in_channel_length]. *)
        (try
           if pos_in r.ic < in_channel_length r.ic then r.truncated <- true
         with Sys_error _ -> ());
        None
    | Some hdr -> (
        let swapped = r.swapped in
        let ts_sec = u32 ~swapped hdr 0 in
        let ts_frac = u32 ~swapped hdr 4 in
        let incl_len = u32 ~swapped hdr 8 in
        if incl_len > max_frame then begin
          r.eof <- true;
          r.truncated <- true;
          None
        end
        else
          match read_exact r.ic incl_len with
          | None ->
              r.eof <- true;
              r.truncated <- true;
              None
          | Some frame ->
              r.frames <- r.frames + 1;
              let us = if r.nanos then ts_frac / 1000 else ts_frac in
              let at = (ts_sec * 1_000_000) + us in
              (match decode_udp ~at r.link frame with
              | Record _ as item ->
                  r.records <- r.records + 1;
                  Some item
              | Skipped _ as item ->
                  r.skipped <- r.skipped + 1;
                  Some item))

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      match of_channel ic with
      | Error e ->
          close_in_noerr ic;
          Error e
      | Ok r ->
          let rec go acc skipped =
            match next r with
            | None -> (List.rev acc, List.rev skipped)
            | Some (Record rec_) -> go (rec_ :: acc) skipped
            | Some (Skipped reason) -> go acc ((r.frames, reason) :: skipped)
          in
          let records, skipped = go [] [] in
          close_in_noerr ic;
          Ok (records, skipped))

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type writer = { oc : out_channel }

let put32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put16 b v = Buffer.add_int16_le b v

let to_channel oc =
  let b = Buffer.create 24 in
  Buffer.add_int32_le b magic_us;
  put16 b 2;
  (* major *)
  put16 b 4;
  (* minor *)
  put32 b 0;
  (* thiszone *)
  put32 b 0;
  (* sigfigs *)
  put32 b 65535;
  (* snaplen *)
  put32 b dlt_en10mb;
  output_string oc (Buffer.contents b);
  { oc }

(* Dotted-quad parse; non-IP simulator hosts map deterministically into
   198.18.0.0/15 (the RFC 2544 benchmark range) via FNV-1a. *)
let ip_bytes host =
  let dotted =
    match String.split_on_char '.' host with
    | [ a; b; c; d ] -> (
        match
          (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d)
        with
        | Some a, Some b, Some c, Some d
          when a land 0xFF = a && b land 0xFF = b && c land 0xFF = c && d land 0xFF = d ->
            Some (a, b, c, d)
        | _ -> None)
    | _ -> None
  in
  match dotted with
  | Some q -> q
  | None ->
      let h = ref 0x811C9DC5 in
      String.iter
        (fun c ->
          h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFF)
        host;
      (198, 18 + (!h lsr 16 land 1), !h lsr 8 land 0xFF, !h land 0xFF)

let add_be16 b v =
  Buffer.add_char b (Char.chr (v lsr 8 land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let ipv4_checksum header =
  let n = Bytes.length header in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + (Char.code (Bytes.get header !i) lsl 8) + Char.code (Bytes.get header (!i + 1));
    i := !i + 2
  done;
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let write w (r : Vids.Trace.record) =
  let plen = String.length r.Vids.Trace.payload in
  if plen > 65507 then invalid_arg "Pcap.write: payload exceeds UDP maximum";
  let sa, sb, sc, sd = ip_bytes (Dsim.Addr.host r.Vids.Trace.src) in
  let da, db, dc, dd = ip_bytes (Dsim.Addr.host r.Vids.Trace.dst) in
  let ip_total = 20 + 8 + plen in
  (* IPv4 header with checksum computed over itself. *)
  let ip = Buffer.create 20 in
  Buffer.add_char ip '\x45';
  Buffer.add_char ip '\x00';
  add_be16 ip ip_total;
  add_be16 ip 0;
  (* id *)
  add_be16 ip 0x4000;
  (* DF, no fragments *)
  Buffer.add_char ip '\x40';
  (* ttl *)
  Buffer.add_char ip '\x11';
  (* udp *)
  add_be16 ip 0;
  (* checksum placeholder *)
  List.iter (fun v -> Buffer.add_char ip (Char.chr v)) [ sa; sb; sc; sd; da; db; dc; dd ];
  let ip_bytes_ = Buffer.to_bytes ip in
  let ck = ipv4_checksum ip_bytes_ in
  Bytes.set ip_bytes_ 10 (Char.chr (ck lsr 8));
  Bytes.set ip_bytes_ 11 (Char.chr (ck land 0xFF));
  let frame = Buffer.create (14 + 28 + plen) in
  (* Ethernet: locally-administered placeholder MACs, IPv4 ethertype. *)
  Buffer.add_string frame "\x02\x00\x00\x00\x00\x02";
  Buffer.add_string frame "\x02\x00\x00\x00\x00\x01";
  add_be16 frame 0x0800;
  Buffer.add_bytes frame ip_bytes_;
  add_be16 frame (Dsim.Addr.port r.Vids.Trace.src);
  add_be16 frame (Dsim.Addr.port r.Vids.Trace.dst);
  add_be16 frame (8 + plen);
  add_be16 frame 0;
  (* UDP checksum 0 = none (legal for IPv4) *)
  Buffer.add_string frame r.Vids.Trace.payload;
  let us = Dsim.Time.to_us r.Vids.Trace.at in
  let hdr = Buffer.create 16 in
  put32 hdr (us / 1_000_000);
  put32 hdr (us mod 1_000_000);
  put32 hdr (Buffer.length frame);
  put32 hdr (Buffer.length frame);
  output_string w.oc (Buffer.contents hdr);
  output_string w.oc (Buffer.contents frame)

let write_file path records =
  let oc = open_out_bin path in
  let w = to_channel oc in
  List.iter (write w) records;
  close_out oc
