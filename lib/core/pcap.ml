(* Classic libpcap reader/writer.

   The reader is written as a total function over arbitrary bytes: every
   length is checked before use, every arithmetic result is bounded, and
   anything surprising becomes [Skipped] (bad frame) or ends the stream
   with [truncated_tail] (bad file): a length past [max_frame], or an end
   of file anywhere but on a record boundary.

   A reader owns two buffers: the 16-byte record header and a frame buffer
   that grows to the largest frame seen, never past [max_frame].  [next]
   fills both from the channel and decodes the frame where it lies, so
   the UDP payload is the only per-record copy.  Source and destination
   come from a direct-mapped cache of [addr_slots] addresses keyed by IPv4
   address and port: the records of one stream share one [Dsim.Addr.t] and
   one host string, and a flood of spoofed sources only evicts entries.
   The cache dies with its reader.

   The writer refuses what a frame cannot hold exactly, so every record
   it writes reads back equal to itself. *)

type record = { at : Dsim.Time.t; src : Dsim.Addr.t; dst : Dsim.Addr.t; payload : string }
type item = Record of record | Skipped of string

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

(* An incl_len beyond this is a corrupt length field, not a jumbo frame;
   stop rather than trying to allocate it. *)
let max_frame = 0x40000 (* 256 KiB *)

(* The address cache: [addr_slots] entries, a power of two. *)
let addr_bits = 10
let addr_slots = 1 lsl addr_bits

type stats = { frames : int; records : int; skipped : int; truncated_tail : bool }

type reader = {
  ic : in_channel;
  swapped : bool;  (** File byte order differs from the one we read with. *)
  nanos : bool;
  link : int;
  hdr : Bytes.t;  (** The record header being decoded. *)
  mutable frame : Bytes.t;  (** The frame being decoded, in its first bytes. *)
  mutable addr_keys : int array;
      (** Per slot, [(ipv4 lsl 16) lor port] of the address it holds, or
          [-1].  Empty until the first frame, so a reader that sees none
          costs nothing. *)
  mutable addrs : Dsim.Addr.t array;
  mutable frames : int;
  mutable records : int;
  mutable skipped : int;
  mutable truncated : bool;
  mutable eof : bool;
}

let stats r =
  { frames = r.frames; records = r.records; skipped = r.skipped; truncated_tail = r.truncated }

(* Reads [n] bytes into [buf] from [off] on, fewer only when the file ends
   (or fails) first; the count of bytes in [buf]. *)
let rec fill ic buf off n =
  if off = n then n
  else
    match input ic buf off (n - off) with
    | 0 -> off
    | k -> fill ic buf (off + k) n
    | exception Sys_error _ -> off

let u32 ~swapped b off =
  let v = if swapped then Bytes.get_int32_be b off else Bytes.get_int32_le b off in
  Int32.to_int v land 0xFFFFFFFF

let of_channel ic =
  let hdr = Bytes.create 24 in
  if fill ic hdr 0 24 < 24 then Error "not a pcap file: header shorter than 24 bytes"
  else
    let magic = Bytes.get_int32_le hdr 0 in
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
        Ok
          {
            ic;
            swapped;
            nanos;
            link = u32 ~swapped hdr 20;
            hdr = Bytes.create 16;
            frame = Bytes.empty;
            addr_keys = [||];
            addrs = [||];
            frames = 0;
            records = 0;
            skipped = 0;
            truncated = false;
            eof = false;
          }

(* ------------------------------------------------------------------ *)
(* Frame decoding                                                      *)
(* ------------------------------------------------------------------ *)

(* Dotted quads are built from a table of the 256 octet strings into one
   exact-length string. *)
let octets = Array.init 256 string_of_int
let octet frame off = octets.(Bytes.get_uint8 frame off)

(* Blits [x] into [q] at [pos]; returns the position past it and the
   separator already there. *)
let blit_part q pos x =
  Bytes.blit_string x 0 q pos (String.length x);
  pos + String.length x + 1

let dotted frame off =
  let a = octet frame off and b = octet frame (off + 1) and c = octet frame (off + 2) in
  let d = octet frame (off + 3) in
  let q =
    Bytes.make (String.length a + String.length b + String.length c + String.length d + 3) '.'
  in
  ignore (blit_part q (blit_part q (blit_part q (blit_part q 0 a) b) c) d);
  Bytes.unsafe_to_string q

let be16 = Bytes.get_uint16_be
let no_addr = Dsim.Addr.v "" 0

(* The address of the IPv4 host at [ip] and the UDP port at [port] in
   [frame]: the one its cache slot holds, or a new one that takes the
   slot.  Slots are picked by multiplicative hashing of the key. *)
let addr r frame ~ip ~port =
  let key = (be16 frame ip lsl 32) lor (be16 frame (ip + 2) lsl 16) lor be16 frame port in
  if Array.length r.addr_keys = 0 then begin
    r.addr_keys <- Array.make addr_slots (-1);
    r.addrs <- Array.make addr_slots no_addr
  end;
  let slot = (key * 0x2545F4914F6CDD1D) lsr (63 - addr_bits) in
  if r.addr_keys.(slot) = key then r.addrs.(slot)
  else begin
    let a = Dsim.Addr.v (dotted frame ip) (key land 0xFFFF) in
    r.addr_keys.(slot) <- key;
    r.addrs.(slot) <- a;
    a
  end

(* Offset of the IPv4 header within the [len]-byte frame, or an error. *)
let ip_offset link frame len =
  match link with
  | l when l = dlt_raw -> Ok 0
  | l when l = dlt_null ->
      (* 4-byte host-order address family; AF_INET is 2 on every Unix. *)
      if len < 4 then Error "loopback frame shorter than family header"
      else
        let fam_le = Bytes.get_uint8 frame 0 and fam_be = Bytes.get_uint8 frame 3 in
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

(* IPv4 + UDP decode of the reader's [len]-byte frame; total, never
   raises. *)
let decode_udp r ~at len =
  let frame = r.frame in
  match ip_offset r.link frame len with
  | Error e -> Skipped e
  | Ok off -> (
      if len < off + 20 then Skipped "ipv4 header truncated"
      else
        let vihl = Bytes.get_uint8 frame off in
        if vihl lsr 4 <> 4 then Skipped "not ipv4"
        else
          let ihl = (vihl land 0xF) * 4 in
          if ihl < 20 then Skipped "ipv4 header length below 20"
          else if len < off + ihl then Skipped "ipv4 options truncated"
          else
            let frag = be16 frame (off + 6) in
            if frag land 0x3FFF <> 0 (* MF set or nonzero offset *) then
              Skipped "ipv4 fragment"
            else if Bytes.get_uint8 frame (off + 9) <> 17 then Skipped "not udp"
            else
              let udp = off + ihl in
              if len < udp + 8 then Skipped "udp header truncated"
              else
                let udp_len = be16 frame (udp + 4) in
                if udp_len < 8 then Skipped "udp length below 8"
                else
                  (* A snaplen-truncated capture may hold fewer payload
                     bytes than the UDP header claims: deliver what is
                     there, like tcpdump does. *)
                  let avail = len - udp - 8 in
                  let plen = min (udp_len - 8) avail in
                  let payload = Bytes.sub_string frame (udp + 8) plen in
                  let src = addr r frame ~ip:(off + 12) ~port:udp in
                  let dst = addr r frame ~ip:(off + 16) ~port:(udp + 2) in
                  Record { at = Dsim.Time.of_us at; src; dst; payload })

let next r =
  if r.eof then None
  else
    let got = fill r.ic r.hdr 0 16 in
    let incl_len = u32 ~swapped:r.swapped r.hdr 8 in
    if got < 16 || incl_len > max_frame then begin
      (* The stream ends at a length past [max_frame], a corrupt header, or
         at the end of the file.  A clean end lands exactly on a record
         boundary: any header byte before it is a record torn mid-write. *)
      r.eof <- true;
      r.truncated <- got > 0;
      None
    end
    else begin
      if incl_len > Bytes.length r.frame then r.frame <- Bytes.create incl_len;
      if fill r.ic r.frame 0 incl_len < incl_len then begin
        r.eof <- true;
        r.truncated <- true;
        None
      end
      else begin
        r.frames <- r.frames + 1;
        let ts_sec = u32 ~swapped:r.swapped r.hdr 0 in
        let ts_frac = u32 ~swapped:r.swapped r.hdr 4 in
        let us = if r.nanos then ts_frac / 1000 else ts_frac in
        let at = (ts_sec * 1_000_000) + us in
        match decode_udp r ~at incl_len with
        | Record _ as item ->
            r.records <- r.records + 1;
            Some item
        | Skipped _ as item ->
            r.skipped <- r.skipped + 1;
            Some item
      end
    end

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      match of_channel ic with
      | Error e ->
          close_in_noerr ic;
          Error (path ^ ": " ^ e)
      | Ok r ->
          let rec go acc skipped =
            match next r with
            | None ->
                let skipped =
                  if r.truncated then (r.frames + 1, "truncated tail") :: skipped else skipped
                in
                (List.rev acc, List.rev skipped)
            | Some (Record rec_) -> go (rec_ :: acc) skipped
            | Some (Skipped reason) -> go acc ((r.frames, reason) :: skipped)
          in
          let records, skipped = go [] [] in
          close_in_noerr ic;
          Ok (records, skipped, stats r))

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* A writer assembles each record in its one buffer. *)
type writer = { oc : out_channel; buf : Buffer.t }

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
  { oc; buf = Buffer.create 1024 }

(* The four octets of [host], packed big-endian, when it is a dotted quad
   spelled as [dotted] spells one: decimal octets of at most 255 without
   a leading zero.  Any other spelling would read back as another
   host. *)
let ipv4 host =
  let bad () = invalid_arg ("Pcap.write: host " ^ host ^ " is not a dotted quad") in
  let n = String.length host in
  (* [v] is the octet being read, [len] its digit count, [acc] the
     octets before it. *)
  let rec go i dots acc v len =
    let octet () =
      if len = 0 || v > 255 || (len > 1 && host.[i - len] = '0') then bad ();
      (acc lsl 8) lor v
    in
    if i = n then if dots = 3 then octet () else bad ()
    else
      match host.[i] with
      | '0' .. '9' as c when len < 3 -> go (i + 1) dots acc ((10 * v) + Char.code c - 48) (len + 1)
      | '.' when dots < 3 -> go (i + 1) (dots + 1) (octet ()) 0 0
      | _ -> bad ()
  in
  go 0 0 0 0 0

let port a =
  let p = Dsim.Addr.port a in
  if p < 0 || p > 0xFFFF then
    invalid_arg (Printf.sprintf "Pcap.write: port %d is outside 0-65535" p);
  p

(* The one's-complement sum of the IPv4 header's 16-bit words, computed
   from its variable fields: total length and the two addresses. *)
let ipv4_checksum ~total ~src ~dst =
  let sum =
    0x4500 + total + 0x4000 + 0x4011 + (src lsr 16) + (src land 0xFFFF) + (dst lsr 16)
    + (dst land 0xFFFF)
  in
  let sum = (sum land 0xFFFF) + (sum lsr 16) in
  lnot ((sum land 0xFFFF) + (sum lsr 16)) land 0xFFFF

let write w r =
  let plen = String.length r.payload in
  if plen > 65507 then invalid_arg "Pcap.write: payload exceeds UDP maximum";
  let us = Dsim.Time.to_us r.at in
  if us < 0 || us / 1_000_000 > 0xFFFF_FFFF then
    invalid_arg "Pcap.write: instant outside the 32-bit seconds of a pcap timestamp";
  let src = ipv4 (Dsim.Addr.host r.src) and dst = ipv4 (Dsim.Addr.host r.dst) in
  let sport = port r.src and dport = port r.dst in
  let total = 20 + 8 + plen in
  let b = w.buf in
  Buffer.clear b;
  put32 b (us / 1_000_000);
  put32 b (us mod 1_000_000);
  put32 b (14 + total);
  put32 b (14 + total);
  (* Ethernet: locally-administered placeholder MACs, IPv4 ethertype. *)
  Buffer.add_string b "\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01\x08\x00";
  (* IPv4: no options, id 0, DF, TTL 64, UDP. *)
  Buffer.add_string b "\x45\x00";
  Buffer.add_uint16_be b total;
  Buffer.add_string b "\x00\x00\x40\x00\x40\x11";
  Buffer.add_uint16_be b (ipv4_checksum ~total ~src ~dst);
  Buffer.add_int32_be b (Int32.of_int src);
  Buffer.add_int32_be b (Int32.of_int dst);
  (* UDP, checksum 0 = none (legal over IPv4). *)
  Buffer.add_uint16_be b sport;
  Buffer.add_uint16_be b dport;
  Buffer.add_uint16_be b (8 + plen);
  Buffer.add_uint16_be b 0;
  Buffer.add_string b r.payload;
  Buffer.output_buffer w.oc b

let write_file path records =
  let oc = open_out_bin path in
  let w = to_channel oc in
  List.iter (write w) records;
  close_out oc
