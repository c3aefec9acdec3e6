(** Pure-OCaml reader/writer for classic libpcap capture files.

    The live daemon's file front-end: streams UDP datagrams out of a
    [.pcap] capture (tcpdump/wireshark format, both byte orders,
    microsecond and nanosecond variants) as {!Vids.Trace.record}s, peeling
    Ethernet / Linux-SLL / loopback / raw-IP link headers and the
    IPv4 + UDP headers in between.

    The reader is a hostile-input boundary: a truncated file, a garbage
    link type, a lying length field or a malformed IP header is reported
    as a skipped item or a truncated tail — never an exception and never
    a crash.  Anything that is not an IPv4/UDP datagram (ARP, TCP,
    fragments) is skipped with a reason, since the sensor only analyzes
    SIP/RTP over UDP.

    Timestamps are capture-absolute (epoch microseconds); the daemon
    rebases them onto its virtual clock. *)

(** {1 Reading} *)

type item =
  | Record of Vids.Trace.record  (** One decoded UDP datagram. *)
  | Skipped of string  (** A frame the decoder rejected, with the reason. *)

type reader

val of_channel : in_channel -> (reader, string) result
(** Validates the global header.  [Error] on a non-pcap magic or a
    truncated header. *)

val next : reader -> item option
(** The next frame, [None] at end of file.  A record torn by a crash
    mid-write, in its 16-byte header or in its frame, ends the stream
    ([None]) and sets {!stats}[.truncated_tail] rather than raising; a
    file that ends on a record boundary does not set it.  The frame is
    decoded in the reader's own buffer, so a record's payload is its one
    copy of the frame's bytes; records of one stream share their
    addresses. *)

type stats = {
  frames : int;  (** Frames read, decoded or not. *)
  records : int;  (** UDP datagrams successfully decoded. *)
  skipped : int;  (** Frames rejected by the decoder. *)
  truncated_tail : bool;  (** File ended inside a record, or at a corrupt length. *)
}

val stats : reader -> stats

val read_file : string -> (Vids.Trace.record list * (int * string) list, string) result
(** Loads a whole capture leniently: skipped frames come back as
    [(frame_index, reason)] diagnostics.  [Error] only when the file
    cannot be opened or is not a pcap file at all. *)

(** {1 Writing}

    Records are wrapped in Ethernet + IPv4 + UDP framing (link type 1,
    little-endian, microsecond timestamps) — the dialect every pcap tool
    reads.  Hosts that do not parse as dotted-quad IPv4 (simulated node
    names) are mapped deterministically into the 198.18.0.0/15 benchmark
    range, so a capture written from simulator traffic round-trips
    structurally even though such host {e strings} are not preserved. *)

type writer

val write_file : string -> Vids.Trace.record list -> unit
