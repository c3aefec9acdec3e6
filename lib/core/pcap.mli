(** Classic libpcap capture files: the one capture format.

    Every capture vIDS writes or replays is a pcap file: [vids-cli
    record], the daemon's [--record] tee and {!Trace.save} write one;
    the daemon's file source, [vids-cli analyze] and recovery's suffix
    read one.  An operator can open any of them in tcpdump or Wireshark.

    The reader streams UDP datagrams out of a capture (tcpdump/wireshark
    format, both byte orders, microsecond and nanosecond variants),
    peeling Ethernet / Linux-SLL / loopback / raw-IP link headers and the
    IPv4 + UDP headers in between.  It is a hostile-input boundary: a
    truncated file, a garbage link type, a lying length field or a
    malformed IP header is reported as a skipped item or a truncated
    tail — never an exception and never a crash.  Anything that is not
    an IPv4/UDP datagram (ARP, TCP, fragments) is skipped with a reason,
    since the sensor only analyzes SIP/RTP over UDP.

    Timestamps are the capture's own: epoch microseconds in a tcpdump
    capture, virtual time in one vIDS wrote.  The daemon rebases them
    onto its virtual clock; [analyze] and recovery take them as they
    are. *)

type record = {
  at : Dsim.Time.t;  (** Capture timestamp. *)
  src : Dsim.Addr.t;
  dst : Dsim.Addr.t;
  payload : string;  (** The UDP payload: raw wire bytes. *)
}
(** One datagram as the sensor saw it; {!Trace.record} is this type. *)

(** {1 Reading} *)

type item =
  | Record of record  (** One decoded UDP datagram. *)
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

val read_file :
  string -> (record list * (int * string) list * stats, string) result
(** Loads a whole capture leniently.  Each frame the decoder rejected
    comes back as [(frame, reason)], frames numbered from 1; a truncated
    tail is listed last, as [(frames + 1, "truncated tail")].  [Error],
    naming the file, only when it cannot be opened or is not a pcap file
    at all. *)

(** {1 Writing}

    Records are wrapped in Ethernet + IPv4 + UDP framing (link type 1,
    little-endian, microsecond timestamps): the dialect every pcap tool
    reads, and one {!read_file} reads back into equal records. *)

type writer

val to_channel : out_channel -> writer
(** Writes the 24-byte global header. *)

val write : writer -> record -> unit
(** Appends one frame, exactly what it is given or nothing: raises
    [Invalid_argument] for a host that is not a dotted quad spelled as
    the reader spells one (four decimal octets, 0–255, no leading zero),
    a port outside 0–65 535, an instant before 0 or past 2{^32} s, or a
    payload over 65 507 bytes. *)

val write_file : string -> record list -> unit
