(** {!Vids.Pcap}, the capture codec, under the name the benchmark
    ([bench/suite/suite.ml]) calls it by.  It exists only because the
    benchmark names it; everything else calls {!Vids.Pcap}. *)

val write_file : string -> Vids.Pcap.record list -> unit

val read_file :
  string ->
  (Vids.Pcap.record list * (int * string) list * Vids.Pcap.stats, string) result
