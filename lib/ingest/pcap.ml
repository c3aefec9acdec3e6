include Vids.Pcap
