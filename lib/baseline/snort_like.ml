type rule = { name : string; kind : Vids.Alert.kind; matches : Dsim.Packet.t -> bool }

type t = { rules : rule list; mutable alerts : int }

let create rules = { rules; alerts = 0 }

let is_sip (packet : Dsim.Packet.t) =
  Dsim.Addr.port packet.dst = 5060 || Dsim.Addr.port packet.src = 5060

let default_rules =
  [
    {
      name = "malformed-sip";
      kind = Vids.Alert.Spec_deviation;
      matches =
        (fun packet ->
          is_sip packet && Result.is_error (Sip.Msg.parse packet.Dsim.Packet.payload));
    };
    {
      name = "rtp-bad-version";
      kind = Vids.Alert.Spec_deviation;
      matches =
        (fun packet ->
          let port = Dsim.Addr.port packet.dst in
          port >= 16384 && port <= 32767 && port land 1 = 0
          && String.length packet.payload >= 12
          && Char.code packet.payload.[0] lsr 6 <> 2);
    };
    {
      name = "rtp-disallowed-codec";
      kind = Vids.Alert.Media_spam;
      matches =
        (fun packet ->
          let port = Dsim.Addr.port packet.dst in
          port >= 16384 && port <= 32767 && port land 1 = 0
          &&
          match Rtp.Rtp_packet.decode packet.payload with
          | Ok p ->
              (* Only G.729 (18) and G.711 (0/8) are provisioned. *)
              not (List.mem p.Rtp.Rtp_packet.payload_type [ 0; 8; 18 ])
          | Error _ -> false);
    };
  ]

let process t packet =
  List.filter_map
    (fun rule ->
      if rule.matches packet then begin
        t.alerts <- t.alerts + 1;
        Some
          (Vids.Alert.make ~kind:rule.kind ~at:packet.Dsim.Packet.sent_at
             ~subject:(Dsim.Addr.to_string packet.Dsim.Packet.dst)
             ("snort-like rule " ^ rule.name))
      end
      else None)
    t.rules

let alerts_total t = t.alerts
