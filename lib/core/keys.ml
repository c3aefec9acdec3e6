
module Field = struct
  let f = Efsm.Event.field

  (* Registered at start-up, before any spec is compiled, so the order
     here is the slot order: an RTP event's fields come first and its
     value array stops at [size]; a SIP event's stops at [media_pt].  The
     arguments of each builtin sync event are in the order the SIP machine
     sends them, which is the order [Efsm.Event.args] lists them. *)
  let src_ip = f "src_ip"
  let src_port = f "src_port"
  let dst_ip = f "dst_ip"
  let dst_port = f "dst_port"
  let ssrc = f "ssrc"
  let seq = f "seq"
  let ts = f "ts"
  let payload_type = f "payload_type"
  let size = f "size"
  let code = f "code"
  let cseq_method = f "cseq_method"
  let cseq_number = f "cseq_number"
  let call_id = f "call_id"
  let from_tag = f "from_tag"
  let to_tag = f "to_tag"
  let branch = f "branch"
  let contact_host = f "contact_host"
  let media_host = f "media_host"
  let media_port = f "media_port"
  let media_pt = f "media_pt"
  let () = List.iter (fun name -> ignore (f name)) [ "bye_sender_ip"; "src_matched" ]
end
let response = "RESPONSE"
let rtp_packet = "RTP"
let orphan_response = "ORPHAN_RESPONSE"
let sip_machine = "SIP"
let rtp_machine = "RTP"
let flood_machine = "INVITE_FLOOD"
let spam_machine = "MEDIA_SPAM"
let drdos_machine = "DRDOS"
let st_init = "INIT"
let st_cancel_dos = "CANCEL_DOS_ATTACK"
let st_hijack = "HIJACK_ATTACK"
let st_bye_dos = "BYE_DOS_ATTACK"
let st_billing_fraud = "BILLING_FRAUD_ATTACK"
let st_invite_flood = "FLOOD_ATTACK"
let st_media_spam = "MEDIA_SPAM_ATTACK"
let st_rtp_flood = "RTP_FLOOD_ATTACK"
let st_drdos = "DRDOS_ATTACK"

(* Hosts on the wire are almost always lowercase already: copy only the
   rare mixed-case one. *)
let canonical_host h =
  if String.exists (fun c -> c >= 'A' && c <= 'Z') h then String.lowercase_ascii h else h
