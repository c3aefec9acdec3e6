(* Differential tests of the sensor's RTP reading.  The engine reads a
   datagram's header where it lies ([Rtp_packet.payload_length] and the
   field readers) instead of decoding it into a packet.  On datagrams of
   every header shape, and on every truncation of each up to its fixed
   header, CSRCs and 4 bytes, it must accept what [Rtp_packet.decode]
   accepts, reject with [decode]'s error text what [decode] rejects, and
   build its event from the fields [decode] reads.  [decode] is held in
   turn to [Rtp_reference], the decoder it was before it shared its header
   reader with the engine. *)

module P = Rtp.Rtp_packet

let pick st a = a.(Random.State.int st (Array.length a))
let chance st n = Random.State.int st n = 0
let bytes st n = String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Half the time at an edge: 2^31 and above read negative through
   [Int32.to_int]. *)
let word32 st =
  Int32.of_int
    (if chance st 2 then pick st [| 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0x8000_0001; 0xFFFF_FFFF |]
     else Random.State.full_int st (1 lsl 32))

(* Versions 0-3, 0-15 CSRCs, an extension that may be cut short of its
   declared length, and padding whose count is 0, fits, or runs into the
   header. *)
let datagram st =
  let version = if chance st 3 then Random.State.int st 4 else 2 in
  let cc = Random.State.int st 16 in
  let extension = chance st 2 and padding = chance st 2 in
  let b = Buffer.create 160 in
  Buffer.add_uint8 b
    ((version lsl 6) lor (if padding then 0x20 else 0) lor (if extension then 0x10 else 0) lor cc);
  Buffer.add_uint8 b (Random.State.int st 256);
  Buffer.add_uint16_be b (Random.State.int st 0x10000);
  Buffer.add_int32_be b (word32 st);
  Buffer.add_int32_be b (word32 st);
  for _ = 1 to cc do
    Buffer.add_int32_be b (word32 st)
  done;
  if extension then begin
    let words = Random.State.int st 4 in
    Buffer.add_uint16_be b 0xBEDE;
    Buffer.add_uint16_be b words;
    Buffer.add_string b
      (bytes st (if chance st 3 then Random.State.int st ((4 * words) + 1) else 4 * words))
  end;
  let start = Buffer.length b in
  Buffer.add_string b (bytes st (Random.State.int st 41));
  if padding then begin
    Buffer.add_string b (String.make (Random.State.int st 4) '\000');
    let room = Buffer.length b + 1 - start in
    Buffer.add_uint8 b
      (match Random.State.int st 3 with
      | 0 -> 0
      | 1 -> 1 + Random.State.int st room
      | _ -> min 255 (room + 1 + Random.State.int st 8))
  end;
  Buffer.contents b

(* The datagram and each of its prefixes up to its fixed header, CSRCs
   and 4 bytes. *)
let readings s =
  let header = if s = "" then 12 else 12 + (4 * (Char.code s.[0] land 0xF)) in
  s :: List.init (1 + min (String.length s) (header + 4)) (fun n -> String.sub s 0 n)

let disagree what pp got want =
  QCheck.Test.fail_reportf "%s differs:@.  got:  %s@.  want: %s" what (pp got) (pp want)

let agree what pp got want = got = want || disagree what pp got want

let show_decoded = function
  | Error e -> Printf.sprintf "Error %S" e
  | Ok (p : P.t) ->
      Printf.sprintf "Ok v%d p=%b m=%b pt=%d seq=%d ts=%ld ssrc=%ld csrc=[%s] payload=%S"
        p.version p.padding p.marker p.payload_type p.sequence p.timestamp p.ssrc
        (String.concat ";" (List.map Int32.to_string p.csrc))
        p.payload

let src = Dsim.Addr.v "10.1.0.10" 16384
let dst = Dsim.Addr.v "10.2.0.10" 20000
let packets = Dsim.Packet.allocator ()
let packet s = Dsim.Packet.make packets ~src ~dst ~sent_at:Dsim.Time.zero s

(* (a) [decode] reads what the reference reads. *)
let decode_agrees s =
  List.for_all
    (fun s ->
      agree (Printf.sprintf "decode %S" s) show_decoded (P.decode s) (Rtp_reference.decode s))
    (readings s)

(* (b) The engine's verdict is [decode]'s: [Rtp] with the length of the
   payload [decode] copies, or [Malformed_rtp] with its error text. *)
let verdict_agrees s =
  let index = Sip.Index.create () in
  List.for_all
    (fun s ->
      match (Vids.Classifier.read index ~known_media:(fun _ -> false) (packet s), P.decode s) with
      | Vids.Classifier.Rtp size, Ok p ->
          agree "payload length" string_of_int size (String.length p.payload)
      | Vids.Classifier.Malformed_rtp got, Error want ->
          agree "error" (Printf.sprintf "%S") got want
      | _, Ok _ -> QCheck.Test.fail_reportf "decode accepted %S, the engine did not" s
      | _, Error e -> QCheck.Test.fail_reportf "decode rejected %S (%s), the engine did not" s e)
    (readings s)

(* A MEDIA_SPAM that keeps the fields of the first RTP event it sees. *)
let probe_source =
  "machine MEDIA_SPAM {\n\
  \  var v_ssrc : int;\n\
  \  var v_seq : int;\n\
  \  var v_ts : int;\n\
  \  var v_pt : int;\n\
  \  var v_size : int;\n\
  \  initial INIT;\n\
  \  trans seen : INIT -> SEEN on event RTP\n\
  \    do {\n\
  \      v_ssrc := $ssrc;\n\
  \      v_seq := $seq;\n\
  \      v_ts := $ts;\n\
  \      v_pt := $payload_type;\n\
  \      v_size := $size;\n\
  \    }\n\
  \  trans more : SEEN -> SEEN on event RTP;\n\
   }\n"

let probe =
  lazy
    (match
       Spec.Front_end.load_sources ~known_machines:Vids.Spec_load.known_machines
         ~params:(Vids.Spec_load.params Vids.Config.default)
         [ ("probe.vspec", probe_source) ]
     with
    | [ el ], [] -> [ (Vids.Keys.spam_machine, el.Spec.Elaborate.el_spec) ]
    | _, diags ->
        failwith (String.concat "\n" (List.map (Spec.Diag.render ~source:probe_source) diags)))

(* The fields of the event a fresh engine builds from [s], as the probe
   in the stream's spam detector keeps them. *)
let engine_fields s =
  let engine = Vids.Engine.create ~overrides:(Lazy.force probe) (Dsim.Scheduler.create ()) in
  Vids.Engine.process_packet engine (packet s);
  match Vids.Fact_base.detectors_in_creation_order (Vids.Engine.fact_base engine) with
  | [ (_, _, d) ] ->
      let env = Efsm.Machine.env d.Vids.Fact_base.d_machine in
      List.map
        (fun var -> Efsm.Env.get env Efsm.Env.Local var)
        [ "v_ssrc"; "v_seq"; "v_ts"; "v_pt"; "v_size" ]
  | ds -> QCheck.Test.fail_reportf "%d spam detectors after one packet" (List.length ds)

let show_values vs = String.concat ", " (List.map Efsm.Value.to_string vs)

(* (c) The event carries [decode]'s fields: SSRC and timestamp as
   [Int32.to_int] reads them. *)
let event_agrees s =
  List.for_all
    (fun s ->
      match P.decode s with
      | Error _ -> true
      | Ok p ->
          agree "event" show_values (engine_fields s)
            (List.map
               (fun n -> Efsm.Value.Int n)
               [
                 Int32.to_int p.ssrc;
                 p.sequence;
                 Int32.to_int p.timestamp;
                 p.payload_type;
                 String.length p.payload;
               ]))
    (readings s)

let q name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:2000 (QCheck.make ~print:(Printf.sprintf "%S") datagram) prop)

let suite =
  [
    ( "rtp.differential",
      [
        q "decode agrees with the reference" decode_agrees;
        q "the engine's verdict agrees with decode" verdict_agrees;
        q "the engine's event agrees with decode" event_agrees;
      ] );
  ]
