(* Crash-safety tests: snapshot/journal codecs (round-trip + fuzz) and the
   recovery convergence property (checkpoint ∘ crash ∘ recover ≡ no-crash).
   The daemon's kill -9 path is exercised in test_ingest and, with
   enforcement, in test_enforce. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let tc name f = Alcotest.test_case name `Quick f

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let ms = Dsim.Time.of_ms
let sec = Dsim.Time.of_sec
let sip_addr host = Dsim.Addr.v host 5060

(* ------------------------------------------------------------------ *)
(* A dialog-rich scenario trace: full dialogs with media, abandoned     *)
(* INVITEs, calls left open — machines mid-state, armed timers and      *)
(* queued syncs at any cut point.  [callee] is the user part of the     *)
(* callee's address of record.                                          *)
(* ------------------------------------------------------------------ *)

let invite ~callee ~call_id ~port =
  let body =
    Printf.sprintf
      "v=0\r\no=alice 0 0 IN IP4 10.1.0.10\r\ns=-\r\nc=IN IP4 10.1.0.10\r\nt=0 0\r\nm=audio %d RTP/AVP 18\r\n"
      port
  in
  Printf.sprintf
    "INVITE sip:%s@b.example SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\n\
     From: <sip:alice@a.example>;tag=ta-%s\r\n\
     To: <sip:%s@b.example>\r\n\
     Call-ID: %s\r\n\
     CSeq: 1 INVITE\r\n\
     Contact: <sip:alice@10.1.0.10:5060>\r\n\
     Content-Type: application/sdp\r\n\
     Content-Length: %d\r\n\r\n%s"
    callee call_id call_id callee call_id (String.length body) body

let response ~callee ~call_id ~code ~cseq ~sdp ~port =
  let body =
    if sdp then
      Printf.sprintf
        "v=0\r\no=bob 0 0 IN IP4 10.2.0.10\r\ns=-\r\nc=IN IP4 10.2.0.10\r\nt=0 0\r\nm=audio %d RTP/AVP 18\r\n"
        port
    else ""
  in
  Printf.sprintf
    "SIP/2.0 %d X\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\nFrom: <sip:alice@a.example>;tag=ta-%s\r\nTo: <sip:%s@b.example>;tag=tb-%s\r\nCall-ID: %s\r\nCSeq: %s\r\n%sContent-Length: %d\r\n\r\n%s"
    code call_id call_id callee call_id call_id cseq
    (if sdp then "Content-Type: application/sdp\r\n" else "")
    (String.length body) body

let ack ~callee ~call_id =
  Printf.sprintf
    "ACK sip:%s@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKa-%s\r\nFrom: <sip:alice@a.example>;tag=ta-%s\r\nTo: <sip:%s@b.example>;tag=tb-%s\r\nCall-ID: %s\r\nCSeq: 1 ACK\r\n\r\n"
    callee call_id call_id callee call_id call_id

let bye ~callee ~call_id =
  Printf.sprintf
    "BYE sip:%s@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKb-%s\r\nFrom: <sip:alice@a.example>;tag=ta-%s\r\nTo: <sip:%s@b.example>;tag=tb-%s\r\nCall-ID: %s\r\nCSeq: 2 BYE\r\n\r\n"
    callee call_id call_id callee call_id call_id

let rtp_bytes ~seq =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:seq ~timestamp:(Int32.of_int (160 * seq))
       ~ssrc:77l (String.make 20 'v'))

let cancel ~callee ~call_id =
  Printf.sprintf
    "CANCEL sip:%s@b.example SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\nFrom: <sip:alice@a.example>;tag=ta-%s\r\nTo: <sip:%s@b.example>\r\nCall-ID: %s\r\nCSeq: 1 CANCEL\r\n\r\n"
    callee call_id call_id callee call_id

(* One call every 50 ms, all to [callee i] (call [i]'s user part). *)
let make_calls ~callee ~calls =
  let records = ref [] in
  let add at src dst payload = records := { Vids.Trace.at; src; dst; payload } :: !records in
  let a_sig = sip_addr "10.1.0.2" and b_sig = sip_addr "10.2.0.2" in
  for i = 0 to calls - 1 do
    let call_id = Printf.sprintf "rec-%d" i and callee = callee i in
    let t0 = ms (float_of_int (50 * i)) in
    let port = 16384 + (2 * (i mod 2048)) in
    let ( +& ) a b = Dsim.Time.add a b in
    add t0 a_sig b_sig (invite ~callee ~call_id ~port);
    if i mod 3 <> 2 then begin
      add (t0 +& ms 20.) b_sig a_sig
        (response ~callee ~call_id ~code:180 ~cseq:"1 INVITE" ~sdp:false ~port);
      add (t0 +& ms 40.) b_sig a_sig
        (response ~callee ~call_id ~code:200 ~cseq:"1 INVITE" ~sdp:true ~port);
      add (t0 +& ms 60.) a_sig b_sig (ack ~callee ~call_id);
      let media_src = Dsim.Addr.v "10.1.0.10" port in
      let media_dst = Dsim.Addr.v "10.2.0.10" port in
      for s = 0 to 3 do
        add (t0 +& ms (80. +. (20. *. float_of_int s))) media_src media_dst (rtp_bytes ~seq:s)
      done;
      if i mod 5 <> 4 then begin
        add (t0 +& ms 600.) a_sig b_sig (bye ~callee ~call_id);
        add (t0 +& ms 620.) b_sig a_sig
          (response ~callee ~call_id ~code:200 ~cseq:"2 BYE" ~sdp:false ~port)
      end
    end
  done;
  List.rev !records

let make_trace ~calls = make_calls ~callee:(fun _ -> "bob") ~calls

let trace_horizon ~calls = ms (float_of_int ((50 * calls) + 700))

(* A sweep period longer than every trace these tests cut: the sweep never
   fires, so recovery has only to carry its armed phase through the
   snapshot.  Sweeps that fire, and tie with packets, come from
   [grid_sweep] and [sweep_tie]. *)
let sweepy_config =
  { (Vids.Config.governed Vids.Config.default) with Vids.Config.sweep_interval = sec 7.3 }

(* The governed preset with a sweep every [every] that reclaims calls
   older than [max_age]. *)
let grid_sweep ~every ~max_age =
  {
    (Vids.Config.governed Vids.Config.default) with
    Vids.Config.sweep_interval = every;
    call_max_age = max_age;
  }

(* Call [x], INVITEd at 100 ms and CANCELled at [cancel_at], exactly when a
   sweep that finds it too old is due.  The packet runs first at an
   instant, so the CANCEL finds its call; were the sweep first, it would
   reclaim the call and the CANCEL would raise "request for a call the
   sensor never saw established". *)
let sweep_tie ~cancel_at =
  let a_sig = sip_addr "10.1.0.2" and b_sig = sip_addr "10.2.0.2" in
  [
    {
      Vids.Trace.at = ms 100.;
      src = a_sig;
      dst = b_sig;
      payload = invite ~callee:"bob" ~call_id:"x" ~port:16384;
    };
    {
      Vids.Trace.at = cancel_at;
      src = a_sig;
      dst = b_sig;
      payload = cancel ~callee:"bob" ~call_id:"x";
    };
  ]

(* ------------------------------------------------------------------ *)
(* Codec round-trips (qcheck)                                          *)
(* ------------------------------------------------------------------ *)

let any_byte = QCheck.Gen.(map Char.chr (int_range 0 255))
let bytes_gen = QCheck.Gen.(string_size ~gen:any_byte (int_range 0 48))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Efsm.Value.Int i) int;
        map (fun s -> Efsm.Value.Str s) bytes_gen;
        map (fun b -> Efsm.Value.Bool b) bool;
        map2 (fun h p -> Efsm.Value.Addr (h, p)) bytes_gen (int_range 0 65535);
        return Efsm.Value.Unset;
      ])

let to_token v =
  let buf = Buffer.create 16 in
  Efsm.Value.add_token buf v;
  Buffer.contents buf

let value_arb = QCheck.make ~print:to_token value_gen

let value_token_roundtrip =
  q "value: of_token (to_token v) = v" value_arb (fun v ->
      match Efsm.Value.of_token (to_token v) with
      | Ok v' -> Efsm.Value.equal v' v
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Hex and CRC-32 against byte-at-a-time references                    *)
(* ------------------------------------------------------------------ *)

let reference_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let hex_matches_reference =
  q ~count:500 "hex: equals a Printf-per-byte encoder, and decodes back"
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:any_byte (int_range 0 300)))
    (fun s ->
      let h = Efsm.Value.hex_of_string s in
      let buf = Buffer.create 16 in
      Efsm.Value.add_hex buf s;
      String.equal h (reference_hex s)
      && String.equal (Buffer.contents buf) h
      && Efsm.Value.string_of_hex h = Ok s)

let unhex_accepts_exactly_hex_digits () =
  let is_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  let accepts h = Result.is_ok (Efsm.Value.string_of_hex h) in
  for b = 0 to 255 do
    let c = String.make 1 (Char.chr b) in
    check (Printf.sprintf "byte %02x as high nibble" b) (is_digit c.[0]) (accepts (c ^ "0"));
    check (Printf.sprintf "byte %02x as low nibble" b) (is_digit c.[0]) (accepts ("0" ^ c))
  done;
  check "uppercase decodes" true (Efsm.Value.string_of_hex "DEADbeef" = Ok "\xde\xad\xbe\xef");
  (* [int_of_string] takes '_' separators: "1_" once decoded to "\001". *)
  List.iter
    (fun tok -> check ("token " ^ tok) true (Result.is_error (Efsm.Value.of_token tok)))
    [ "s1_"; "sa_"; "a1_:5060" ]

let reference_crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let crc32_matches_reference () =
  Alcotest.(check string) "check value" "cbf43926" (Vids.Codec.crc32_hex "123456789");
  let rng = Random.State.make [| 32 |] in
  let data = String.init 256 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for len = 0 to 64 do
    let s = String.sub data 0 len in
    check_int (Printf.sprintf "crc32 of %d bytes" len) (reference_crc32 s) (Vids.Codec.crc32 s);
    for _ = 1 to 8 do
      let off = Random.State.int rng (String.length data - len + 1) in
      check_int
        (Printf.sprintf "crc32_sub ~off:%d ~len:%d" off len)
        (reference_crc32 (String.sub data off len))
        (Vids.Codec.crc32_sub data ~off ~len)
    done;
    (* Folded in two pieces, as [Snapshot.save] folds its chunks. *)
    let cut = Random.State.int rng (len + 1) and b = Bytes.of_string s in
    check_int
      (Printf.sprintf "crc32_update of %d bytes cut at %d" len cut)
      (reference_crc32 s)
      (Vids.Codec.crc32_update
         (Vids.Codec.crc32_update 0 b ~off:0 ~len:cut)
         b ~off:cut ~len:(len - cut))
  done;
  check "range past the end rejected" true
    (match Vids.Codec.crc32_sub data ~off:250 ~len:7 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let alert_gen =
  QCheck.Gen.(
    map
      (fun ((kind, severity, at), (subject, detail)) ->
        { Vids.Alert.kind; severity; at = Dsim.Time.of_us at; subject; detail })
      (pair
         (triple (oneofl Vids.Alert.all_kinds)
            (oneofl [ Vids.Alert.Info; Vids.Alert.Warning; Vids.Alert.Critical ])
            (int_range 0 1_000_000_000))
         (pair bytes_gen bytes_gen)))

let journal_entry_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Vids.Journal.Alert a) alert_gen;
        map
          (fun (at, subject, detail) ->
            Vids.Journal.Eviction { at = Dsim.Time.of_us at; subject; detail })
          (triple (int_range 0 1_000_000_000) bytes_gen bytes_gen);
        map
          (fun (at, seq) -> Vids.Journal.Checkpoint { at = Dsim.Time.of_us at; seq })
          (pair (int_range 0 1_000_000_000) (int_range 0 100_000));
      ])

let journal_entry_arb = QCheck.make ~print:Vids.Journal.entry_to_line journal_entry_gen

let journal_line_roundtrip =
  q "journal: entry_of_line (entry_to_line e) = e" journal_entry_arb (fun e ->
      match Vids.Journal.entry_of_line (Vids.Journal.entry_to_line e) with
      | Ok e' -> e' = e
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Snapshot round-trip on a real engine                                *)
(* ------------------------------------------------------------------ *)

let engine_at ~config ~calls cut =
  let trace = make_trace ~calls in
  Vids.Trace.replay_until ?config ~until:cut trace

let snapshot_text_roundtrip () =
  let sched, engine = engine_at ~config:None ~calls:12 (ms 450.) in
  let snap = Vids.Snapshot.capture ~seq:3 ~at:(Dsim.Scheduler.now sched) engine in
  let text = Vids.Snapshot.to_string snap in
  match Vids.Snapshot.of_string text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok snap' ->
      Alcotest.(check string) "canonical text stable" text (Vids.Snapshot.to_string snap');
      check_int "seq preserved" 3 (Vids.Snapshot.seq snap');
      check "at preserved" true (Dsim.Time.compare (Vids.Snapshot.at snap') (ms 450.) = 0)

let snapshot_restore_digest () =
  let sched, engine = engine_at ~config:None ~calls:12 (ms 450.) in
  let at = Dsim.Scheduler.now sched in
  let original = Vids.Snapshot.digest ~at engine in
  let snap = Vids.Snapshot.capture ~seq:1 ~at engine in
  match Vids.Snapshot.restore snap with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (sched', engine') ->
      check "clock restored" true (Dsim.Time.compare (Dsim.Scheduler.now sched') at = 0);
      Alcotest.(check string) "restored digest equal" original
        (Vids.Snapshot.digest ~at engine')

(* ------------------------------------------------------------------ *)
(* The convergence property: checkpoint ∘ crash ∘ recover ≡ no-crash   *)
(* ------------------------------------------------------------------ *)

let cut_at ~calls frac =
  Dsim.Time.of_us
    (max 1 (int_of_float (frac *. float_of_int (Dsim.Time.to_us (trace_horizon ~calls)))))

let converges ?config ~trace ~horizon cut =
  let _, straight = Vids.Trace.replay_until ?config ~until:horizon trace in
  let reference = Vids.Snapshot.digest ~at:horizon straight in
  let sched, engine = Vids.Trace.replay_until ?config ~until:cut trace in
  let snap = Vids.Snapshot.capture ~seq:1 ~at:(Dsim.Scheduler.now sched) engine in
  (* Through the wire format, as a real crash would read it. *)
  match Vids.Snapshot.of_string (Vids.Snapshot.to_string snap) with
  | Error e -> Alcotest.failf "checkpoint round-trip failed: %s" e
  | Ok snap -> (
      match Vids.Recovery.recover ?config ~trace ~until:horizon snap with
      | Error e -> Alcotest.failf "recovery failed: %s" e
      | Ok outcome ->
          String.equal reference
            (Vids.Snapshot.digest ~at:horizon outcome.Vids.Recovery.engine))

let converges_calls ?config ~calls cut =
  converges ?config ~trace:(make_trace ~calls) ~horizon:(trace_horizon ~calls) cut

(* Governed draws its sweep period on the 10 ms packet grid inside the
   trace, and a [call_max_age] below it, so sweeps fire, reclaim calls and
   tie with packets. *)
let convergence_prop =
  q ~count:12 "recovery: checkpoint ∘ crash ∘ recover ≡ no-crash"
    (QCheck.make
       ~print:(fun (calls, frac, governed) ->
         Printf.sprintf "calls=%d frac=%.2f governed=%s" calls frac
           (match governed with
           | None -> "no"
           | Some (every, age) -> Printf.sprintf "sweep %d0 ms, max age %d0 ms" every age))
       QCheck.Gen.(
         int_range 6 18 >>= fun calls ->
         let ticks = Dsim.Time.to_us (trace_horizon ~calls) / 10_000 in
         triple (return calls) (float_range 0.05 0.95)
           (opt ~ratio:0.5
              ( int_range 2 ticks >>= fun every ->
                pair (return every) (int_range 1 (every - 1)) ))))
    (fun (calls, frac, governed) ->
      let config =
        Option.map
          (fun (every, age) ->
            let tick n = ms (10. *. float_of_int n) in
            grid_sweep ~every:(tick every) ~max_age:(tick age))
          governed
      in
      converges_calls ?config ~calls (cut_at ~calls frac))

(* A sweep that never fires at two cuts of 15 calls, then the default
   and governed presets over 20 calls at a quarter, half and three
   quarters of the trace and 100 ms before its end; last, a sweep due
   with a CANCEL at 500 ms, cut before both. *)
let convergence_fixed () =
  let quarters ~calls =
    List.map (cut_at ~calls) [ 0.25; 0.5; 0.75 ]
    @ [ Dsim.Time.sub (trace_horizon ~calls) (ms 100.) ]
  in
  List.iter
    (fun (label, config, calls, cuts) ->
      List.iter
        (fun cut ->
          check
            (Printf.sprintf "converges %s calls=%d cut=%.3fs" label calls (Dsim.Time.to_sec cut))
            true (converges_calls ?config ~calls cut))
        cuts)
    [
      ("default", None, 15, List.map (cut_at ~calls:15) [ 0.3; 0.85 ]);
      ("sweepy", Some sweepy_config, 15, List.map (cut_at ~calls:15) [ 0.3; 0.85 ]);
      ("default", None, 20, quarters ~calls:20);
      ("governed", Some (Vids.Config.governed Vids.Config.default), 20, quarters ~calls:20);
    ];
  check "converges with a sweep and a CANCEL both due at 500 ms, cut at 250 ms" true
    (converges
       ~config:(grid_sweep ~every:(ms 500.) ~max_age:(ms 300.))
       ~trace:(sweep_tie ~cancel_at:(ms 500.))
       ~horizon:(sec 1.0) (ms 250.))

(* ------------------------------------------------------------------ *)
(* Corruption fuzzing: damaged snapshots are rejected, never escape    *)
(* ------------------------------------------------------------------ *)

let base_snapshot_text =
  lazy
    (let sched, engine = engine_at ~config:None ~calls:8 (ms 380.) in
     Vids.Snapshot.to_string
       (Vids.Snapshot.capture ~seq:2 ~at:(Dsim.Scheduler.now sched) engine))

type mutation = Truncate | Flip | Insert | Delete_line

let mutate text mutation pos byte =
  let n = String.length text in
  if n = 0 then text
  else
    let pos = pos mod n in
    match mutation with
    | Truncate -> String.sub text 0 pos
    | Flip ->
        let b = Bytes.of_string text in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor max 1 (byte land 0xff)));
        Bytes.to_string b
    | Insert ->
        String.sub text 0 pos ^ Printf.sprintf "\ngarbage %d\n" byte
        ^ String.sub text pos (n - pos)
    | Delete_line -> (
        match String.split_on_char '\n' text with
        | lines ->
            let k = pos mod max 1 (List.length lines) in
            String.concat "\n" (List.filteri (fun i _ -> i <> k) lines))

let snapshot_fuzz =
  q ~count:400 "snapshot: corruption is rejected, never an exception"
    (QCheck.make
       ~print:(fun (m, pos, byte) ->
         Printf.sprintf "%s pos=%d byte=%d"
           (match m with
           | Truncate -> "truncate"
           | Flip -> "flip"
           | Insert -> "insert"
           | Delete_line -> "delete-line")
           pos byte)
       QCheck.Gen.(
         triple (oneofl [ Truncate; Flip; Insert; Delete_line ]) (int_range 0 5_000_000)
           (int_range 0 255)))
    (fun (m, pos, byte) ->
      let text = mutate (Lazy.force base_snapshot_text) m pos byte in
      match Vids.Snapshot.of_string text with
      | Error _ -> true
      | Ok snap -> (
          (* The mutation dodged the CRC (e.g. truncated to just the header,
             or deleted nothing): restoring must still be total. *)
          match Vids.Snapshot.restore snap with Ok _ -> true | Error _ -> true)
      | exception _ -> false)

let snapshot_version_skew () =
  let text = Lazy.force base_snapshot_text in
  let skewed =
    "VIDS-SNAPSHOT 99" ^ String.sub text 15 (String.length text - 15)
  in
  match Vids.Snapshot.of_string skewed with
  | Ok _ -> Alcotest.fail "version 99 accepted"
  | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check "mentions version" true (contains e "version")

(* A spam detector is keyed by its stream's address, and its snapshot line
   carries that address's text.  A snapshot comes from outside, so a spam
   key that is not host:port, resealed under a good CRC, is refused by
   name rather than restored under a key no packet can reach. *)
let snapshot_refuses_unparsable_spam_key () =
  let text = Lazy.force base_snapshot_text in
  let lines = String.split_on_char '\n' text in
  let bad = "no-port-here" in
  let edited = ref 0 in
  let lines =
    List.map
      (fun line ->
        match String.split_on_char ' ' line with
        | "DET" :: "spam" :: _ :: rest when !edited = 0 ->
            incr edited;
            String.concat " " ("DET" :: "spam" :: Vids.Codec.hex bad :: rest)
        | _ -> line)
      lines
  in
  check_int "a spam detector line edited" 1 !edited;
  (* Header, body, then the "END <crc> <len>" trailer and its newline. *)
  let n = List.length lines in
  let body = String.concat "\n" (List.filteri (fun i _ -> i > 0 && i < n - 2) lines) ^ "\n" in
  let resealed =
    List.hd lines ^ "\n" ^ body
    ^ Printf.sprintf "END %08x %d\n" (Vids.Codec.crc32 body) (String.length body)
  in
  match Vids.Snapshot.of_string resealed with
  | Error e -> Alcotest.failf "the resealed snapshot does not parse: %s" e
  | Ok snap -> (
      match Vids.Snapshot.restore snap with
      | Ok _ -> Alcotest.fail "a spam detector keyed by no address restored"
      | Error e ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          if not (contains e bad) then Alcotest.failf "the error does not name the key: %s" e)

(* ------------------------------------------------------------------ *)
(* Lenient loaders                                                     *)
(* ------------------------------------------------------------------ *)

let with_temp_file content f =
  let path = Filename.temp_file "vids-test" ".tmp" in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let journal_lenient_load () =
  let e1 = Vids.Journal.Checkpoint { at = ms 10.; seq = 1 } in
  let e2 =
    Vids.Journal.Alert
      (Vids.Alert.make ~kind:Vids.Alert.Bye_dos ~at:(ms 20.) ~subject:"c-1" "teardown")
  in
  let e3 = Vids.Journal.Eviction { at = ms 30.; subject = "c-2"; detail = "cap" } in
  let good = List.map Vids.Journal.entry_to_line [ e1; e2; e3 ] in
  let torn = String.sub (Vids.Journal.entry_to_line e3) 0 12 in
  let content = String.concat "\n" (good @ [ "not a journal line at all"; torn ]) ^ "\n" in
  with_temp_file content (fun path ->
      match Vids.Journal.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (entries, skipped) ->
          check_int "three entries survive" 3 (List.length entries);
          check "entries decode intact" true (entries = [ e1; e2; e3 ]);
          check_int "two lines skipped" 2 (List.length skipped);
          check "skips carry line numbers" true (List.map fst skipped = [ 4; 5 ]))

let journal_suffix_split () =
  let a at subject =
    Vids.Journal.Alert
      (Vids.Alert.make ~kind:Vids.Alert.Media_spam ~at ~subject "spam")
  in
  let entries =
    [
      a (ms 5.) "s-1";
      Vids.Journal.Checkpoint { at = ms 10.; seq = 1 };
      a (ms 15.) "s-2";
      Vids.Journal.Checkpoint { at = ms 20.; seq = 2 };
      a (ms 25.) "s-3";
    ]
  in
  check_int "after marker 2" 1 (List.length (Vids.Journal.suffix_after ~seq:2 ~at:(ms 20.) entries));
  check_int "after marker 1" 3 (List.length (Vids.Journal.suffix_after ~seq:1 ~at:(ms 10.) entries));
  (* No marker: timestamp fallback. *)
  check_int "timestamp fallback" 1
    (List.length (Vids.Journal.suffix_after ~seq:99 ~at:(ms 20.) entries))

(* ------------------------------------------------------------------ *)
(* Files: rotation and fallback                                        *)
(* ------------------------------------------------------------------ *)

let rotation_and_fallback () =
  let path = Filename.temp_file "vids-ckpt" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Vids.Snapshot.previous_path path ])
    (fun () ->
      let calls = 10 in
      let trace = make_trace ~calls in
      let horizon = trace_horizon ~calls in
      let sched, engine = Vids.Trace.replay_until ~until:(ms 300.) trace in
      Vids.Snapshot.save ~path
        (Vids.Snapshot.capture ~seq:1 ~at:(Dsim.Scheduler.now sched) engine);
      let sched2, engine2 = Vids.Trace.replay_until ~until:(ms 500.) trace in
      Vids.Snapshot.save ~path
        (Vids.Snapshot.capture ~seq:2 ~at:(Dsim.Scheduler.now sched2) engine2);
      check "previous rotated" true (Sys.file_exists (Vids.Snapshot.previous_path path));
      (* Corrupt the primary: recovery must fall back to the rotated copy
         and still converge with an uninterrupted run from that instant. *)
      let oc = open_out_bin path in
      output_string oc "VIDS-SNAPSHOT 1 2 500000\ntotally torn";
      close_out oc;
      match Vids.Recovery.recover_files ~trace_path:"/nonexistent/trace" ~until:horizon
              ~snapshot_path:path ()
      with
      | Error e -> Alcotest.failf "fallback recovery failed: %s" e
      | Ok fr ->
          check "used fallback" true fr.Vids.Recovery.used_fallback;
          check_int "fallback is checkpoint #1" 1
            fr.Vids.Recovery.outcome.Vids.Recovery.snapshot_seq;
          check_int "primary rejected with reason" 1 (List.length fr.Vids.Recovery.rejected);
          (* Both copies gone: recovery reports, never raises. *)
          let oc = open_out_bin (Vids.Snapshot.previous_path path) in
          output_string oc "also torn";
          close_out oc;
          (match Vids.Recovery.recover_files ~snapshot_path:path () with
          | Ok _ -> Alcotest.fail "recovered from two corrupt snapshots"
          | Error e -> check "diagnostic names both files" true (String.length e > 0)))

(* A capture that is not pcap, such as a text tee an older daemon wrote,
   is refused by name rather than replayed as an empty suffix. *)
(* [Snapshot.save] over the empty file [Filename.temp_file] made rotates
   that file to [previous_path], so both are removed. *)
let with_snapshot f =
  let snap = Filename.temp_file "vids-ckpt" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ snap; Vids.Snapshot.previous_path snap ])
    (fun () ->
      Vids.Snapshot.save ~path:snap
        (Vids.Snapshot.capture ~seq:1 ~at:Dsim.Time.zero
           (Vids.Engine.create (Dsim.Scheduler.create ())));
      f snap)

let non_pcap_capture_refused () =
  with_snapshot @@ fun snap ->
  let text = "1000 10.1.0.2:5060 10.2.0.2:5060 494e56495445\n" in
  with_temp_file text (fun path ->
      let recovered = Vids.Recovery.recover_files ~trace_path:path ~snapshot_path:snap () in
      match recovered with
      | Ok _ -> Alcotest.fail "a text capture was replayed"
      | Error e ->
          check (Printf.sprintf "the error %S names the file" e) true
            (String.starts_with ~prefix:path e))

(* A journal that exists but cannot be read, here a directory, is
   refused by name rather than raising or passing for an empty one. *)
let unreadable_journal_refused () =
  with_snapshot @@ fun snap ->
  let dir = Filename.get_temp_dir_name () in
  let recovered = Vids.Recovery.recover_files ~journal_path:dir ~snapshot_path:snap () in
  match recovered with
  | Ok _ -> Alcotest.fail "a directory passed for a journal"
  | Error e ->
      check (Printf.sprintf "the error %S names the journal" e) true
        (String.starts_with ~prefix:dir e)

(* ------------------------------------------------------------------ *)
(* Journal merge semantics                                             *)
(* ------------------------------------------------------------------ *)

let merge_idempotent () =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let alert =
    Vids.Alert.make ~kind:Vids.Alert.Invite_flood ~at:(ms 5.) ~subject:"sip:bob@b.example"
      "INVITE flood"
  in
  Vids.Engine.merge_journal_alert engine alert;
  Vids.Engine.merge_journal_alert engine alert;
  check_int "merged exactly once" 1 (List.length (Vids.Engine.alerts engine));
  check_int "no suppression counted" 0 (Vids.Engine.counters engine).Vids.Engine.alerts_suppressed

(* ------------------------------------------------------------------ *)
(* Durable-file corruption fuzz                                        *)
(* ------------------------------------------------------------------ *)

(* Random single-point corruption of an append-only file: a byte flip, a
   truncation, or a garbage splice.  Loaders must never raise, and every
   line wholly before the corruption point must come back verbatim — the
   CRC-armored prefix is the recovery contract. *)

let corruption_gen =
  QCheck.Gen.(
    quad (int_range 0 2) (int_range 0 10_000) any_byte
      (string_size ~gen:any_byte (int_range 0 64)))

let corruption_arb =
  QCheck.make
    ~print:(fun (mode, pos, c, junk) ->
      Printf.sprintf "mode=%d pos=%d byte=%02x junk=%S" mode pos (Char.code c) junk)
    corruption_gen

(* Applies one corruption to [lines] rendered as a file; returns the
   mangled content and how many leading lines are untouched. *)
let corrupt_lines lines (mode, pos, c, junk) =
  let original = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let len = String.length original in
  let pos = if len = 0 then 0 else pos mod len in
  let corrupted =
    match mode with
    | 0 ->
        let b = Bytes.of_string original in
        let c = if Bytes.get b pos = c then Char.chr ((Char.code c + 1) land 0xff) else c in
        Bytes.set b pos c;
        Bytes.to_string b
    | 1 -> String.sub original 0 pos
    | _ -> String.sub original 0 pos ^ junk ^ String.sub original pos (len - pos)
  in
  let intact = ref 0 in
  let off = ref 0 in
  List.iter
    (fun l ->
      (* The line plus its newline must sit strictly before the
         corruption point. *)
      if !off + String.length l + 1 <= pos then incr intact;
      off := !off + String.length l + 1)
    lines;
  (corrupted, !intact)

let with_corrupt_file lines op f =
  let corrupted, intact = corrupt_lines lines op in
  let path = Filename.temp_file "vids_corrupt" ".log" in
  let oc = open_out_bin path in
  output_string oc corrupted;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path intact)

let prefix_matches rendered_loaded lines intact =
  List.length rendered_loaded >= intact
  && List.for_all2
       (fun a b -> String.equal a b)
       (List.filteri (fun i _ -> i < intact) rendered_loaded)
       (List.filteri (fun i _ -> i < intact) lines)

let journal_fixture_lines =
  let alert kind at subject msg = Vids.Journal.Alert (Vids.Alert.make ~kind ~at:(ms at) ~subject msg) in
  List.map Vids.Journal.entry_to_line
    [
      alert Vids.Alert.Invite_flood 5. "sip:bob@b.example" "INVITE flood";
      Vids.Journal.Eviction { at = ms 7.; subject = "call-0"; detail = "ttl expired" };
      alert Vids.Alert.Spec_deviation 12. "10.1.0.2:5060" "unparseable SIP";
      Vids.Journal.Checkpoint { at = ms 15.; seq = 1 };
      alert Vids.Alert.Invite_flood 21. "sip:carol@b.example" "INVITE flood";
      Vids.Journal.Eviction { at = ms 30.; subject = "call-3"; detail = "bye" };
      Vids.Journal.Checkpoint { at = ms 40.; seq = 2 };
      alert Vids.Alert.Spec_deviation 44. "10.9.0.9:5060" "teardown out of order";
    ]

let journal_corruption_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"journal: corruption never raises, keeps CRC-valid prefix"
       ~count:300 corruption_arb (fun op ->
         with_corrupt_file journal_fixture_lines op (fun path intact ->
             match Vids.Journal.load path with
             | Error e -> QCheck.Test.fail_reportf "load refused to open: %s" e
             | Ok (entries, _bad) ->
                 prefix_matches
                   (List.map Vids.Journal.entry_to_line entries)
                   journal_fixture_lines intact)))

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "recovery",
      [
        value_token_roundtrip;
        hex_matches_reference;
        tc "unhex accepts exactly hex digits" unhex_accepts_exactly_hex_digits;
        tc "crc32 matches a byte-wise reference" crc32_matches_reference;
        journal_line_roundtrip;
        tc "snapshot text round-trip" snapshot_text_roundtrip;
        tc "snapshot restore digest" snapshot_restore_digest;
        convergence_prop;
        tc "convergence at fixed cuts" convergence_fixed;
        snapshot_fuzz;
        tc "snapshot version skew rejected" snapshot_version_skew;
        tc "snapshot refuses a spam key that is not host:port"
          snapshot_refuses_unparsable_spam_key;
        tc "journal lenient load" journal_lenient_load;
        tc "journal suffix split" journal_suffix_split;
        tc "checkpoint rotation and fallback" rotation_and_fallback;
        tc "a capture that is not pcap is refused by name" non_pcap_capture_refused;
        tc "a journal that cannot be read is refused by name" unreadable_journal_refused;
        tc "journal merge idempotent" merge_idempotent;
        journal_corruption_fuzz;
      ] );
  ]
