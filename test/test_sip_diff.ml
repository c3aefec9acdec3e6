(* Differential tests of the SIP and SDP front end against the reference
   model in [Sip_reference]: on grammar-shaped messages and on the same
   messages truncated, bit-flipped, folded, case-changed or with
   separators inserted, both must agree on every parse result (error
   strings included), every typed accessor, every SDP body and the EFSM
   event each message becomes.  The allocation-free locators are held to
   the record parsers they share a grammar with. *)

module R = Sip_reference

(* ------------------------------------------------------------------ *)
(* Grammar-shaped generators                                           *)
(* ------------------------------------------------------------------ *)

let pick st a = a.(Random.State.int st (Array.length a))
let chance st n = Random.State.int st n = 0
let concat_map_n st n f = String.concat "" (List.init n (fun _ -> f st))

(* Mostly [usual], one time in six one of the [odd] spellings. *)
let often st usual odd = if chance st 6 then pick st odd else usual

let word st =
  String.init
    (1 + Random.State.int st 6)
    (fun _ -> pick st [| 'a'; 'b'; 'x'; 'z'; '0'; '7'; '-'; '.'; 'K'; 'Q' |])

let host st =
  often st (pick st [| "a.example"; "10.1.0.2"; "h"; "B.Example" |]) [| ""; "[::1]"; "h h" |]

let port st =
  match Random.State.int st 8 with
  | 0 | 1 | 2 | 3 -> ""
  | 4 | 5 | 6 -> ":" ^ string_of_int (Random.State.int st 70000)
  | _ -> ":" ^ pick st [| "0"; "65535"; "0x13c4"; "+5"; ""; "99999999999999999999"; "50 60" |]

let uri_params st =
  concat_map_n st (Random.State.int st 3) (fun st ->
      often st
        (pick st [| ";lr"; ";transport=udp"; ";user=phone" |])
        [| ";"; "; x = y "; ";maddr=" |])

let uri st =
  often st
    (pick st [| "sip:"; "sip:"; "sips:"; "SIP:"; "tel:" |])
    [| "mailto:"; "Sip:"; ""; "sip" |]
  ^ (if chance st 4 then "" else word st ^ often st "@" [| "@@"; ":pw@" |])
  ^ host st ^ port st ^ uri_params st
  ^ if chance st 8 then "?" ^ word st ^ "=" ^ word st else ""

let header_params st =
  concat_map_n st (Random.State.int st 3) (fun st ->
      often st (";tag=" ^ word st) [| ";tag"; "; tag = t1 "; ";expires=60"; ";"; ";q=0.5" |])

let name_addr st =
  let display =
    often st (pick st [| ""; ""; "Alice "; "\"Smith, J.\" " |])
      [| "\"<odd>\" "; "\"\" "; "\" "; "\"unterminated "; " "; "A,B " |]
  in
  match Random.State.int st 12 with
  | 0 | 1 -> uri st ^ header_params st
  | 2 -> display ^ "<" ^ uri st ^ header_params st
  | 3 -> display ^ uri st ^ ">" ^ header_params st
  | _ -> display ^ "<" ^ uri st ^ ">" ^ header_params st

let via_one st =
  often st (pick st [| "SIP/2.0/UDP"; "SIP/2.0/TCP" |])
    [| "SIP/2.0/"; "sip/2.0/UDP"; "SIP/2.0/UDP/X"; "SIP/3.0/UDP" |]
  ^ often st " " [| "  "; "\t"; "" |]
  ^ host st ^ port st
  ^ concat_map_n st (Random.State.int st 3) (fun st ->
        often st
          (pick st [| ";branch=z9hG4bK" ^ word st; ";rport"; ";received=10.0.0.1" |])
          [| "; branch = b "; ";"; ";branch" |])

let via st =
  String.concat
    (often st ", " [| ","; " , "; ",,"; ", \"a,b\" "; ", <x,y>" |])
    (List.init (1 + Random.State.int st 3) (fun _ -> via_one st))

let meth st =
  often st
    (pick st [| "INVITE"; "ACK"; "BYE"; "CANCEL"; "REGISTER"; "OPTIONS" |])
    [| "invite"; "FOO"; "" |]

let cseq st =
  often st
    (string_of_int (Random.State.int st 100))
    [| "-1"; "1_0"; "0x2"; "99999999999999999999"; "" |]
  ^ often st " " [| "  "; "\t"; "" |]
  ^ meth st
  ^ if chance st 12 then " extra" else ""

let number st =
  often st (string_of_int (Random.State.int st 100)) [| " 3 "; "0x46"; "+1"; ""; "-1" |]

let sdp_line st =
  match Random.State.int st 4 with
  | 0 -> pick st [| "v=1"; "v=0x0"; "v="; "b=AS:64"; "k=clear"; "z=0 0"; "x=bad"; "v"; "=0"; "" |]
  | 1 -> "c=" ^ pick st [| "IN  IP4   h"; "IN IP4"; "IN IP4 a b" |]
  | 2 ->
      "m="
      ^ pick st [| "audio"; "video"; "" |]
      ^ pick st [| " 16384"; " 0x4000"; " "; " 20000" |]
      ^ pick st [| " RTP/AVP"; "" |]
      ^ concat_map_n st (Random.State.int st 4) (fun st -> pick st [| " 0"; " 18"; " x"; "  96" |])
  | _ -> "a=" ^ pick st [| "rtpmap:18 G729/8000"; "sendrecv"; "ptime:20"; ":"; "" |]

(* A description shaped like the endpoints', with odd lines mixed in. *)
let sdp st =
  let eol st = often st "\r\n" [| "\n"; "\r\r\n"; "" |] in
  let lines =
    [ "v=0"; "o=alice 0 0 IN IP4 10.1.0.10"; "s=-" ]
    @ (if chance st 4 then [] else [ "c=IN IP4 10.1.0.10" ])
    @ [ "t=0 0" ]
    @ List.init (Random.State.int st 3) (fun _ ->
          "m=audio " ^ string_of_int (16384 + (2 * Random.State.int st 100)) ^ " RTP/AVP 18 0")
    @ if chance st 2 then [ "a=rtpmap:18 G729/8000"; "a=sendrecv" ] else []
  in
  let lines = List.concat_map (fun l -> if chance st 5 then [ sdp_line st; l ] else [ l ]) lines in
  String.concat "" (List.map (fun l -> l ^ eol st) lines)

let compact =
  [|
    ("Via", "v"); ("From", "f"); ("To", "t"); ("Call-ID", "i"); ("Contact", "m");
    ("Content-Type", "c"); ("Content-Length", "l");
  |]

let header_name st name =
  let name =
    match Array.find_opt (fun (long, _) -> long = name) compact with
    | Some (_, short) when chance st 4 -> short
    | _ -> name
  in
  match Random.State.int st 8 with
  | 0 -> String.uppercase_ascii name
  | 1 -> String.lowercase_ascii name
  | 2 -> name ^ " "
  | _ -> name

let message st =
  let body = if chance st 3 then "" else if chance st 6 then word st else sdp st in
  let fields =
    List.concat
      [
        List.init (often st 1 [| 0; 2; 3 |]) (fun _ -> ("Via", via st));
        (if chance st 12 then [] else [ ("From", name_addr st) ]);
        (if chance st 12 then [] else [ ("To", name_addr st) ]);
        (if chance st 12 then [] else [ ("Call-ID", word st ^ "@" ^ host st) ]);
        (if chance st 12 then [] else [ ("CSeq", cseq st) ]);
        (if chance st 2 then [] else [ ("Contact", name_addr st) ]);
        (if chance st 3 then [] else [ ("Max-Forwards", number st) ]);
        (if chance st 4 then [] else [ ("Expires", number st) ]);
        (if body = "" && chance st 2 then []
         else
           [
             ( "Content-Type",
               often st "application/sdp"
                 [|
                   "Application/SDP"; "application/sdp;charset=utf-8"; " application / sdp ";
                   "text/plain"; "application"; "application/sdpx";
                 |] );
           ]);
        (if chance st 5 then
           [ (pick st [| "X-Custom"; "x-odd-NAME"; "Subject"; "s"; "--x"; "Route" |], word st) ]
         else []);
        (if chance st 3 then []
         else
           [
             ( "Content-Length",
               often st
                 (string_of_int (String.length body))
                 [| "0"; "999"; " 5 "; "0x2"; "+3"; "-1" |] );
           ]);
      ]
  in
  let start =
    if chance st 3 then
      "SIP/2.0 "
      ^ often st
          (pick st [| "200"; "180"; "100"; "487" |])
          [| "699"; "700"; "42"; "0xC8"; "+200"; "2000" |]
      ^ often st " OK" [| ""; " "; " Temporarily not available" |]
    else meth st ^ " " ^ uri st ^ often st " SIP/2.0" [| " SIP/3.0"; ""; "  SIP/2.0" |]
  in
  let eol = often st "\r\n" [| "\n" |] in
  let line (name, value) = header_name st name ^ ":" ^ often st " " [| ""; "  "; "\t" |] ^ value in
  String.concat eol (start :: List.map line fields) ^ eol ^ eol ^ body

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

let insert s i piece = String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i)

(* The fault layer's corruption: one to four bytes XORed with 1..255. *)
let flip st s =
  let b = Bytes.of_string s in
  for _ = 1 to 1 + Random.State.int st 4 do
    let i = Random.State.int st (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int st 255)))
  done;
  Bytes.to_string b

let mutate st s =
  if s = "" then s
  else
    let i = Random.State.int st (String.length s) in
    match Random.State.int st 6 with
    | 0 -> String.sub s 0 i
    | 1 -> flip st s
    | 2 -> (
        (* Fold: break a line at a space, or continue one anywhere. *)
        match String.index_from_opt s i ' ' with
        | Some j ->
            String.sub s 0 j
            ^ pick st [| "\r\n "; "\r\n\t"; "\n  " |]
            ^ String.sub s (j + 1) (String.length s - j - 1)
        | None -> insert s i "\r\n ")
    | 3 ->
        let n = min (String.length s - i) (1 + Random.State.int st 12) in
        let change = if chance st 2 then Char.uppercase_ascii else Char.lowercase_ascii in
        String.mapi (fun k c -> if k >= i && k < i + n then change c else c) s
    | 4 ->
        insert s i
          (pick st [| ","; ";"; ":"; " "; "\t"; "<"; ">"; "\""; "@"; "/"; "="; "?"; "\r\n"; "\n" |])
    | _ -> insert s i (pick st [| "\r\n\r\n"; "\n\n"; "\r\n \r\n" |])

(* Unchanged a third of the time, else one to six mutations chained. *)
let mutated st gen =
  let rec go s n = if n = 0 then s else go (mutate st s) (n - 1) in
  go (gen st) (if chance st 3 then 0 else 1 + Random.State.int st 6)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let disagree ?(sides = ("scanner", "reference")) what pp got want =
  QCheck.Test.fail_reportf "%s differs:@.  %-10s %s@.  %-10s %s" what (fst sides ^ ":") (pp got)
    (snd sides ^ ":") (pp want)

let agree ?sides what pp got want = got = want || disagree ?sides what pp got want

let show_result show = function Ok v -> "Ok " ^ show v | Error e -> Printf.sprintf "Error %S" e
let show_opt show = function Some v -> "Some " ^ show v | None -> "None"
let show_uri u = Sip.Uri.to_string u
let show_str = Printf.sprintf "%S"

let show_na na =
  Sip.Name_addr.to_string na ^ " display=" ^ show_opt show_str na.Sip.Name_addr.display

let show_via v = Sip.Via.to_string v
let show_cseq c = Sip.Cseq.to_string c
let show_fields l = String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "%s=%S" n v) l)
let show_sdp = function Ok d -> "Ok " ^ Sdp.to_string d | Error e -> Printf.sprintf "Error %S" e
let show_args args =
  String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ Efsm.Value.to_string v) args)

let show_start = function
  | Sip.Msg.Request { meth; uri } -> Sip.Msg_method.to_string meth ^ " " ^ Sip.Uri.to_string uri
  | Sip.Msg.Response { code; reason } -> Printf.sprintf "%d %S" code reason

let src = Dsim.Addr.v "10.1.0.2" 5060
let dst = Dsim.Addr.v "10.2.0.2" 5060
let show_keys = function Ok s -> s | Error e -> "Error " ^ e

let accessors_agree (m : Sip.Msg.t) (r : R.msg) =
  agree "call_id" (show_result show_str) (Sip.Msg.call_id m) (R.call_id r)
  && agree "cseq" (show_result show_cseq) (Sip.Msg.cseq m) (R.msg_cseq r)
  && agree "from" (show_result show_na) (Sip.Msg.from_ m) (R.from_ r)
  && agree "to" (show_result show_na) (Sip.Msg.to_ m) (R.to_ r)
  && agree "contact" (show_result show_na) (Sip.Msg.contact m) (R.contact r)
  && agree "top_via" (show_result show_via) (Sip.Msg.top_via m) (R.top_via r)
  && agree "decrement_max_forwards"
       (show_result (show_opt show_str))
       (match Sip.Msg.decrement_max_forwards m with
       | Ok m -> Ok (Sip.Header.get m.Sip.Msg.headers "Max-Forwards")
       | Error `Exhausted -> Error "exhausted"
       | Error `Malformed -> Error "malformed")
       (* An absent value becomes 70; a present one that is not 1*DIGIT
          is an error, not absent. *)
       (match (R.Header.get r.headers "Max-Forwards", R.max_forwards r) with
       | None, _ -> Ok (Some "70")
       | Some _, None -> Error "malformed"
       | Some _, Some 0 -> Error "exhausted"
       | Some _, Some n -> Ok (Some (string_of_int (n - 1))))
  && agree "expires" (show_opt string_of_int) (Sip.Msg.expires m) (R.expires r)
  && agree "content_type_is" string_of_bool
       (Sip.Msg.content_type_is m "application/sdp")
       (R.content_type_is r "application/sdp")
  && agree "method_of" (show_opt Sip.Msg_method.to_string) (Sip.Msg.method_of m) (R.method_of r)
  && agree "status_of" (show_opt string_of_int) (Sip.Msg.status_of m) (R.status_of r)
  && agree "transaction_key" show_keys (Sip.Msg.transaction_key m) (R.transaction_key r)
  && agree "invite_key_of_cancel" show_keys (Sip.Msg.invite_key_of_cancel m)
       (R.invite_key_of_cancel r)
  && List.for_all
       (fun name ->
         agree ("get " ^ name) (show_opt show_str) (Sip.Header.get m.headers name)
           (R.Header.get r.headers name)
         && agree ("get_all " ^ name) (String.concat " | ")
              (Sip.Header.get_all m.headers name)
              (R.Header.get_all r.headers name))
       [ "Via"; "v"; "route"; "X-CUSTOM"; "x-odd-name"; "S"; "Content-Length"; "--x" ]
  && agree "sdp body" show_sdp (Sdp.parse m.body) (R.sdp r.body)
  &&
  let got = Vids.Sip_event.of_msg ~at:Dsim.Time.zero ~src ~dst m in
  let want = R.of_msg ~at:Dsim.Time.zero ~src ~dst r in
  agree "event name" Fun.id (Efsm.Event.name got) (Efsm.Event.name want)
  && agree "event args" show_args (Efsm.Event.args got) (Efsm.Event.args want)

let message_agrees text =
  match (Sip.Msg.parse text, R.parse text) with
  | Error got, Error want -> agree "parse error" show_str got want
  | Ok m, Ok r ->
      agree "start line" show_start m.start r.start
      && agree "headers" show_fields (Sip.Header.to_list m.headers) r.headers
      && agree "body" show_str m.body r.body
      && accessors_agree m r
  | Ok m, Error e ->
      QCheck.Test.fail_reportf "scanner accepted (%s), reference rejected: %S"
        (show_start m.start) e
  | Error e, Ok _ -> QCheck.Test.fail_reportf "scanner rejected (%S), reference accepted" e

let field_agrees text =
  agree "Uri.parse" (show_result show_uri) (Sip.Uri.parse text) (R.uri text)
  && agree "Name_addr.parse" (show_result show_na) (Sip.Name_addr.parse text) (R.name_addr text)
  && agree "Via.parse" (show_result show_via) (Sip.Via.parse text) (R.via text)
  && agree "Cseq.parse" (show_result show_cseq) (Sip.Cseq.parse text) (R.cseq text)
  && agree "Header.canonical_name" Fun.id (Sip.Header.canonical_name text)
       (R.Header.canonical_name text)

(* Each locator finds the part its record parser reads, and fails where
   that parser fails or reads no such part, on the text alone and on a
   slice of padding. *)
let locators_agree text =
  let padded = "<<" ^ text ^ ">>" and n = String.length text in
  let locator_agrees what locate want =
    let find s start =
      let p = locate s start (start + n) in
      if p < 0 then None else Some (Sip.Scan.sub_span s p)
    in
    agree what (show_opt show_str) (find text 0) want
    && agree (what ^ " in a slice") (show_opt show_str) (find padded 2) want
  in
  let read parse part = match parse text with Ok v -> part v | Error _ -> None in
  locator_agrees "Uri.host_span" Sip.Uri.host_span
    (read Sip.Uri.parse (fun u -> Some u.Sip.Uri.host))
  && locator_agrees "Name_addr.host_span" Sip.Name_addr.host_span
       (read Sip.Name_addr.parse (fun na -> Some na.Sip.Name_addr.uri.Sip.Uri.host))
  && locator_agrees "Name_addr.tag_span" Sip.Name_addr.tag_span
       (read Sip.Name_addr.parse Sip.Name_addr.tag)
  && locator_agrees "Via.branch_span" Sip.Via.branch_span (read Sip.Via.parse Sip.Via.branch)

(* Range parsers agree with the whole-string ones on a slice of padding. *)
let ranges_agree text =
  let padded = "<<" ^ text ^ ">>" and start = 2 and stop = 2 + String.length text in
  Sip.Uri.parse_range padded start stop = Sip.Uri.parse text
  && Sip.Name_addr.parse_range padded start stop = Sip.Name_addr.parse text
  && Sip.Via.parse_range padded start stop = Sip.Via.parse text
  && Sip.Cseq.parse_range padded start stop = Sip.Cseq.parse text
  && Sdp.parse_range padded start stop = Sdp.parse text

let arb gen = QCheck.make ~print:(Printf.sprintf "%S") gen

let field st =
  match Random.State.int st 6 with
  | 0 -> uri st
  | 1 | 2 -> name_addr st
  | 3 -> via st
  | 4 -> cseq st
  | _ -> word st

(* A header block whose names are the known fields and their compact
   forms, each in a random case. *)
let known_fields st =
  let names = Array.of_list (List.map fst (R.Header.known_table @ R.Header.compact_table)) in
  let spell name =
    String.map (fun c -> if chance st 2 then Char.uppercase_ascii c else c) name
  in
  concat_map_n st (Random.State.int st 12) (fun st ->
      spell (pick st names) ^ ": " ^ word st ^ "\r\n")

(* [get_canonical] on a canonical name finds what [get] finds under any
   spelling of it: the name itself, all upper or lower case, or its
   compact form. *)
let canonical_lookup_agrees text =
  match Sip.Msg.parse ("OPTIONS sip:b@b.example SIP/2.0\r\n" ^ text) with
  | Error _ -> true
  | Ok { headers = h; _ } ->
      let same spelling canon =
        agree ("Header.get " ^ spelling) (show_opt show_str)
          (Sip.Header.get_canonical h canon) (Sip.Header.get h spelling)
      in
      List.for_all
        (fun (lower, canon) ->
          same canon canon && same lower canon && same (String.uppercase_ascii canon) canon)
        R.Header.known_table
      && List.for_all
           (fun (short, canon) -> same short canon && same (String.uppercase_ascii short) canon)
           R.Header.compact_table

(* ------------------------------------------------------------------ *)
(* The sensor's reading: the index, not the parsed message             *)
(* ------------------------------------------------------------------ *)

let packets = Dsim.Packet.allocator ()
let sip_packet text = Dsim.Packet.make packets ~src ~dst ~sent_at:Dsim.Time.zero text
let no_media _ = false

(* What the engine reads of [text] through [index]: [Classifier.read]'s
   verdict and, for an accepted message, the event, its Call-ID, the flood
   key and the message the index describes. *)
type reading = {
  verdict : (unit, string) result;
  event : (string * (string * Efsm.Value.t) list) option;
  call_id : Efsm.Value.t;
  flood : string option;
  message : (string * (string * string) list * string) option;
}

let read_through index text =
  match Vids.Classifier.read index ~known_media:no_media (sip_packet text) with
  | Vids.Classifier.Sip () ->
      let e = Vids.Sip_event.of_index ~at:Dsim.Time.zero ~src ~dst index in
      let m = Sip.Msg.of_index index in
      {
        verdict = Ok ();
        event = Some (Efsm.Event.name e, Efsm.Event.args e);
        call_id = Efsm.Event.get e Vids.Keys.Field.call_id;
        flood = Vids.Sip_event.index_flood_key index;
        message = Some (show_start m.start, Sip.Header.to_list m.headers, m.body);
      }
  | Vids.Classifier.Malformed_sip e ->
      { verdict = Error e; event = None; call_id = Efsm.Value.Unset; flood = None; message = None }
  | _ -> QCheck.Test.fail_reportf "a SIP packet classified as something else"

(* (a) The engine accepts what the reference accepts, with its error. *)
let engine_verdict_agrees text =
  let got = (read_through (Sip.Index.create ()) text).verdict in
  match (got, R.parse text) with
  | Ok (), Ok _ -> true
  | Error got, Error want -> agree "engine error" show_str got want
  | Ok (), Error e -> QCheck.Test.fail_reportf "engine accepted, reference rejected: %S" e
  | Error e, Ok _ -> QCheck.Test.fail_reportf "engine rejected (%S), reference accepted" e

(* (b) The event the engine builds from the index is the reference's, and
   so are the Call-ID it keys the call by and the flood key. *)
let engine_event_agrees text =
  match (read_through (Sip.Index.create ()) text, R.parse text, Sip.Msg.parse text) with
  | { event = Some (name, args); call_id; flood; _ }, Ok r, Ok m ->
      let want = R.of_msg ~at:Dsim.Time.zero ~src ~dst r in
      agree "event name" Fun.id name (Efsm.Event.name want)
      && agree "event args" show_args args (Efsm.Event.args want)
      && agree "call_id" (show_result show_str)
           (match call_id with Efsm.Value.Str c -> Ok c | _ -> Error "missing Call-ID")
           (R.call_id r)
      && agree "flood key" (show_opt show_str) flood (Vids.Sip_event.flood_key m)
  | _ -> true

(* (c) Reading [b] right after [a] gives what [b] gives alone. *)
let history_independent (a, b) =
  let index = Sip.Index.create () in
  ignore (read_through index a);
  let after = read_through index b and alone = read_through (Sip.Index.create ()) b in
  let sides = ("after", "alone") in
  agree ~sides "verdict" (show_result (fun () -> "()")) after.verdict alone.verdict
  && agree ~sides "event" (show_opt (fun (n, args) -> n ^ " " ^ show_args args)) after.event
       alone.event
  && agree ~sides "flood key" (show_opt show_str) after.flood alone.flood
  && agree ~sides "message"
       (show_opt (fun (start, fields, body) -> start ^ " " ^ show_fields fields ^ " " ^ body))
       after.message alone.message

let q ~count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count (arb gen) prop)

let suite =
  [
    ( "sip.differential",
      [
        q ~count:3000 "messages agree with the reference" (fun st -> mutated st message)
          message_agrees;
        q ~count:3000 "field parsers agree with the reference" (fun st -> mutated st field)
          field_agrees;
        q ~count:3000 "locators agree with the record parsers" (fun st -> mutated st field)
          locators_agree;
        q ~count:1000 "sdp agrees with the reference" (fun st -> mutated st sdp) (fun text ->
            agree "Sdp.parse" show_sdp (Sdp.parse text) (R.sdp text));
        q ~count:1000 "canonical-name lookup agrees with get" known_fields
          canonical_lookup_agrees;
        q ~count:3000 "the engine's verdict agrees with the reference"
          (fun st -> mutated st message)
          engine_verdict_agrees;
        q ~count:3000 "the engine's event, Call-ID and flood key agree with the reference"
          (fun st -> mutated st message)
          engine_event_agrees;
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:3000 ~name:"a reading does not depend on the message before"
             (QCheck.make
                ~print:(fun (a, b) -> Printf.sprintf "%S then %S" a b)
                (fun st -> (mutated st message, mutated st message)))
             history_independent);
        q ~count:1000 "range parsers agree with whole-string parsers"
          (fun st -> mutated st (fun st -> if chance st 3 then sdp st else field st))
          ranges_agree;
      ] );
  ]
