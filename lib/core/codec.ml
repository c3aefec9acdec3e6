(* Shared wire helpers for the crash-safety subsystem: hex, CRC-32, and
   self-delimiting token codecs for events and alerts.  Every decoder is
   total — malformed input yields [Error], never an exception — because
   snapshots and journals are read back after crashes that may have torn
   them mid-write. *)

let hex = Efsm.Value.hex_of_string
let add_hex = Efsm.Value.add_hex
let add_int = Efsm.Value.add_decimal
let unhex = Efsm.Value.string_of_hex

(* --------------------------------------------------------------- *)
(* CRC-32 (IEEE 802.3, reflected)                                   *)
(* --------------------------------------------------------------- *)

(* Slicing-by-8: table [k] gives a byte's contribution to the register
   [k] bytes further on, so one step folds eight bytes with eight
   lookups instead of eight dependent shifts.  Table 0 is the classic
   byte-wise table; the tail shorter than eight bytes goes through it.
   Bytes are read one at a time, which keeps the fold independent of
   the host's byte order. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let crc32_update crc b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Codec.crc32_update";
  let t = Lazy.force crc_tables in
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let c0 = !c and p = !i in
    c :=
      Array.unsafe_get t ((7 * 256) + ((c0 lxor byte p) land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + (((c0 lsr 8) lxor byte (p + 1)) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + (((c0 lsr 16) lxor byte (p + 2)) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + ((c0 lsr 24) lxor byte (p + 3)))
      lxor Array.unsafe_get t ((3 * 256) + byte (p + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte (p + 5))
      lxor Array.unsafe_get t (256 + byte (p + 6))
      lxor Array.unsafe_get t (byte (p + 7));
    i := p + 8
  done;
  while !i < off + len do
    c := Array.unsafe_get t ((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* The string is only read. *)
let crc32_sub s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Codec.crc32_sub";
  crc32_update 0 (Bytes.unsafe_of_string s) ~off ~len

let crc32 s = crc32_sub s ~off:0 ~len:(String.length s)

let crc32_hex s = Printf.sprintf "%08x" (crc32 s)

(* --------------------------------------------------------------- *)
(* Token-list plumbing                                              *)
(* --------------------------------------------------------------- *)

let ( let* ) = Result.bind

let int_tok s = match int_of_string_opt s with Some n -> Ok n | None -> Error ("bad int " ^ s)
let time_tok s = Result.map Dsim.Time.of_us (int_tok s)

let opt_time_tok = function
  | "-" -> Ok None
  | s -> Result.map (fun t -> Some t) (time_tok s)

let add_opt_time buf = function
  | None -> Buffer.add_char buf '-'
  | Some t -> add_int buf (Dsim.Time.to_us t)

let take = function [] -> Error "truncated record" | tok :: rest -> Ok (tok, rest)

(* --------------------------------------------------------------- *)
(* Events                                                           *)
(* --------------------------------------------------------------- *)

let sp buf = Buffer.add_char buf ' '

let add_channel buf = function
  | Efsm.Event.Data proto ->
      Buffer.add_char buf 'D';
      add_hex buf proto
  | Efsm.Event.Sync { from_machine } ->
      Buffer.add_char buf 'S';
      add_hex buf from_machine
  | Efsm.Event.Timer -> Buffer.add_char buf 'T'

let channel_of_token tok =
  if String.length tok = 0 then Error "empty channel token"
  else
    let body = String.sub tok 1 (String.length tok - 1) in
    match tok.[0] with
    | 'D' -> Result.map (fun proto -> Efsm.Event.Data proto) (unhex body)
    | 'S' -> Result.map (fun from_machine -> Efsm.Event.Sync { from_machine }) (unhex body)
    | 'T' -> if body = "" then Ok Efsm.Event.Timer else Error "bad timer channel token"
    | _ -> Error "unknown channel token"

(* [<name-hex> <at_us> <chan> <argc> (<key-hex> <value>)*] — the explicit
   argument count makes the encoding self-delimiting inside a longer
   token list. *)
let add_event buf e =
  let args = Efsm.Event.args e in
  add_hex buf (Efsm.Event.name e);
  sp buf;
  add_int buf (Dsim.Time.to_us (Efsm.Event.at e));
  sp buf;
  add_channel buf (Efsm.Event.channel e);
  sp buf;
  add_int buf (List.length args);
  List.iter
    (fun (k, v) ->
      sp buf;
      add_hex buf k;
      sp buf;
      Efsm.Value.add_token buf v)
    args

let event_of_tokens tokens =
  let* name_hex, rest = take tokens in
  let* name = unhex name_hex in
  let* at_tok, rest = take rest in
  let* at = time_tok at_tok in
  let* chan_tok, rest = take rest in
  let* channel = channel_of_token chan_tok in
  let* argc_tok, rest = take rest in
  let* argc = int_tok argc_tok in
  if argc < 0 || argc > 1024 then Error "unreasonable event arg count"
  else
    let rec args acc n rest =
      if n = 0 then Ok (List.rev acc, rest)
      else
        let* k_hex, rest = take rest in
        let* k = unhex k_hex in
        let* v_tok, rest = take rest in
        let* v = Efsm.Value.of_token v_tok in
        args ((k, v) :: acc) (n - 1) rest
    in
    let* args, rest = args [] argc rest in
    Ok (Efsm.Event.make ~args channel ~at name, rest)

(* --------------------------------------------------------------- *)
(* Alerts                                                           *)
(* --------------------------------------------------------------- *)

let add_alert buf (a : Alert.t) =
  add_int buf (Dsim.Time.to_us a.Alert.at);
  sp buf;
  Buffer.add_string buf (Alert.kind_to_string a.Alert.kind);
  sp buf;
  Buffer.add_string buf (Alert.severity_to_string a.Alert.severity);
  sp buf;
  add_hex buf a.Alert.subject;
  sp buf;
  add_hex buf a.Alert.detail

let alert_of_tokens = function
  | [ at_tok; kind_tok; sev_tok; subject_hex; detail_hex ] -> (
      let* at = time_tok at_tok in
      let* subject = unhex subject_hex in
      let* detail = unhex detail_hex in
      match (Alert.kind_of_string kind_tok, Alert.severity_of_string sev_tok) with
      | Some kind, Some severity -> Ok (Alert.make ~kind ~severity ~at ~subject detail)
      | None, _ -> Error ("unknown alert kind " ^ kind_tok)
      | _, None -> Error ("unknown alert severity " ^ sev_tok))
  | _ -> Error "malformed alert record"
