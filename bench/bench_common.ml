(* Helpers shared by the bench executables: wall-clock timing and JSON
   result files.  Every bench emits a BENCH_*.json artifact consumed by
   CI; the file writing, the "wrote ..." announcement and the timing
   boilerplate live here so the benches only format their own rows. *)

(** JSON emission (RFC 8259 strings, finite-safe floats) — the same
    helpers the telemetry exporters use. *)
module Json = Obs.Json

(** [timed f] runs [f ()] and returns its result with the elapsed
    wall-clock seconds. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(** [time f] is the elapsed wall-clock seconds of [f ()] alone. *)
let time f = snd (timed f)

(** [write_json ~path contents] writes the artifact and announces it on
    stdout, the contract CI greps for. *)
let write_json ~path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

(** [live_words ()] is the live major-heap word count after a full
    collection — the benches' canonical steady-state memory probe. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(** Minimal JSON reader — just enough for the trend gate to re-read the
    BENCH_*.json artifacts {!write_json} emitted (RFC 8259 subset, BMP
    escapes only, everything in memory).  Raises {!Json_in.Malformed} on
    anything it does not understand. *)
module Json_in = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Malformed of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Malformed (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.equal (String.sub s !pos l) lit then begin
        pos := !pos + l;
        v
      end
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "bad escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 >= n then fail "bad unicode escape";
                let code =
                  match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                  | Some c -> c
                  | None -> fail "bad unicode escape"
                in
                (* UTF-8 for the BMP; our emitter never writes surrogate
                   pairs. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end;
                pos := !pos + 4
            | c -> fail (Printf.sprintf "bad escape %C" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((key, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((key, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elems [])
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let of_file path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    parse s

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
end
