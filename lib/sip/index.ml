type t = {
  mutable text : string;
  (* Two cells per header: its name's slot in [Header], or [lnot] of the
     span of a name that has none; and the span of its trimmed value. *)
  mutable cells : int array;
  mutable count : int;
  mutable code : int;
  mutable meth : int;
  mutable target : int;
  mutable body : int; (* where the body starts, until the head is read *)
}

let create () =
  { text = ""; cells = Array.make 24 0; count = 0; code = -1; meth = -1; target = -1; body = -1 }

let text t = t.text
let count t = t.count
let value t i = t.cells.((2 * i) + 1)
let code t = t.code
let target t = t.target
let body t = t.body
let meth t = Msg_method.of_range t.text (Scan.span_start t.meth) (Scan.span_stop t.meth)

let name t i =
  let c = t.cells.(2 * i) in
  if c >= 0 then Header.slot_name c else Header.canonical_name (Scan.sub_span t.text (lnot c))

let rec find_from t slot n i =
  if i = t.count then -1
  else if t.cells.(2 * i) <> slot then find_from t slot n (i + 1)
  else if n = 0 then t.cells.((2 * i) + 1)
  else find_from t slot (n - 1) (i + 1)

let find t slot n = find_from t slot n 0

let add t name value =
  let n = 2 * t.count in
  if n = Array.length t.cells then t.cells <- Array.append t.cells t.cells;
  t.cells.(n) <- name;
  t.cells.(n + 1) <- value;
  t.count <- t.count + 1

(* The start of the blank line that ends the head: the first CRLF CRLF or
   LF LF, or -1. *)
let rec head_end text i len =
  if i + 1 >= len then -1
  else
    match text.[i] with
    | '\r' when i + 3 < len && text.[i + 1] = '\n' && text.[i + 2] = '\r' && text.[i + 3] = '\n'
      ->
        i
    | '\n' when text.[i + 1] = '\n' -> i
    | _ -> head_end text (i + 1) len

(* Where the head ends if it ends at the line end [nl]: its first LF LF or
   CRLF CRLF holds an LF, so starts at [nl] or [nl - 1].  Looking only at
   line ends spares the head a pass of its own. *)
let blank_at s nl len =
  if nl + 1 >= len then -1
  else if s.[nl + 1] = '\n' then nl
  else if nl >= 1 && nl + 2 < len && s.[nl - 1] = '\r' && s.[nl + 1] = '\r' && s.[nl + 2] = '\n'
  then nl - 1
  else -1

(* A line that the next one continues sends [read] to a copy of the head
   with each logical line joined, whose lines are read as they are. *)
exception Folded

(* The content end of the line [i .. nl], noting in [t.body] where the
   body starts if the head ends there. *)
let content t folds s i nl =
  let len = String.length s in
  let blank = blank_at s nl len in
  if blank >= 0 then t.body <- (if s.[blank] = '\r' then blank + 4 else blank + 2)
  else if nl = len then t.body <- len
  else if folds && Scan.folded s (nl + 1) len then raise Folded;
  Scan.content_end s i (if blank >= 0 then blank else nl)

let rec name_end s i stop =
  if i >= stop then i
  else match String.unsafe_get s i with ':' | '\n' -> i | _ -> name_end s (i + 1) stop

let status_code s start stop =
  let code = if stop - start = 3 then Scan.decimal s start stop else -1 in
  if code >= 100 && code <= 699 then code else -1

let start_line t s a b =
  if b - a >= 8 && Scan.equal s a (a + 8) "SIP/2.0 " then begin
    let space = Scan.index s (a + 8) b ' ' in
    let code = status_code s (a + 8) (if space < 0 then b else space) in
    if code < 0 && space < 0 then Error (Printf.sprintf "bad status line %S" (Scan.sub s a b))
    else if code < 0 then Error (Printf.sprintf "bad status code %S" (Scan.sub s (a + 8) space))
    else begin
      t.code <- code;
      t.target <- (if space < 0 then Scan.span b b else Scan.span (space + 1) b);
      Ok ()
    end
  end
  else
    (* Method, URI and version: exactly two spaces. *)
    let sp1 = Scan.index s a b ' ' in
    let sp2 = if sp1 < 0 then -1 else Scan.index s (sp1 + 1) b ' ' in
    if sp2 < 0 || Scan.index s (sp2 + 1) b ' ' >= 0 || not (Scan.equal s (sp2 + 1) b "SIP/2.0")
    then Error (Printf.sprintf "bad request line %S" (Scan.sub s a b))
    else if Uri.host_span s (sp1 + 1) sp2 < 0 then
      Result.map ignore (Uri.parse_range s (sp1 + 1) sp2)
    else begin
      t.meth <- Scan.span a sp1;
      t.target <- Scan.span (sp1 + 1) sp2;
      Ok ()
    end

(* The header lines from [i], each walked once to its colon and once on
   to its end; blank lines are skipped. *)
let rec headers folds t s i =
  let len = String.length s in
  let c = name_end s i len in
  let nl = if c < len && s.[c] = ':' then Scan.line_end s (c + 1) len else c in
  let b = content t folds s i nl in
  let name_start = Scan.skip_space s i b in
  let name_stop = if c < b then Scan.trim_end s name_start c else name_start in
  if name_start = b then next folds t s nl
  else if c >= b then Error (Printf.sprintf "bad header line %S" (Scan.sub s i b))
  else if name_start = name_stop then
    Error (Printf.sprintf "empty header name in %S" (Scan.sub s i b))
  else begin
    let slot = Header.slot s name_start name_stop and v = Scan.skip_space s (c + 1) b in
    let name = if slot >= 0 then slot else lnot (Scan.span name_start name_stop) in
    add t name (Scan.span v (Scan.trim_end s v b));
    next folds t s nl
  end

and next folds t s nl = if t.body >= 0 then Ok () else headers folds t s (nl + 1)

let content_length = Header.slot "Content-Length" 0 14

let scan folds t s =
  let len = String.length s in
  if folds && Scan.folded s 0 len then raise Folded;
  let nl = Scan.line_end s 0 len in
  match start_line t s 0 (content t folds s 0 nl) with
  | Error _ as e -> e
  | Ok () -> (
      match next folds t s nl with
      | Error _ as e -> e
      | Ok () ->
          let p = find t content_length 0 and available = len - t.body in
          let n =
            if p < 0 then available else Scan.decimal s (Scan.span_start p) (Scan.span_stop p)
          in
          if n < 0 then Error (Printf.sprintf "bad Content-Length %S" (Scan.sub_span s p))
          else if n > available then Error "Content-Length exceeds body"
          else begin
            t.body <- Scan.span t.body (t.body + n);
            Ok ()
          end)

(* [s] with its head [s.[0 .. stop-1]] unfolded (RFC 3261 §7.3.1): a
   continuation line is trimmed and joined to the line before by one
   space, a first line that is itself a continuation is trimmed, and a
   line that folds loses one CR before its LF.  Every other byte is kept,
   and a buffer keeps a message of many folds linear. *)
let unfolded s stop =
  let buf = Buffer.create (String.length s) in
  let rec line i =
    let nl = Scan.line_end s i stop in
    let folds = Scan.folded s (nl + 1) stop in
    if Scan.folded s i stop then begin
      let a = Scan.skip_space s i nl in
      Buffer.add_substring buf s a (Scan.trim_end s a nl - a)
    end
    else Buffer.add_substring buf s i ((if folds then Scan.content_end s i nl else nl) - i);
    if nl < stop then begin
      Buffer.add_char buf (if folds then ' ' else '\n');
      line (nl + 1)
    end
  in
  line 0;
  Buffer.add_substring buf s stop (String.length s - stop);
  Buffer.contents buf

let read t payload =
  t.text <- payload;
  t.count <- 0;
  t.code <- -1;
  t.meth <- -1;
  t.target <- -1;
  t.body <- -1;
  try scan true t payload
  with Folded ->
    let blank = head_end payload 0 (String.length payload) in
    t.text <- unfolded payload (if blank < 0 then String.length payload else blank);
    t.count <- 0;
    t.body <- -1;
    scan false t t.text
