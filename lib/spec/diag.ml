type code =
  | Lex
  | Parse
  | Unbound_var
  | Type_mismatch
  | Dup_state
  | Unknown_sync
  | Unknown_param
  | Out_of_domain
  | Dup_label
  | Structure

type t = { code : code; span : Loc.span; message : string }

let error code span message = { code; span; message }

let code_to_string = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Unbound_var -> "unbound-var"
  | Type_mismatch -> "type-mismatch"
  | Dup_state -> "dup-state"
  | Unknown_sync -> "unknown-sync"
  | Unknown_param -> "unknown-param"
  | Out_of_domain -> "out-of-domain"
  | Dup_label -> "dup-label"
  | Structure -> "structure"

let to_string d =
  Printf.sprintf "%s: error[%s]: %s" (Loc.to_string d.span) (code_to_string d.code) d.message

(* The [n]th 1-based line of [source], without its terminator. *)
let line_of_source source n =
  let rec skip pos line =
    if line = n then Some pos
    else
      match String.index_from_opt source pos '\n' with
      | Some nl when nl + 1 <= String.length source -> skip (nl + 1) (line + 1)
      | _ -> None
  in
  if n < 1 then None
  else
    match skip 0 1 with
    | None -> None
    | Some start ->
        let stop =
          match String.index_from_opt source start '\n' with
          | Some nl -> nl
          | None -> String.length source
        in
        Some (String.sub source start (stop - start))

let render ?source d =
  let head = to_string d in
  if Loc.is_dummy d.span || source = None then head
  else
    match line_of_source (Option.get source) d.span.Loc.s.Loc.line with
    | None -> head
    | Some text ->
        let col = max 1 d.span.Loc.s.Loc.col in
        let width =
          if d.span.Loc.e.Loc.line = d.span.Loc.s.Loc.line then
            max 1 (d.span.Loc.e.Loc.col - col)
          else max 1 (String.length text - col + 1)
        in
        (* Tabs in the source line would desynchronize the caret column;
           render them as single spaces in the snippet. *)
        let text = String.map (function '\t' -> ' ' | c -> c) text in
        let caret = String.make (col - 1) ' ' ^ String.make width '^' in
        Printf.sprintf "%s\n  | %s\n  | %s" head text caret

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json d =
  Printf.sprintf
    "{\"severity\":\"error\",\"code\":%s,\"file\":%s,\"line\":%d,\"col\":%d,\"message\":%s}"
    (quote (code_to_string d.code))
    (quote d.span.Loc.s.Loc.file) d.span.Loc.s.Loc.line d.span.Loc.s.Loc.col
    (quote d.message)
