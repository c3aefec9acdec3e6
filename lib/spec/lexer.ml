type kind =
  | IDENT of string
  | INT of int
  | STRING of string
  | DURATION of int
  | FIELD of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | COLON
  | DOT
  | ARROW
  | ASSIGN
  | AMPAMP
  | BARBAR
  | BANG
  | EQEQ
  | BANGEQ
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | PLUS
  | MINUS
  | EOF

type token = { kind : kind; span : Loc.span }

let kind_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | STRING s -> Printf.sprintf "string %S" s
  | DURATION _ -> "duration"
  | FIELD s -> Printf.sprintf "field $%s" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | COLON -> "':'"
  | DOT -> "'.'"
  | ARROW -> "'->'"
  | ASSIGN -> "':='"
  | AMPAMP -> "'&&'"
  | BARBAR -> "'||'"
  | BANG -> "'!'"
  | EQEQ -> "'=='"
  | BANGEQ -> "'!='"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | EQ -> "'='"
  | NE -> "'<>'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | EOF -> "end of input"

type state = {
  file : string;
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable toks : token list;  (* reversed *)
  mutable diags : Diag.t list;  (* reversed *)
}

let here st = { Loc.file = st.file; line = st.line; col = st.col }

let advance st =
  (if st.pos < String.length st.src then
     match st.src.[st.pos] with
     | '\n' ->
         st.line <- st.line + 1;
         st.col <- 1
     | _ -> st.col <- st.col + 1);
  st.pos <- st.pos + 1

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let emit st kind s = st.toks <- { kind; span = { Loc.s; e = here st } } :: st.toks

let diag st s message =
  st.diags <- Diag.error Diag.Lex { Loc.s; e = here st } message :: st.diags

let is_ident_start = Ast.is_ident_start

let is_ident_char = Ast.is_ident_char

let is_digit c = c >= '0' && c <= '9'

(* The scanners below index [src] directly: every program lexes the
   builtin specs at start-up, so they allocate per token, not per
   character. *)
let read_while st pred =
  let start = st.pos in
  while st.pos < String.length st.src && pred st.src.[st.pos] do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Blanks, and comments from [#] to end of line. *)
let rec skip_blank st =
  if st.pos < String.length st.src then
    match st.src.[st.pos] with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_blank st
    | '#' ->
        while st.pos < String.length st.src && st.src.[st.pos] <> '\n' do
          advance st
        done;
        skip_blank st
    | _ -> ()

let read_string st start =
  advance st (* opening quote *);
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None ->
        diag st start "unterminated string literal";
        emit st (STRING (Buffer.contents b)) start
    | Some '"' ->
        advance st;
        emit st (STRING (Buffer.contents b)) start
    | Some '\n' ->
        diag st start "unterminated string literal";
        emit st (STRING (Buffer.contents b)) start
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' ->
            Buffer.add_char b '"';
            advance st;
            go ()
        | Some '\\' ->
            Buffer.add_char b '\\';
            advance st;
            go ()
        | Some 'n' ->
            Buffer.add_char b '\n';
            advance st;
            go ()
        | Some 't' ->
            Buffer.add_char b '\t';
            advance st;
            go ()
        | Some c ->
            diag st start (Printf.sprintf "unknown escape '\\%c'" c);
            advance st;
            go ()
        | None ->
            diag st start "unterminated string literal";
            emit st (STRING (Buffer.contents b)) start)
    | Some c ->
        Buffer.add_char b c;
        advance st;
        go ()
  in
  go ()

let read_number st start =
  let digits = read_while st is_digit in
  (* Out of range is a diagnostic and 0, never a silently different
     number. *)
  let value ~scale text =
    match int_of_string_opt digits with
    | Some n when n <= max_int / scale -> n * scale
    | _ ->
        diag st start (Printf.sprintf "%s is out of range" text);
        0
  in
  (* A duration is digits immediately followed by a unit suffix. *)
  match peek st with
  | Some c when is_ident_start c -> (
      let suffix = read_while st is_ident_char in
      let duration scale =
        emit st (DURATION (value ~scale ("duration " ^ digits ^ suffix))) start
      in
      match suffix with
      | "s" -> duration 1_000_000
      | "ms" -> duration 1_000
      | "us" -> duration 1
      | _ ->
          diag st start
            (Printf.sprintf "bad numeric suffix %S (expected s, ms or us)" suffix);
          emit st (INT 0) start)
  | _ -> emit st (INT (value ~scale:1 ("integer " ^ digits))) start

let tokenize ~file src =
  let st = { file; src; pos = 0; line = 1; col = 1; toks = []; diags = [] } in
  let simple kind = fun start -> advance st; emit st kind start in
  let two_char second kind_two kind_one start =
    advance st;
    if peek st = Some second then begin
      advance st;
      emit st kind_two start
    end
    else emit st kind_one start
  in
  let rec go () =
    skip_blank st;
    let start = here st in
    match peek st with
    | None -> emit st EOF start
    | Some '"' ->
        read_string st start;
        go ()
    | Some c when is_digit c ->
        read_number st start;
        go ()
    | Some c when is_ident_start c ->
        emit st (IDENT (read_while st is_ident_char)) start;
        go ()
    | Some '$' -> (
        advance st;
        match peek st with
        | Some c when is_ident_start c ->
            emit st (FIELD (read_while st is_ident_char)) start;
            go ()
        | _ ->
            diag st start "'$' must be followed by a field name";
            go ())
    | Some '{' ->
        simple LBRACE start;
        go ()
    | Some '}' ->
        simple RBRACE start;
        go ()
    | Some '(' ->
        simple LPAREN start;
        go ()
    | Some ')' ->
        simple RPAREN start;
        go ()
    | Some ',' ->
        simple COMMA start;
        go ()
    | Some ';' ->
        simple SEMI start;
        go ()
    | Some '.' ->
        simple DOT start;
        go ()
    | Some '+' ->
        simple PLUS start;
        go ()
    | Some ':' ->
        two_char '=' ASSIGN COLON start;
        go ()
    | Some '-' ->
        two_char '>' ARROW MINUS start;
        go ()
    | Some '=' ->
        two_char '=' EQEQ EQ start;
        go ()
    | Some '!' ->
        two_char '=' BANGEQ BANG start;
        go ()
    | Some '<' -> (
        advance st;
        match peek st with
        | Some '=' ->
            advance st;
            emit st LE start;
            go ()
        | Some '>' ->
            advance st;
            emit st NE start;
            go ()
        | _ ->
            emit st LT start;
            go ())
    | Some '>' ->
        two_char '=' GE GT start;
        go ()
    | Some '&' -> (
        advance st;
        match peek st with
        | Some '&' ->
            advance st;
            emit st AMPAMP start;
            go ()
        | _ ->
            diag st start "'&' must be doubled ('&&')";
            go ())
    | Some '|' -> (
        advance st;
        match peek st with
        | Some '|' ->
            advance st;
            emit st BARBAR start;
            go ()
        | _ ->
            diag st start "'|' must be doubled ('||')";
            go ())
    | Some c ->
        advance st;
        diag st start (Printf.sprintf "unexpected character %C" c);
        go ()
  in
  go ();
  (List.rev st.toks, List.rev st.diags)
