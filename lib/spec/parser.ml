module L = Lexer

type state = {
  toks : L.token array;
  mutable pos : int;
  mutable diags : Diag.t list;  (* reversed *)
}

let cur st = st.toks.(min st.pos (Array.length st.toks - 1))

let cur_kind st = (cur st).L.kind

let cur_span st = (cur st).L.span

let bump st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let err st span message = st.diags <- Diag.error Diag.Parse span message :: st.diags

let expected st what =
  err st (cur_span st)
    (Printf.sprintf "expected %s, found %s" what (L.kind_to_string (cur_kind st)))

(* Skip forward to just after the next [;] (or stop before [}]/EOF), the
   statement-level resynchronization point. *)
let recover st =
  let rec go () =
    match cur_kind st with
    | L.SEMI -> bump st
    | L.RBRACE | L.EOF -> ()
    | _ ->
        bump st;
        go ()
  in
  go ()

let eat st kind what =
  if cur_kind st = kind then begin
    bump st;
    true
  end
  else begin
    expected st what;
    false
  end

let ident st what =
  match cur_kind st with
  | L.IDENT s ->
      let sp = cur_span st in
      bump st;
      Some (s, sp)
  | _ ->
      expected st what;
      None

(* Keywords are contextual: any identifier can still name a state or an
   event, so we only match keyword spellings where the grammar wants
   one. *)
let at_keyword st kw = match cur_kind st with L.IDENT s -> String.equal s kw | _ -> false

let eat_keyword st kw = if at_keyword st kw then (bump st; true) else false

let parse_lit st : Ast.lit option =
  match cur_kind st with
  | L.INT n ->
      bump st;
      Some (Ast.L_int n)
  | L.MINUS -> (
      bump st;
      match cur_kind st with
      | L.INT n ->
          bump st;
          Some (Ast.L_int (-n))
      | _ ->
          expected st "an integer after '-'";
          None)
  | L.STRING s ->
      bump st;
      Some (Ast.L_str s)
  | L.IDENT "true" ->
      bump st;
      Some (Ast.L_bool true)
  | L.IDENT "false" ->
      bump st;
      Some (Ast.L_bool false)
  | L.IDENT "unset" ->
      bump st;
      Some (Ast.L_unset)
  | _ ->
      expected st "a literal";
      None

let parse_lit_set st =
  (* "{" lit ("," lit)* "}" *)
  ignore (eat st L.LBRACE "'{'");
  let rec go acc =
    match parse_lit st with
    | None -> List.rev acc
    | Some l ->
        if cur_kind st = L.COMMA then begin
          bump st;
          go (l :: acc)
        end
        else List.rev (l :: acc)
  in
  let lits = go [] in
  ignore (eat st L.RBRACE "'}'");
  lits

let binop_of_kind = function
  | L.EQEQ -> Some Ast.B_eq
  | L.BANGEQ -> Some Ast.B_ne
  | L.LT -> Some Ast.B_lt
  | L.LE -> Some Ast.B_le
  | L.GT -> Some Ast.B_gt
  | L.GE -> Some Ast.B_ge
  | L.EQ -> Some Ast.B_ieq
  | L.NE -> Some Ast.B_ine
  | _ -> None

let rec parse_exp st : Ast.exp = parse_or st

and parse_or st =
  let left = parse_and st in
  if cur_kind st = L.BARBAR then begin
    bump st;
    let right = parse_and st in
    let e =
      { Ast.e = Ast.Bin (Ast.B_or, left, right);
        e_span = Loc.merge left.Ast.e_span right.Ast.e_span }
    in
    parse_or_rest st e
  end
  else left

and parse_or_rest st left =
  if cur_kind st = L.BARBAR then begin
    bump st;
    let right = parse_and st in
    parse_or_rest st
      { Ast.e = Ast.Bin (Ast.B_or, left, right);
        e_span = Loc.merge left.Ast.e_span right.Ast.e_span }
  end
  else left

and parse_and st =
  let left = parse_cmp st in
  parse_and_rest st left

and parse_and_rest st left =
  if cur_kind st = L.AMPAMP then begin
    bump st;
    let right = parse_cmp st in
    parse_and_rest st
      { Ast.e = Ast.Bin (Ast.B_and, left, right);
        e_span = Loc.merge left.Ast.e_span right.Ast.e_span }
  end
  else left

and parse_cmp st =
  let left = parse_add st in
  match binop_of_kind (cur_kind st) with
  | Some op ->
      bump st;
      let right = parse_add st in
      { Ast.e = Ast.Bin (op, left, right);
        e_span = Loc.merge left.Ast.e_span right.Ast.e_span }
  | None ->
      if at_keyword st "in" then begin
        bump st;
        let sp = cur_span st in
        let lits = parse_lit_set st in
        { Ast.e = Ast.In_set (left, lits); e_span = Loc.merge left.Ast.e_span sp }
      end
      else left

and parse_add st =
  let left = parse_unary st in
  parse_add_rest st left

and parse_add_rest st left =
  match cur_kind st with
  | L.PLUS | L.MINUS ->
      let op = if cur_kind st = L.PLUS then Ast.B_add else Ast.B_sub in
      bump st;
      let right = parse_unary st in
      parse_add_rest st
        { Ast.e = Ast.Bin (op, left, right);
          e_span = Loc.merge left.Ast.e_span right.Ast.e_span }
  | _ -> left

and parse_unary st =
  match cur_kind st with
  | L.BANG ->
      let sp = cur_span st in
      bump st;
      let e = parse_unary st in
      { Ast.e = Ast.Not e; e_span = Loc.merge sp e.Ast.e_span }
  | L.MINUS -> (
      let sp = cur_span st in
      bump st;
      match cur_kind st with
      | L.INT n ->
          let sp2 = cur_span st in
          bump st;
          { Ast.e = Ast.Lit (Ast.L_int (-n)); e_span = Loc.merge sp sp2 }
      | _ ->
          expected st "an integer after unary '-'";
          { Ast.e = Ast.Lit (Ast.L_int 0); e_span = sp })
  | _ -> parse_primary st

and parse_primary st =
  let sp = cur_span st in
  match cur_kind st with
  | L.INT n ->
      bump st;
      { Ast.e = Ast.Lit (Ast.L_int n); e_span = sp }
  | L.STRING s ->
      bump st;
      { Ast.e = Ast.Lit (Ast.L_str s); e_span = sp }
  | L.FIELD f ->
      bump st;
      { Ast.e = Ast.Fieldref f; e_span = sp }
  | L.LPAREN ->
      bump st;
      let e = parse_exp st in
      ignore (eat st L.RPAREN "')'");
      e
  | L.IDENT "true" ->
      bump st;
      { Ast.e = Ast.Lit (Ast.L_bool true); e_span = sp }
  | L.IDENT "false" ->
      bump st;
      { Ast.e = Ast.Lit (Ast.L_bool false); e_span = sp }
  | L.IDENT "unset" ->
      bump st;
      { Ast.e = Ast.Lit Ast.L_unset; e_span = sp }
  | L.IDENT name -> (
      bump st;
      match cur_kind st with
      | L.LPAREN ->
          bump st;
          let rec args acc =
            if cur_kind st = L.RPAREN then List.rev acc
            else
              let e = parse_exp st in
              if cur_kind st = L.COMMA then begin
                bump st;
                args (e :: acc)
              end
              else List.rev (e :: acc)
          in
          let args = args [] in
          let sp2 = cur_span st in
          ignore (eat st L.RPAREN "')'");
          { Ast.e = Ast.Call (name, args); e_span = Loc.merge sp sp2 }
      | _ -> { Ast.e = Ast.Ident name; e_span = sp })
  | _ ->
      expected st "an expression";
      bump st;
      { Ast.e = Ast.Lit Ast.L_unset; e_span = sp }

let parse_delay st =
  match cur_kind st with
  | L.DURATION us ->
      bump st;
      Some (Ast.Delay_us us)
  | L.IDENT name ->
      let sp = cur_span st in
      bump st;
      Some (Ast.Delay_param (name, sp))
  | _ ->
      expected st "a duration (e.g. 250ms, 1s) or a duration param";
      None

let rec parse_act st : Ast.act option =
  let sp = cur_span st in
  match cur_kind st with
  | L.IDENT "if" ->
      bump st;
      let p = parse_exp st in
      ignore (eat st L.LBRACE "'{'");
      let then_acts = parse_acts st in
      ignore (eat st L.RBRACE "'}'");
      let else_acts =
        if eat_keyword st "else" then begin
          ignore (eat st L.LBRACE "'{'");
          let acts = parse_acts st in
          ignore (eat st L.RBRACE "'}'");
          acts
        end
        else []
      in
      Some { Ast.a = Ast.If (p, then_acts, else_acts); a_span = sp }
  | L.IDENT "sync" -> (
      bump st;
      match ident st "a target machine name" with
      | None ->
          recover st;
          None
      | Some (target, _) ->
          if not (eat st L.DOT "'.'") then begin
            recover st;
            None
          end
          else (
            match ident st "a sync event name" with
            | None ->
                recover st;
                None
            | Some (event, _) ->
                ignore (eat st L.LPAREN "'('");
                let rec args acc =
                  if cur_kind st = L.RPAREN then List.rev acc
                  else
                    match ident st "an argument name" with
                    | None -> List.rev acc
                    | Some (k, _) ->
                        ignore (eat st L.COLON "':'");
                        let e = parse_exp st in
                        if cur_kind st = L.COMMA then begin
                          bump st;
                          args ((k, e) :: acc)
                        end
                        else List.rev ((k, e) :: acc)
                in
                let args = args [] in
                ignore (eat st L.RPAREN "')'");
                ignore (eat st L.SEMI "';'");
                Some { Ast.a = Ast.Sync { target; event; args }; a_span = sp }))
  | L.IDENT "set_timer" -> (
      bump st;
      match ident st "a timer id" with
      | None ->
          recover st;
          None
      | Some (id, _) -> (
          match parse_delay st with
          | None ->
              recover st;
              None
          | Some d ->
              ignore (eat st L.SEMI "';'");
              Some { Ast.a = Ast.Set_timer (id, d); a_span = sp }))
  | L.IDENT "cancel_timer" -> (
      bump st;
      match ident st "a timer id" with
      | None ->
          recover st;
          None
      | Some (id, _) ->
          ignore (eat st L.SEMI "';'");
          Some { Ast.a = Ast.Cancel_timer id; a_span = sp })
  | L.IDENT _ -> (
      match ident st "a variable name" with
      | None ->
          recover st;
          None
      | Some (name, _) ->
          if not (eat st L.ASSIGN "':='") then begin
            recover st;
            None
          end
          else
            let e = parse_exp st in
            ignore (eat st L.SEMI "';'");
            Some { Ast.a = Ast.Assign (name, e); a_span = sp })
  | _ ->
      expected st "an action";
      recover st;
      None

and parse_acts st =
  let rec go acc =
    match cur_kind st with
    | L.RBRACE | L.EOF -> List.rev acc
    | _ -> (
        match parse_act st with
        | Some a -> go (a :: acc)
        | None -> go acc)
  in
  go []

let parse_trigger st : (Ast.trigger_kind * string) option =
  let kind =
    if eat_keyword st "event" then Some Ast.Tg_event
    else if eat_keyword st "channel" then Some Ast.Tg_channel
    else if eat_keyword st "sync" then Some Ast.Tg_sync
    else if eat_keyword st "timer" then Some Ast.Tg_timer
    else begin
      expected st "a trigger kind (event, channel, sync or timer)";
      None
    end
  in
  match kind with
  | None -> None
  | Some k -> (
      match ident st "a trigger name" with
      | Some (name, _) -> Some (k, name)
      | None -> None)

let parse_ty st : Ast.ty option =
  match cur_kind st with
  | L.IDENT "int" ->
      bump st;
      Some Ast.T_int
  | L.IDENT "bool" ->
      bump st;
      Some Ast.T_bool
  | L.IDENT "string" ->
      bump st;
      Some Ast.T_str
  | L.IDENT "addr" ->
      bump st;
      Some Ast.T_addr
  | L.IDENT "enum" ->
      bump st;
      Some (Ast.T_enum (parse_lit_set st))
  | _ ->
      expected st "a type (int, bool, string, addr or enum)";
      None

let parse_param st sp =
  match ident st "a param name" with
  | None ->
      recover st;
      None
  | Some (name, nsp) -> (
      if not (eat st L.COLON "':'") then begin
        recover st;
        None
      end
      else
        let ty =
          match cur_kind st with
          | L.IDENT "int" -> Some Ast.P_int
          | L.IDENT "duration" -> Some Ast.P_duration
          | _ -> None
        in
        match ty with
        | None ->
            expected st "a param type (int or duration)";
            recover st;
            None
        | Some p_ty ->
            bump st;
            ignore (eat st L.SEMI "';'");
            Some (Ast.I_param { p_name = name; p_ty; p_span = Loc.merge sp nsp }))

let parse_var st ~scope sp =
  match ident st "a variable name" with
  | None ->
      recover st;
      None
  | Some (name, nsp) ->
      if not (eat st L.COLON "':'") then begin
        recover st;
        None
      end
      else (
        match parse_ty st with
        | None ->
            recover st;
            None
        | Some ty ->
            ignore (eat st L.SEMI "';'");
            Some
              (Ast.I_var
                 { v_name = name; v_scope = scope; v_ty = ty; v_span = Loc.merge sp nsp }))

let parse_let st sp =
  match ident st "a let name" with
  | None ->
      recover st;
      None
  | Some (name, nsp) ->
      if not (eat st L.EQ "'='") then begin
        recover st;
        None
      end
      else
        let body = parse_exp st in
        ignore (eat st L.SEMI "';'");
        Some (Ast.I_let { let_name = name; let_body = body; let_span = Loc.merge sp nsp })

let parse_trans st sp =
  match ident st "a transition label" with
  | None ->
      recover st;
      None
  | Some (label, lsp) ->
      if not (eat st L.COLON "':'") then begin
        recover st;
        None
      end
      else
        let from_state = ident st "a source state" in
        let ok = eat st L.ARROW "'->'" in
        let to_state = if ok then ident st "a target state" else None in
        if not (eat_keyword st "on") then begin
          expected st "'on'";
          recover st;
          None
        end
        else (
          match (from_state, to_state, parse_trigger st) with
          | Some (f, _), Some (t, _), Some trigger ->
              let guard = if eat_keyword st "when" then Some (parse_exp st) else None in
              let acts =
                if eat_keyword st "do" then begin
                  ignore (eat st L.LBRACE "'{'");
                  let acts = parse_acts st in
                  ignore (eat st L.RBRACE "'}'");
                  acts
                end
                else []
              in
              if cur_kind st = L.SEMI then bump st;
              Some
                (Ast.I_trans
                   {
                     Ast.t_label = label;
                     t_from = f;
                     t_to = t;
                     t_trigger = trigger;
                     t_guard = guard;
                     t_acts = acts;
                     t_span = Loc.merge sp lsp;
                   })
          | _ ->
              recover st;
              None)

let parse_item st : Ast.item option =
  let sp = cur_span st in
  if eat_keyword st "param" then parse_param st sp
  else if eat_keyword st "var" then parse_var st ~scope:Ast.S_local sp
  else if eat_keyword st "global" then parse_var st ~scope:Ast.S_global sp
  else if eat_keyword st "let" then parse_let st sp
  else if eat_keyword st "initial" then (
    match ident st "a state name" with
    | None ->
        recover st;
        None
    | Some (name, nsp) ->
        ignore (eat st L.SEMI "';'");
        Some (Ast.I_initial (name, Loc.merge sp nsp)))
  else if eat_keyword st "final" then begin
    let rec go acc =
      match ident st "a state name" with
      | None -> List.rev acc
      | Some (name, nsp) ->
          if cur_kind st = L.COMMA then begin
            bump st;
            go ((name, nsp) :: acc)
          end
          else List.rev ((name, nsp) :: acc)
    in
    let states = go [] in
    ignore (eat st L.SEMI "';'");
    if states = [] then begin
      recover st;
      None
    end
    else Some (Ast.I_final states)
  end
  else if eat_keyword st "attack" then (
    match ident st "a state name" with
    | None ->
        recover st;
        None
    | Some (name, nsp) -> (
        match cur_kind st with
        | L.STRING desc ->
            let at_desc_span = cur_span st in
            bump st;
            ignore (eat st L.SEMI "';'");
            Some
              (Ast.I_attack
                 { at_state = name; at_desc = desc; at_span = Loc.merge sp nsp; at_desc_span })
        | _ ->
            expected st "an alert description string";
            recover st;
            None))
  else if eat_keyword st "trans" then parse_trans st sp
  else begin
    expected st "a declaration (param, var, global, let, initial, final, attack or trans)";
    recover st;
    None
  end

let parse_machine st : Ast.machine option =
  let sp = cur_span st in
  if not (eat_keyword st "machine") then begin
    expected st "'machine'";
    (* Not even a machine header: skip one token to guarantee progress. *)
    bump st;
    None
  end
  else
    match ident st "a machine name" with
    | None ->
        recover st;
        None
    | Some (name, nsp) ->
        if not (eat st L.LBRACE "'{'") then begin
          recover st;
          None
        end
        else begin
          let rec items acc =
            match cur_kind st with
            | L.RBRACE | L.EOF -> List.rev acc
            | _ -> (
                match parse_item st with
                | Some item -> items (item :: acc)
                | None -> items acc)
          in
          let body = items [] in
          ignore (eat st L.RBRACE "'}'");
          Some { Ast.m_name = name; m_items = body; m_span = Loc.merge sp nsp }
        end

let parse ~file src =
  let toks, lex_diags = Lexer.tokenize ~file src in
  let st = { toks = Array.of_list toks; pos = 0; diags = [] } in
  let rec go acc =
    match cur_kind st with
    | L.EOF -> List.rev acc
    | _ -> (
        match parse_machine st with
        | Some m -> go (m :: acc)
        | None -> go acc)
  in
  let machines = go [] in
  (machines, lex_diags @ List.rev st.diags)
