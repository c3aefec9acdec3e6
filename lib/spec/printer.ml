let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_lit = function
  | Ast.L_int n -> string_of_int n
  | Ast.L_str s -> Printf.sprintf "\"%s\"" (escape s)
  | Ast.L_bool true -> "true"
  | Ast.L_bool false -> "false"
  | Ast.L_unset -> "unset"

let print_ty = function
  | Ast.T_int -> "int"
  | Ast.T_bool -> "bool"
  | Ast.T_str -> "string"
  | Ast.T_addr -> "addr"
  | Ast.T_enum lits ->
      Printf.sprintf "enum { %s }" (String.concat ", " (List.map print_lit lits))

let binop_symbol = function
  | Ast.B_and -> "&&"
  | Ast.B_or -> "||"
  | Ast.B_eq -> "=="
  | Ast.B_ne -> "!="
  | Ast.B_lt -> "<"
  | Ast.B_le -> "<="
  | Ast.B_gt -> ">"
  | Ast.B_ge -> ">="
  | Ast.B_ieq -> "="
  | Ast.B_ine -> "<>"
  | Ast.B_add -> "+"
  | Ast.B_sub -> "-"

(* Operator layers, mirroring the parser: higher binds tighter. *)
let binop_prec = function
  | Ast.B_or -> 1
  | Ast.B_and -> 2
  | Ast.B_eq | Ast.B_ne | Ast.B_lt | Ast.B_le | Ast.B_gt | Ast.B_ge | Ast.B_ieq
  | Ast.B_ine ->
      3
  | Ast.B_add | Ast.B_sub -> 4

let prec (e : Ast.exp) =
  match e.Ast.e with
  | Ast.Bin (op, _, _) -> binop_prec op
  | Ast.In_set _ -> 3
  | Ast.Not _ -> 5
  | Ast.Lit _ | Ast.Ident _ | Ast.Fieldref _ | Ast.Call _ -> 6

let rec print_at level e =
  let s = print_node e in
  if prec e < level then "(" ^ s ^ ")" else s

and print_node (e : Ast.exp) =
  match e.Ast.e with
  | Ast.Lit l -> print_lit l
  | Ast.Ident n -> n
  | Ast.Fieldref f -> "$" ^ f
  | Ast.Call (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map (print_at 1) args))
  | Ast.Not e -> "!" ^ print_at 5 e
  | Ast.Bin (op, a, b) ->
      let p = binop_prec op in
      (* Left-associative: the left child may sit at the same level, the
         right child must bind tighter.  Comparisons are non-associative:
         both sides must bind tighter. *)
      let left_level = if p = 3 then p + 1 else p in
      Printf.sprintf "%s %s %s" (print_at left_level a) (binop_symbol op)
        (print_at (p + 1) b)
  | Ast.In_set (e, lits) ->
      Printf.sprintf "%s in { %s }" (print_at 4 e)
        (String.concat ", " (List.map print_lit lits))

let print_exp e = print_at 1 e

let print_duration us =
  if us mod 1_000_000 = 0 then Printf.sprintf "%ds" (us / 1_000_000)
  else if us mod 1_000 = 0 then Printf.sprintf "%dms" (us / 1_000)
  else Printf.sprintf "%dus" us

let rec print_act buf indent (act : Ast.act) =
  let pad = String.make indent ' ' in
  match act.Ast.a with
  | Ast.Assign (n, e) -> Buffer.add_string buf (Printf.sprintf "%s%s := %s;\n" pad n (print_exp e))
  | Ast.If (p, then_acts, else_acts) ->
      Buffer.add_string buf (Printf.sprintf "%sif %s {\n" pad (print_exp p));
      List.iter (print_act buf (indent + 2)) then_acts;
      if else_acts <> [] then begin
        Buffer.add_string buf (pad ^ "} else {\n");
        List.iter (print_act buf (indent + 2)) else_acts
      end;
      Buffer.add_string buf (pad ^ "}\n")
  | Ast.Sync { target; event; args } ->
      Buffer.add_string buf
        (Printf.sprintf "%ssync %s.%s(%s);\n" pad target event
           (String.concat ", "
              (List.map (fun (k, e) -> Printf.sprintf "%s: %s" k (print_exp e)) args)))
  | Ast.Set_timer (id, delay) ->
      let delay =
        match delay with Ast.Delay_us us -> print_duration us | Ast.Delay_param (n, _) -> n
      in
      Buffer.add_string buf (Printf.sprintf "%sset_timer %s %s;\n" pad id delay)
  | Ast.Cancel_timer id -> Buffer.add_string buf (Printf.sprintf "%scancel_timer %s;\n" pad id)

let trigger_keyword = function
  | Ast.Tg_event -> "event"
  | Ast.Tg_channel -> "channel"
  | Ast.Tg_sync -> "sync"
  | Ast.Tg_timer -> "timer"

let print_trans buf (t : Ast.trans) =
  let kind, name = t.Ast.t_trigger in
  Buffer.add_string buf
    (Printf.sprintf "  trans %s : %s -> %s on %s %s" t.Ast.t_label t.Ast.t_from t.Ast.t_to
       (trigger_keyword kind) name);
  (match t.Ast.t_guard with
  | None -> ()
  | Some g -> Buffer.add_string buf (Printf.sprintf "\n    when %s" (print_exp g)));
  if t.Ast.t_acts = [] then Buffer.add_string buf ";\n"
  else begin
    Buffer.add_string buf "\n    do {\n";
    List.iter (print_act buf 6) t.Ast.t_acts;
    Buffer.add_string buf "    }\n"
  end

let print_item buf = function
  | Ast.I_param { p_name; p_ty; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "  param %s : %s;\n" p_name
           (match p_ty with Ast.P_int -> "int" | Ast.P_duration -> "duration"))
  | Ast.I_var { v_name; v_scope; v_ty; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "  %s %s : %s;\n"
           (match v_scope with Ast.S_local -> "var" | Ast.S_global -> "global")
           v_name (print_ty v_ty))
  | Ast.I_let { let_name; let_body; _ } ->
      Buffer.add_string buf (Printf.sprintf "  let %s = %s;\n" let_name (print_exp let_body))
  | Ast.I_initial (s, _) -> Buffer.add_string buf (Printf.sprintf "  initial %s;\n" s)
  | Ast.I_final states ->
      Buffer.add_string buf
        (Printf.sprintf "  final %s;\n" (String.concat ", " (List.map fst states)))
  | Ast.I_attack { at_state; at_desc; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "  attack %s \"%s\";\n" at_state (escape at_desc))
  | Ast.I_trans t -> print_trans buf t

let print_machine (m : Ast.machine) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "machine %s {\n" m.Ast.m_name);
  (* A blank line before the first transition separates the declaration
     header from the transition table. *)
  let seen_trans = ref false in
  List.iter
    (fun item ->
      (match item with
      | Ast.I_trans _ when not !seen_trans ->
          seen_trans := true;
          Buffer.add_char buf '\n'
      | _ -> ());
      print_item buf item)
    m.Ast.m_items;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let print_file machines = String.concat "\n" (List.map print_machine machines)
