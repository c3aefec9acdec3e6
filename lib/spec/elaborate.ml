module I = Efsm.Ir
module M = Efsm.Machine
module V = Efsm.Value

type params = string -> (Ast.param_ty * int) option

type elaborated = {
  el_spec : M.spec;
  el_vars : I.decl list;
  el_state_spans : (string * Loc.span) list;
  el_trans_spans : (string * Loc.span) list;
}

let value_of_lit = function
  | Ast.L_int n -> V.Int n
  | Ast.L_str s -> V.Str s
  | Ast.L_bool b -> V.Bool b
  | Ast.L_unset -> V.Unset

let domain_of_ty = function
  | Ast.T_int -> I.D_int
  | Ast.T_bool -> I.D_bool
  | Ast.T_str -> I.D_str
  | Ast.T_addr -> I.D_addr
  | Ast.T_enum lits -> I.D_enum (List.map value_of_lit lits)

(* Syntactic classification: which IR fragment does an expression in
   value position elaborate into? *)

let is_int_shaped (e : Ast.exp) =
  match e.Ast.e with
  | Ast.Bin ((Ast.B_add | Ast.B_sub), _, _) -> true
  | Ast.Call (("int" | "int0" | "wrap16" | "wrap32"), _) -> true
  | _ -> false

let is_pred_shaped (e : Ast.exp) =
  match e.Ast.e with
  | Ast.Not _ | Ast.In_set _ -> true
  | Ast.Bin
      ( ( Ast.B_and | Ast.B_or | Ast.B_eq | Ast.B_ne | Ast.B_lt | Ast.B_le | Ast.B_gt
        | Ast.B_ge | Ast.B_ieq | Ast.B_ine ),
        _,
        _ ) ->
      true
  | Ast.Call ("has", _) -> true
  | _ -> false

type env = {
  scope_of : string -> Efsm.Env.scope;
  param_of : string -> int option;  (* a declared param's bound value *)
  lets : (string * I.expr) list;
      (* each let above, as [Of_int (Int_let _)] or [Of_pred (Pred_let _)] *)
}

(* Left-associative chains of the same operator flatten back into the
   n-ary [And]/[Or] the builtin specs use, so [a && b && c] elaborates
   to [And [a; b; c]], not [And [And [a; b]; c]]. *)
let rec flatten op (e : Ast.exp) acc =
  match e.Ast.e with
  | Ast.Bin (o, a, b) when o = op -> flatten op a (b :: acc)
  | _ -> e :: acc

let rec elab_pred env (e : Ast.exp) : I.pred =
  match e.Ast.e with
  | Ast.Lit (Ast.L_bool true) -> I.True
  | Ast.Lit (Ast.L_bool false) -> I.False
  | Ast.Not e -> I.Not (elab_pred env e)
  | Ast.Bin (Ast.B_and, _, _) ->
      I.And (List.map (elab_pred env) (flatten Ast.B_and e []))
  | Ast.Bin (Ast.B_or, _, _) -> I.Or (List.map (elab_pred env) (flatten Ast.B_or e []))
  | Ast.Bin (Ast.B_eq, a, b) -> I.Eq (elab_expr env a, elab_expr env b)
  | Ast.Bin (Ast.B_ne, a, b) -> I.Not (I.Eq (elab_expr env a, elab_expr env b))
  | Ast.Bin (Ast.B_lt, a, b) -> I.Cmp (I.Lt, elab_iexpr env a, elab_iexpr env b)
  | Ast.Bin (Ast.B_le, a, b) -> I.Cmp (I.Le, elab_iexpr env a, elab_iexpr env b)
  | Ast.Bin (Ast.B_gt, a, b) -> I.Cmp (I.Gt, elab_iexpr env a, elab_iexpr env b)
  | Ast.Bin (Ast.B_ge, a, b) -> I.Cmp (I.Ge, elab_iexpr env a, elab_iexpr env b)
  | Ast.Bin (Ast.B_ieq, a, b) -> I.Cmp (I.Ieq, elab_iexpr env a, elab_iexpr env b)
  | Ast.Bin (Ast.B_ine, a, b) -> I.Cmp (I.Ine, elab_iexpr env a, elab_iexpr env b)
  | Ast.In_set (e, lits) -> I.Member (elab_expr env e, List.map value_of_lit lits)
  | Ast.Call ("has", [ { Ast.e = Ast.Fieldref f; _ } ]) -> I.Has_field f
  | Ast.Ident name -> (
      match List.assoc_opt name env.lets with Some (I.Of_pred p) -> p | _ -> I.False)
  | _ -> I.False

and elab_iexpr env (e : Ast.exp) : I.iexpr =
  match e.Ast.e with
  | Ast.Lit (Ast.L_int n) -> I.Int_const n
  | Ast.Ident name -> (
      match List.assoc_opt name env.lets with
      | Some (I.Of_int ie) -> ie
      | _ -> I.Int_const (Option.value (env.param_of name) ~default:0))
  | Ast.Call ("int", [ a ]) -> I.Int_of (elab_expr env a)
  | Ast.Call ("int0", [ a ]) -> I.Int_or0 (elab_expr env a)
  | Ast.Call ("wrap16", [ a ]) -> I.Wrap (16, elab_iexpr env a)
  | Ast.Call ("wrap32", [ a ]) -> I.Wrap (32, elab_iexpr env a)
  | Ast.Bin (Ast.B_add, a, b) -> I.Add (elab_iexpr env a, elab_iexpr env b)
  | Ast.Bin (Ast.B_sub, a, b) -> I.Sub (elab_iexpr env a, elab_iexpr env b)
  | _ -> I.Int_const 0

and elab_expr env (e : Ast.exp) : I.expr =
  match e.Ast.e with
  | Ast.Lit l -> I.Const (value_of_lit l)
  | Ast.Ident name -> (
      match (env.param_of name, List.assoc_opt name env.lets) with
      | Some n, _ -> I.Const (V.Int n)
      | None, Some e -> e
      | None, None -> I.Var (env.scope_of name, name))
  | Ast.Fieldref f -> I.Field f
  | Ast.Call ("addr", [ h; p ]) -> I.Mk_addr (elab_expr env h, elab_expr env p)
  | Ast.Call ("host", [ a ]) -> I.Addr_host (elab_expr env a)
  | _ when is_int_shaped e -> I.Of_int (elab_iexpr env e)
  | _ when is_pred_shaped e -> I.Of_pred (elab_pred env e)
  | _ -> I.Const V.Unset

let rec elab_act env (act : Ast.act) : I.act list =
  match act.Ast.a with
  | Ast.Assign (name, e) -> [ I.Assign ((env.scope_of name, name), elab_expr env e) ]
  | Ast.If (p, then_acts, else_acts) ->
      [ I.If (elab_pred env p, elab_acts env then_acts, elab_acts env else_acts) ]
  | Ast.Sync { target; event; args } ->
      [
        I.Send_sync
          {
            target;
            event_name = event;
            args = List.map (fun (k, e) -> (k, elab_expr env e)) args;
          };
      ]
  | Ast.Set_timer (id, Ast.Delay_us us) -> [ I.Set_timer { id; delay = us } ]
  | Ast.Set_timer (id, Ast.Delay_param (name, _)) ->
      [ I.Set_timer { id; delay = Option.value (env.param_of name) ~default:0 } ]
  | Ast.Cancel_timer id -> [ I.Cancel_timer id ]

and elab_acts env acts = List.concat_map (elab_act env) acts

let trigger_of = function
  | Ast.Tg_event, name -> M.On_event name
  | Ast.Tg_channel, name -> M.On_channel name
  | Ast.Tg_sync, name -> M.On_sync name
  | Ast.Tg_timer, name -> M.On_timer name

let machine ~params:bound (m : Ast.machine) =
  let decls =
    List.filter_map
      (function
        | Ast.I_var { v_name; v_scope; v_ty; _ } ->
            let scope =
              match v_scope with
              | Ast.S_local -> Efsm.Env.Local
              | Ast.S_global -> Efsm.Env.Global
            in
            Some ((scope, v_name), domain_of_ty v_ty)
        | _ -> None)
      m.Ast.m_items
  in
  let scope_of name =
    match List.find_opt (fun ((_, n), _) -> String.equal n name) decls with
    | Some ((scope, _), _) -> scope
    | None -> Efsm.Env.Local
  in
  let params =
    List.filter_map
      (function
        | Ast.I_param { p_name; _ } ->
            Option.map (fun binding -> (p_name, binding)) (bound p_name)
        | _ -> None)
      m.Ast.m_items
  in
  let param_of name = Option.map snd (List.assoc_opt name params) in
  (* Each let's body is elaborated once, with the lets above it in
     scope, and every reference shares the node. *)
  let env =
    List.fold_left
      (fun env -> function
        | Ast.I_let { let_name; let_body; _ } ->
            let node =
              if is_int_shaped let_body then
                I.Of_int (I.Int_let (let_name, elab_iexpr env let_body))
              else I.Of_pred (I.Pred_let (let_name, elab_pred env let_body))
            in
            { env with lets = (let_name, node) :: env.lets }
        | _ -> env)
      { scope_of; param_of; lets = [] } m.Ast.m_items
  in
  let describe desc =
    Ast.expand_placeholders
      (fun name ->
        match List.assoc_opt name params with
        | Some (Ast.P_int, n) -> string_of_int n
        | Some (Ast.P_duration, us) -> Printer.print_duration us
        | None -> "{" ^ name ^ "}")
      desc
  in
  let initial =
    match
      List.find_map (function Ast.I_initial (s, _) -> Some s | _ -> None) m.Ast.m_items
    with
    | Some s -> s
    | None -> "INIT"
  in
  let finals =
    List.concat_map
      (function Ast.I_final states -> List.map fst states | _ -> [])
      m.Ast.m_items
  in
  let attacks =
    List.filter_map
      (function
        | Ast.I_attack { at_state; at_desc; _ } -> Some (at_state, describe at_desc)
        | _ -> None)
      m.Ast.m_items
  in
  let transitions =
    List.filter_map
      (function
        | Ast.I_trans t ->
            Some
              (M.ir_transition
                 ?guard:(Option.map (elab_pred env) t.Ast.t_guard)
                 ~acts:(elab_acts env t.Ast.t_acts) ~label:t.Ast.t_label
                 ~from_state:t.Ast.t_from
                 (trigger_of t.Ast.t_trigger)
                 ~to_state:t.Ast.t_to ())
        | _ -> None)
      m.Ast.m_items
  in
  (* First textual mention of each state anchors verifier findings. *)
  let state_spans =
    let add acc (name, span) = if List.mem_assoc name acc then acc else (name, span) :: acc in
    List.fold_left
      (fun acc item ->
        match item with
        | Ast.I_initial (s, sp) -> add acc (s, sp)
        | Ast.I_final states -> List.fold_left add acc states
        | Ast.I_attack { at_state; at_span; _ } -> add acc (at_state, at_span)
        | Ast.I_trans t -> add (add acc (t.Ast.t_from, t.Ast.t_span)) (t.Ast.t_to, t.Ast.t_span)
        | Ast.I_param _ | Ast.I_var _ | Ast.I_let _ -> acc)
      [] m.Ast.m_items
    |> List.rev
  in
  let trans_spans =
    List.filter_map
      (function Ast.I_trans t -> Some (t.Ast.t_label, t.Ast.t_span) | _ -> None)
      m.Ast.m_items
  in
  {
    el_spec =
      {
        M.spec_name = m.Ast.m_name;
        initial;
        finals;
        attack_states = attacks;
        transitions;
      };
    el_vars = decls;
    el_state_spans = state_spans;
    el_trans_spans = trans_spans;
  }
