type ctx = {
  known_machines : string list;
  bound : Elaborate.params;
  vars : (string * (Ast.scope * Ast.ty)) list;
  params : (string * Ast.param_ty) list;
  lets : (string * Ast.ty) list;  (* every let: [T_int] or [T_bool] *)
  mutable scope : (string * Ast.ty) list;
      (* the lets readable here: a let's body reads the lets above it, a
         guard every let, an action none *)
  mutable diags : Diag.t list;  (* reversed *)
}

let err ctx code span message = ctx.diags <- Diag.error code span message :: ctx.diags

let ty_name = function
  | Ast.T_int -> "int"
  | Ast.T_bool -> "bool"
  | Ast.T_str -> "string"
  | Ast.T_addr -> "addr"
  | Ast.T_enum _ -> "enum"

let param_ty_name = function Ast.P_int -> "int" | Ast.P_duration -> "duration"

let ty_of_lit = function
  | Ast.L_int _ -> Some Ast.T_int
  | Ast.L_str _ -> Some Ast.T_str
  | Ast.L_bool _ -> Some Ast.T_bool
  | Ast.L_unset -> None

(* Two known types conflict unless one is an enum (whose members are
   plain values compared structurally). *)
let conflict a b =
  match (a, b) with
  | Some x, Some y -> (
      match (x, y) with Ast.T_enum _, _ | _, Ast.T_enum _ -> false | x, y -> x <> y)
  | _ -> false

let lookup_var ctx name = List.assoc_opt name ctx.vars

let is_param ctx name = List.mem_assoc name ctx.params

let is_let ctx name = List.mem_assoc name ctx.lets

(* An int param reads as an int value; a duration param is only a
   [set_timer] delay.  A let reads as its shape, where it is in scope. *)
let resolve ctx span name =
  match (lookup_var ctx name, List.assoc_opt name ctx.params) with
  | Some (_, ty), _ -> Some ty
  | None, Some Ast.P_int -> Some Ast.T_int
  | None, Some Ast.P_duration ->
      err ctx Diag.Type_mismatch span
        (Printf.sprintf "%s is a duration param: it can only be a set_timer delay" name);
      None
  | None, None -> (
      match List.assoc_opt name ctx.scope with
      | Some ty -> Some ty
      | None ->
          err ctx Diag.Unbound_var span
            (if is_let ctx name then
               Printf.sprintf
                 "let %s is not in scope: a let reads only the lets above it, an action none" name
             else Printf.sprintf "undeclared variable %s" name);
          None)

let is_pred_shaped = Elaborate.is_pred_shaped

let rec check_pred ctx (e : Ast.exp) =
  match e.Ast.e with
  | Ast.Lit (Ast.L_bool _) -> ()
  | Ast.Not e -> check_pred ctx e
  | Ast.Bin ((Ast.B_and | Ast.B_or), a, b) ->
      check_pred ctx a;
      check_pred ctx b
  | Ast.Bin ((Ast.B_eq | Ast.B_ne), a, b) ->
      let ta = check_expr ctx a in
      let tb = check_expr ctx b in
      if conflict ta tb then
        err ctx Diag.Type_mismatch e.Ast.e_span
          (Printf.sprintf "cannot compare %s with %s: the equality is always false"
             (ty_name (Option.get ta)) (ty_name (Option.get tb)))
  | Ast.Bin ((Ast.B_lt | Ast.B_le | Ast.B_gt | Ast.B_ge | Ast.B_ieq | Ast.B_ine), a, b) ->
      check_iexpr ctx a;
      check_iexpr ctx b
  | Ast.Bin ((Ast.B_add | Ast.B_sub), _, _) ->
      err ctx Diag.Type_mismatch e.Ast.e_span
        "an arithmetic expression is not a predicate; compare it (e.g. ... > 0)"
  | Ast.In_set (scrutinee, lits) ->
      let t = check_expr ctx scrutinee in
      List.iter
        (fun l ->
          if conflict t (ty_of_lit l) then
            err ctx Diag.Type_mismatch e.Ast.e_span
              (Printf.sprintf "set member %s can never equal a %s value"
                 (ty_name (Option.get (ty_of_lit l)))
                 (ty_name (Option.get t))))
        lits
  | Ast.Call ("has", args) -> (
      match args with
      | [ { Ast.e = Ast.Fieldref _; _ } ] -> ()
      | [ other ] ->
          err ctx Diag.Type_mismatch other.Ast.e_span
            "has(...) takes an event field ($name)"
      | _ ->
          err ctx Diag.Type_mismatch e.Ast.e_span
            (Printf.sprintf "has(...) takes 1 argument, got %d" (List.length args)))
  | Ast.Ident name when is_let ctx name ->
      if resolve ctx e.Ast.e_span name = Some Ast.T_int then
        err ctx Diag.Type_mismatch e.Ast.e_span
          (Printf.sprintf "%s is an integer, not a predicate" name)
  | Ast.Ident name ->
      ignore (resolve ctx e.Ast.e_span name);
      err ctx Diag.Type_mismatch e.Ast.e_span
        (Printf.sprintf "a bare variable is not a predicate; write %s == true" name)
  | _ ->
      err ctx Diag.Type_mismatch e.Ast.e_span "expected a predicate"

and check_iexpr ctx (e : Ast.exp) =
  match e.Ast.e with
  | Ast.Lit (Ast.L_int _) -> ()
  | Ast.Call (("int" | "int0" | "wrap16" | "wrap32") as f, args) -> (
      match args with
      | [ a ] -> if f = "int" || f = "int0" then ignore (check_expr ctx a) else check_iexpr ctx a
      | _ ->
          err ctx Diag.Type_mismatch e.Ast.e_span
            (Printf.sprintf "%s(...) takes 1 argument, got %d" f (List.length args)))
  | Ast.Bin ((Ast.B_add | Ast.B_sub), a, b) ->
      check_iexpr ctx a;
      check_iexpr ctx b
  | Ast.Ident name when is_param ctx name || is_let ctx name ->
      if resolve ctx e.Ast.e_span name = Some Ast.T_bool then
        err ctx Diag.Type_mismatch e.Ast.e_span
          (Printf.sprintf "%s is a predicate, not an integer" name)
  | Ast.Ident name ->
      ignore (resolve ctx e.Ast.e_span name);
      err ctx Diag.Type_mismatch e.Ast.e_span
        (Printf.sprintf
           "integer context needs an explicit conversion: write int(%s) or int0(%s)" name
           name)
  | Ast.Fieldref f ->
      err ctx Diag.Type_mismatch e.Ast.e_span
        (Printf.sprintf
           "integer context needs an explicit conversion: write int($%s) or int0($%s)" f f)
  | _ -> err ctx Diag.Type_mismatch e.Ast.e_span "expected an integer expression"

and check_expr ctx (e : Ast.exp) : Ast.ty option =
  match e.Ast.e with
  | Ast.Lit l -> ty_of_lit l
  | Ast.Ident name -> resolve ctx e.Ast.e_span name
  | Ast.Fieldref _ -> None
  | Ast.Call ("addr", args) -> (
      match args with
      | [ h; p ] ->
          let th = check_expr ctx h in
          let tp = check_expr ctx p in
          if conflict th (Some Ast.T_str) then
            err ctx Diag.Type_mismatch h.Ast.e_span "addr(...) host must be a string";
          if conflict tp (Some Ast.T_int) then
            err ctx Diag.Type_mismatch p.Ast.e_span "addr(...) port must be an int";
          Some Ast.T_addr
      | _ ->
          err ctx Diag.Type_mismatch e.Ast.e_span
            (Printf.sprintf "addr(...) takes 2 arguments, got %d" (List.length args));
          Some Ast.T_addr)
  | Ast.Call ("host", args) -> (
      match args with
      | [ a ] ->
          let t = check_expr ctx a in
          if conflict t (Some Ast.T_addr) then
            err ctx Diag.Type_mismatch a.Ast.e_span "host(...) takes an addr value";
          Some Ast.T_str
      | _ ->
          err ctx Diag.Type_mismatch e.Ast.e_span
            (Printf.sprintf "host(...) takes 1 argument, got %d" (List.length args));
          Some Ast.T_str)
  | Ast.Call (("int" | "int0" | "wrap16" | "wrap32"), _) ->
      check_iexpr ctx e;
      Some Ast.T_int
  | Ast.Bin ((Ast.B_add | Ast.B_sub), _, _) ->
      check_iexpr ctx e;
      Some Ast.T_int
  | _ when is_pred_shaped e ->
      check_pred ctx e;
      Some Ast.T_bool
  | Ast.Call (f, _) ->
      err ctx Diag.Type_mismatch e.Ast.e_span
        (Printf.sprintf
           "unknown function %s (expected addr, host, int, int0, wrap16, wrap32 or has)" f);
      None
  | _ ->
      err ctx Diag.Type_mismatch e.Ast.e_span "expected a value expression";
      None

let lit_in_enum lit lits = List.exists (fun l -> l = lit) lits

let check_assign ctx span name (rhs : Ast.exp) =
  match lookup_var ctx name with
  | None when is_param ctx name || is_let ctx name ->
      let kind = if is_param ctx name then "param" else "let" in
      err ctx Diag.Type_mismatch span
        (Printf.sprintf "cannot assign to %s %s: %ss are read-only" kind name kind)
  | None -> err ctx Diag.Unbound_var span (Printf.sprintf "undeclared variable %s" name)
  | Some (_, declared) -> (
      let inferred = check_expr ctx rhs in
      match declared with
      | Ast.T_enum lits -> (
          match rhs.Ast.e with
          | Ast.Lit l when not (lit_in_enum l lits) ->
              err ctx Diag.Out_of_domain rhs.Ast.e_span
                (Printf.sprintf "constant outside the declared domain of %s" name)
          | _ -> ())
      | _ ->
          if conflict (Some declared) inferred then
            err ctx Diag.Type_mismatch rhs.Ast.e_span
              (Printf.sprintf "%s is declared %s but assigned a %s value" name
                 (ty_name declared)
                 (ty_name (Option.get inferred))))

let rec check_act ctx (act : Ast.act) =
  match act.Ast.a with
  | Ast.Assign (name, rhs) -> check_assign ctx act.Ast.a_span name rhs
  | Ast.If (p, then_acts, else_acts) ->
      check_pred ctx p;
      List.iter (check_act ctx) then_acts;
      List.iter (check_act ctx) else_acts
  | Ast.Sync { target; args; _ } ->
      if not (List.exists (String.equal target) ctx.known_machines) then
        err ctx Diag.Unknown_sync act.Ast.a_span
          (Printf.sprintf "unknown sync target machine %s (known: %s)" target
             (String.concat ", " ctx.known_machines));
      List.iter (fun (_, e) -> ignore (check_expr ctx e)) args
  | Ast.Set_timer (_, Ast.Delay_param (name, span)) -> (
      match List.assoc_opt name ctx.params with
      | Some Ast.P_duration -> ()
      | Some Ast.P_int ->
          err ctx Diag.Type_mismatch span
            (Printf.sprintf "%s is an int param: set_timer needs a duration" name)
      | None -> err ctx Diag.Unbound_var span (Printf.sprintf "undeclared param %s" name))
  | Ast.Set_timer (_, Ast.Delay_us _) | Ast.Cancel_timer _ -> ()

(* Declaration-level structure: duplicates, missing initial, params the
   host does not bind and description placeholders naming no param.
   Variables, params and lets share one namespace. *)
let check_structure ctx (m : Ast.machine) =
  let seen_vars = Hashtbl.create 8 in
  let seen_labels = Hashtbl.create 8 in
  let initials = ref [] in
  let finals = ref [] in
  let attacks = ref [] in
  List.iter
    (fun item ->
      match item with
      | Ast.I_param { p_name; p_ty; p_span } -> (
          if Hashtbl.mem seen_vars p_name then
            err ctx Diag.Dup_label p_span
              (Printf.sprintf "variable %s is declared twice" p_name)
          else Hashtbl.add seen_vars p_name ();
          match ctx.bound p_name with
          | None ->
              err ctx Diag.Unknown_param p_span
                (Printf.sprintf "no host binding for param %s" p_name)
          | Some (bound, _) when bound <> p_ty ->
              err ctx Diag.Type_mismatch p_span
                (Printf.sprintf "param %s is declared %s but the host binds a %s" p_name
                   (param_ty_name p_ty) (param_ty_name bound))
          | Some _ -> ())
      | Ast.I_var { v_name = name; v_span = span; _ }
      | Ast.I_let { let_name = name; let_span = span; _ } ->
          if Hashtbl.mem seen_vars name then
            err ctx Diag.Dup_label span (Printf.sprintf "variable %s is declared twice" name)
          else Hashtbl.add seen_vars name ()
      | Ast.I_initial (s, sp) ->
          if !initials <> [] then
            err ctx Diag.Dup_state sp
              (Printf.sprintf "initial state declared twice (already %s)"
                 (List.hd !initials))
          else initials := [ s ]
      | Ast.I_final states ->
          List.iter
            (fun (s, sp) ->
              if List.mem s !finals then
                err ctx Diag.Dup_state sp (Printf.sprintf "state %s is final twice" s)
              else begin
                finals := s :: !finals;
                if List.mem_assoc s !attacks then
                  err ctx Diag.Dup_state sp
                    (Printf.sprintf "state %s is declared both final and attack" s)
              end)
            states
      | Ast.I_attack { at_state; at_desc; at_span; at_desc_span } ->
          List.iter
            (fun name ->
              if not (is_param ctx name) then
                err ctx Diag.Unbound_var at_desc_span
                  (Printf.sprintf "the description names {%s}, which is not a param" name))
            (Ast.placeholders at_desc);
          if List.mem_assoc at_state !attacks then
            err ctx Diag.Dup_state at_span
              (Printf.sprintf "state %s is declared attack twice" at_state)
          else begin
            attacks := (at_state, at_span) :: !attacks;
            if List.mem at_state !finals then
              err ctx Diag.Dup_state at_span
                (Printf.sprintf "state %s is declared both final and attack" at_state)
          end
      | Ast.I_trans t ->
          if Hashtbl.mem seen_labels t.Ast.t_label then
            err ctx Diag.Dup_label t.Ast.t_span
              (Printf.sprintf "transition label %s is used twice" t.Ast.t_label)
          else Hashtbl.add seen_labels t.Ast.t_label ())
    m.Ast.m_items;
  if !initials = [] then
    err ctx Diag.Structure m.Ast.m_span
      (Printf.sprintf "machine %s has no initial state" m.Ast.m_name)

(* A let's body is an integer expression or a predicate. *)
let let_ty body =
  if Elaborate.is_int_shaped body then Some Ast.T_int
  else if Elaborate.is_pred_shaped body then Some Ast.T_bool
  else None

let machine ~known_machines ~params:bound (m : Ast.machine) =
  let vars =
    List.filter_map
      (function
        | Ast.I_var { v_name; v_scope; v_ty; _ } -> Some (v_name, (v_scope, v_ty))
        | _ -> None)
      m.Ast.m_items
  in
  let params =
    List.filter_map
      (function Ast.I_param { p_name; p_ty; _ } -> Some (p_name, p_ty) | _ -> None)
      m.Ast.m_items
  in
  let lets =
    List.filter_map
      (function
        | Ast.I_let { let_name; let_body; _ } ->
            Option.map (fun ty -> (let_name, ty)) (let_ty let_body)
        | _ -> None)
      m.Ast.m_items
  in
  let ctx = { known_machines; bound; vars; params; lets; scope = []; diags = [] } in
  check_structure ctx m;
  List.iter
    (function
      | Ast.I_let { let_name; let_body; _ } ->
          (match let_ty let_body with
          | Some Ast.T_int -> check_iexpr ctx let_body
          | Some _ -> check_pred ctx let_body
          | None ->
              err ctx Diag.Type_mismatch let_body.Ast.e_span
                (Printf.sprintf "let %s must be an integer expression or a predicate" let_name));
          ctx.scope <- List.filter (fun (name, _) -> String.equal name let_name) lets @ ctx.scope
      | _ -> ())
    m.Ast.m_items;
  List.iter
    (function
      | Ast.I_trans t ->
          ctx.scope <- lets;
          Option.iter (check_pred ctx) t.Ast.t_guard;
          ctx.scope <- [];
          List.iter (check_act ctx) t.Ast.t_acts
      | _ -> ())
    m.Ast.m_items;
  List.rev ctx.diags
