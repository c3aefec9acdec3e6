module I = Efsm.Ir
module M = Efsm.Machine
module V = Efsm.Value

type params = string -> (Ast.param_ty * int) option

type elaborated = {
  el_file : string;
  el_spec : M.spec;
  el_vars : I.decl list;
  el_state_spans : (string * Loc.span) list;
  el_trans_spans : (string * Loc.span) list;
}

type ctx = {
  known_machines : string list;
  bound : params;
  vars : (string * (Efsm.Env.scope * Ast.ty)) list;
  params : (string * Ast.param_ty) list;  (* as declared *)
  lets : string list;  (* every let whose body is integer- or predicate-shaped *)
  mutable scope : (string * I.expr) list;
      (* the lets readable here, each as [Of_int (Int_let _)] or
         [Of_pred (Pred_let _)] that every reference shares: a let's body
         reads the lets above it, a guard every let, an action none *)
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

(* Two known types conflict unless one is an enum (whose members are
   plain values compared structurally). *)
let conflict a b =
  match (a, b) with
  | Some x, Some y -> (
      match (x, y) with Ast.T_enum _, _ | _, Ast.T_enum _ -> false | x, y -> x <> y)
  | _ -> false

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

let is_param ctx name = List.mem_assoc name ctx.params

let is_let ctx name = List.mem name ctx.lets

(* A declared param's bound value: an integer, or a duration in
   microseconds. *)
let param_value ctx name = match ctx.bound name with Some (_, n) -> n | None -> 0

(* What a defective node elaborates into; a machine with a diagnostic is
   never returned, so no such node is ever run. *)
let unset = I.Const V.Unset

(* A name in value position, and its type where known: a variable as
   declared, an int param as its bound value, a let in scope as its
   node.  A duration param is only a [set_timer] delay. *)
let resolve ctx span name =
  match (List.assoc_opt name ctx.vars, List.assoc_opt name ctx.params) with
  | Some (scope, ty), _ -> (I.Var (scope, name), Some ty)
  | None, Some Ast.P_int -> (I.Const (V.Int (param_value ctx name)), Some Ast.T_int)
  | None, Some Ast.P_duration ->
      err ctx Diag.Type_mismatch span
        (Printf.sprintf "%s is a duration param: it can only be a set_timer delay" name);
      (unset, None)
  | None, None -> (
      match List.assoc_opt name ctx.scope with
      | Some (I.Of_int _ as node) -> (node, Some Ast.T_int)
      | Some node -> (node, Some Ast.T_bool)
      | None ->
          err ctx Diag.Unbound_var span
            (if is_let ctx name then
               Printf.sprintf
                 "let %s is not in scope: a let reads only the lets above it, an action none" name
             else Printf.sprintf "undeclared variable %s" name);
          (unset, None))

(* Left-associative chains of the same operator flatten back into the
   n-ary [And]/[Or] the builtin specs use, so [a && b && c] elaborates
   to [And [a; b; c]], not [And [And [a; b]; c]]. *)
let rec flatten op (e : Ast.exp) acc =
  match e.Ast.e with
  | Ast.Bin (o, a, b) when o = op -> flatten op a (b :: acc)
  | _ -> e :: acc

(* OCaml evaluates constructor arguments right to left: each pair of
   operands is bound in order, so diagnostics come out in text order. *)

let rec pred ctx (e : Ast.exp) : I.pred =
  match e.Ast.e with
  | Ast.Lit (Ast.L_bool b) -> if b then I.True else I.False
  | Ast.Not e -> I.Not (pred ctx e)
  | Ast.Bin (Ast.B_and, _, _) -> I.And (List.map (pred ctx) (flatten Ast.B_and e []))
  | Ast.Bin (Ast.B_or, _, _) -> I.Or (List.map (pred ctx) (flatten Ast.B_or e []))
  | Ast.Bin (((Ast.B_eq | Ast.B_ne) as op), a, b) ->
      let xa, ta = expr ctx a in
      let xb, tb = expr ctx b in
      if conflict ta tb then
        err ctx Diag.Type_mismatch e.Ast.e_span
          (Printf.sprintf "cannot compare %s with %s: the equality is always false"
             (ty_name (Option.get ta)) (ty_name (Option.get tb)));
      if op = Ast.B_eq then I.Eq (xa, xb) else I.Not (I.Eq (xa, xb))
  | Ast.Bin (((Ast.B_lt | Ast.B_le | Ast.B_gt | Ast.B_ge | Ast.B_ieq | Ast.B_ine) as op), a, b)
    ->
      let a = iexpr ctx a in
      let b = iexpr ctx b in
      let cmp =
        match op with
        | Ast.B_lt -> I.Lt
        | Ast.B_le -> I.Le
        | Ast.B_gt -> I.Gt
        | Ast.B_ge -> I.Ge
        | Ast.B_ieq -> I.Ieq
        | _ -> I.Ine
      in
      I.Cmp (cmp, a, b)
  | Ast.Bin ((Ast.B_add | Ast.B_sub), _, _) ->
      err ctx Diag.Type_mismatch e.Ast.e_span
        "an arithmetic expression is not a predicate; compare it (e.g. ... > 0)";
      I.False
  | Ast.In_set (scrutinee, lits) ->
      let x, t = expr ctx scrutinee in
      List.iter
        (fun l ->
          if conflict t (ty_of_lit l) then
            err ctx Diag.Type_mismatch e.Ast.e_span
              (Printf.sprintf "set member %s can never equal a %s value"
                 (ty_name (Option.get (ty_of_lit l)))
                 (ty_name (Option.get t))))
        lits;
      I.Member (x, List.map value_of_lit lits)
  | Ast.Call ("has", args) -> (
      match args with
      | [ { Ast.e = Ast.Fieldref f; _ } ] -> I.Has_field f
      | [ other ] ->
          err ctx Diag.Type_mismatch other.Ast.e_span "has(...) takes an event field ($name)";
          I.False
      | _ ->
          err ctx Diag.Type_mismatch e.Ast.e_span
            (Printf.sprintf "has(...) takes 1 argument, got %d" (List.length args));
          I.False)
  | Ast.Ident name when is_let ctx name -> (
      let node, ty = resolve ctx e.Ast.e_span name in
      if ty = Some Ast.T_int then
        err ctx Diag.Type_mismatch e.Ast.e_span
          (Printf.sprintf "%s is an integer, not a predicate" name);
      match node with I.Of_pred p -> p | _ -> I.False)
  | Ast.Ident name ->
      ignore (resolve ctx e.Ast.e_span name);
      err ctx Diag.Type_mismatch e.Ast.e_span
        (Printf.sprintf "a bare variable is not a predicate; write %s == true" name);
      I.False
  | _ ->
      err ctx Diag.Type_mismatch e.Ast.e_span "expected a predicate";
      I.False

and iexpr ctx (e : Ast.exp) : I.iexpr =
  match e.Ast.e with
  | Ast.Lit (Ast.L_int n) -> I.Int_const n
  | Ast.Call (("int" | "int0" | "wrap16" | "wrap32") as f, args) -> (
      match (f, args) with
      | "int", [ a ] -> I.Int_of (fst (expr ctx a))
      | "int0", [ a ] -> I.Int_or0 (fst (expr ctx a))
      | "wrap16", [ a ] -> I.Wrap (16, iexpr ctx a)
      | "wrap32", [ a ] -> I.Wrap (32, iexpr ctx a)
      | _ ->
          err ctx Diag.Type_mismatch e.Ast.e_span
            (Printf.sprintf "%s(...) takes 1 argument, got %d" f (List.length args));
          I.Int_const 0)
  | Ast.Bin (((Ast.B_add | Ast.B_sub) as op), a, b) ->
      let a = iexpr ctx a in
      let b = iexpr ctx b in
      if op = Ast.B_add then I.Add (a, b) else I.Sub (a, b)
  | Ast.Ident name when is_param ctx name || is_let ctx name -> (
      let node, ty = resolve ctx e.Ast.e_span name in
      if ty = Some Ast.T_bool then
        err ctx Diag.Type_mismatch e.Ast.e_span
          (Printf.sprintf "%s is a predicate, not an integer" name);
      match node with
      | I.Of_int ie -> ie
      | I.Const (V.Int n) -> I.Int_const n
      | _ -> I.Int_const 0)
  | Ast.Ident name ->
      ignore (resolve ctx e.Ast.e_span name);
      err ctx Diag.Type_mismatch e.Ast.e_span
        (Printf.sprintf
           "integer context needs an explicit conversion: write int(%s) or int0(%s)" name
           name);
      I.Int_const 0
  | Ast.Fieldref f ->
      err ctx Diag.Type_mismatch e.Ast.e_span
        (Printf.sprintf
           "integer context needs an explicit conversion: write int($%s) or int0($%s)" f f);
      I.Int_const 0
  | _ ->
      err ctx Diag.Type_mismatch e.Ast.e_span "expected an integer expression";
      I.Int_const 0

and expr ctx (e : Ast.exp) : I.expr * Ast.ty option =
  match e.Ast.e with
  | Ast.Lit l -> (I.Const (value_of_lit l), ty_of_lit l)
  | Ast.Ident name -> resolve ctx e.Ast.e_span name
  | Ast.Fieldref f -> (I.Field f, None)
  | Ast.Call ("addr", args) -> (
      match args with
      | [ h; p ] ->
          let xh, th = expr ctx h in
          let xp, tp = expr ctx p in
          if conflict th (Some Ast.T_str) then
            err ctx Diag.Type_mismatch h.Ast.e_span "addr(...) host must be a string";
          if conflict tp (Some Ast.T_int) then
            err ctx Diag.Type_mismatch p.Ast.e_span "addr(...) port must be an int";
          (I.Mk_addr (xh, xp), Some Ast.T_addr)
      | _ ->
          err ctx Diag.Type_mismatch e.Ast.e_span
            (Printf.sprintf "addr(...) takes 2 arguments, got %d" (List.length args));
          (unset, Some Ast.T_addr))
  | Ast.Call ("host", args) -> (
      match args with
      | [ a ] ->
          let x, t = expr ctx a in
          if conflict t (Some Ast.T_addr) then
            err ctx Diag.Type_mismatch a.Ast.e_span "host(...) takes an addr value";
          (I.Addr_host x, Some Ast.T_str)
      | _ ->
          err ctx Diag.Type_mismatch e.Ast.e_span
            (Printf.sprintf "host(...) takes 1 argument, got %d" (List.length args));
          (unset, Some Ast.T_str))
  | _ when is_int_shaped e -> (I.Of_int (iexpr ctx e), Some Ast.T_int)
  | _ when is_pred_shaped e -> (I.Of_pred (pred ctx e), Some Ast.T_bool)
  | Ast.Call (f, _) ->
      err ctx Diag.Type_mismatch e.Ast.e_span
        (Printf.sprintf
           "unknown function %s (expected addr, host, int, int0, wrap16, wrap32 or has)" f);
      (unset, None)
  | _ ->
      err ctx Diag.Type_mismatch e.Ast.e_span "expected a value expression";
      (unset, None)

let assign ctx span name (rhs : Ast.exp) =
  match List.assoc_opt name ctx.vars with
  | None ->
      (if is_param ctx name || is_let ctx name then
         let kind = if is_param ctx name then "param" else "let" in
         err ctx Diag.Type_mismatch span
           (Printf.sprintf "cannot assign to %s %s: %ss are read-only" kind name kind)
       else err ctx Diag.Unbound_var span (Printf.sprintf "undeclared variable %s" name));
      I.Assign ((Efsm.Env.Local, name), unset)
  | Some (scope, declared) ->
      let x, inferred = expr ctx rhs in
      (match (declared, rhs.Ast.e) with
      | Ast.T_enum lits, Ast.Lit l when not (List.mem l lits) ->
          err ctx Diag.Out_of_domain rhs.Ast.e_span
            (Printf.sprintf "constant outside the declared domain of %s" name)
      | _ ->
          if conflict (Some declared) inferred then
            err ctx Diag.Type_mismatch rhs.Ast.e_span
              (Printf.sprintf "%s is declared %s but assigned a %s value" name
                 (ty_name declared)
                 (ty_name (Option.get inferred))));
      I.Assign ((scope, name), x)

let rec act ctx (a : Ast.act) : I.act =
  match a.Ast.a with
  | Ast.Assign (name, rhs) -> assign ctx a.Ast.a_span name rhs
  | Ast.If (p, then_acts, else_acts) ->
      let p = pred ctx p in
      let then_acts = List.map (act ctx) then_acts in
      I.If (p, then_acts, List.map (act ctx) else_acts)
  | Ast.Sync { target; event; args } ->
      if not (List.mem target ctx.known_machines) then
        err ctx Diag.Unknown_sync a.Ast.a_span
          (Printf.sprintf "unknown sync target machine %s (known: %s)" target
             (String.concat ", " ctx.known_machines));
      I.Send_sync
        { target; event_name = event; args = List.map (fun (k, e) -> (k, fst (expr ctx e))) args }
  | Ast.Set_timer (id, Ast.Delay_us delay) -> I.Set_timer { id; delay }
  | Ast.Set_timer (id, Ast.Delay_param (name, span)) ->
      (match List.assoc_opt name ctx.params with
      | Some Ast.P_duration -> ()
      | Some Ast.P_int ->
          err ctx Diag.Type_mismatch span
            (Printf.sprintf "%s is an int param: set_timer needs a duration" name)
      | None -> err ctx Diag.Unbound_var span (Printf.sprintf "undeclared param %s" name));
      I.Set_timer { id; delay = param_value ctx name }
  | Ast.Cancel_timer id -> I.Cancel_timer id

(* An attack description with each [{NAME}] replaced by its param's
   literal text ([6], [250ms]). *)
let describe ctx span desc =
  Ast.expand_placeholders
    (fun name ->
      match (is_param ctx name, ctx.bound name) with
      | true, Some (Ast.P_int, n) -> string_of_int n
      | true, Some (Ast.P_duration, us) -> Printer.print_duration us
      | true, None -> "" (* reported at the param as unknown-param *)
      | false, _ ->
          err ctx Diag.Unbound_var span
            (Printf.sprintf "the description names {%s}, which is not a param" name);
          "")
    desc

(* [List.mem_assoc] for names: its polymorphic compare, over a machine's
   dozens of labels, doubled the cost of this pass. *)
let rec listed name = function
  | [] -> false
  | (n, _) :: rest -> String.equal n name || listed name rest

(* Declarations: duplicates, a missing initial state, params the host
   does not bind or binds at another type, and description placeholders
   naming no param.  Variables, params and lets share one namespace.
   Returns the initial state, the finals, the attack states, the first
   mention of each state (it anchors verifier findings) and each label's
   site. *)
let declarations ctx (m : Ast.machine) =
  let names = Hashtbl.create 8 in
  let declare name span =
    if Hashtbl.mem names name then
      err ctx Diag.Dup_label span (Printf.sprintf "variable %s is declared twice" name)
    else Hashtbl.add names name ()
  in
  let initial = ref None and finals = ref [] and attacks = ref [] in
  let states = ref [] and labels = ref [] in
  let mention s span = if not (listed s !states) then states := (s, span) :: !states in
  List.iter
    (function
      | Ast.I_param { p_name; p_ty; p_span } -> (
          declare p_name p_span;
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
          declare name span
      | Ast.I_initial (s, sp) -> (
          mention s sp;
          match !initial with
          | Some first ->
              err ctx Diag.Dup_state sp
                (Printf.sprintf "initial state declared twice (already %s)" first)
          | None -> initial := Some s)
      | Ast.I_final states ->
          List.iter
            (fun (s, sp) ->
              mention s sp;
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
          mention at_state at_span;
          let desc = describe ctx at_desc_span at_desc in
          if List.mem_assoc at_state !attacks then
            err ctx Diag.Dup_state at_span
              (Printf.sprintf "state %s is declared attack twice" at_state)
          else begin
            attacks := (at_state, desc) :: !attacks;
            if List.mem at_state !finals then
              err ctx Diag.Dup_state at_span
                (Printf.sprintf "state %s is declared both final and attack" at_state)
          end
      | Ast.I_trans t ->
          mention t.Ast.t_from t.Ast.t_span;
          mention t.Ast.t_to t.Ast.t_span;
          if listed t.Ast.t_label !labels then
            err ctx Diag.Dup_label t.Ast.t_span
              (Printf.sprintf "transition label %s is used twice" t.Ast.t_label)
          else labels := (t.Ast.t_label, t.Ast.t_span) :: !labels)
    m.Ast.m_items;
  if !initial = None then
    err ctx Diag.Structure m.Ast.m_span
      (Printf.sprintf "machine %s has no initial state" m.Ast.m_name);
  ( Option.value !initial ~default:"",
    List.rev !finals,
    List.rev !attacks,
    List.rev !states,
    List.rev !labels )

let trigger_of = function
  | Ast.Tg_event, name -> M.On_event name
  | Ast.Tg_channel, name -> M.On_channel name
  | Ast.Tg_sync, name -> M.On_sync name
  | Ast.Tg_timer, name -> M.On_timer name

let machine ~known_machines ~params:bound (m : Ast.machine) =
  let items = m.Ast.m_items in
  let vars =
    List.filter_map
      (function
        | Ast.I_var { v_name; v_scope = Ast.S_local; v_ty; _ } ->
            Some (v_name, (Efsm.Env.Local, v_ty))
        | Ast.I_var { v_name; v_scope = Ast.S_global; v_ty; _ } ->
            Some (v_name, (Efsm.Env.Global, v_ty))
        | _ -> None)
      items
  in
  let params =
    List.filter_map
      (function Ast.I_param { p_name; p_ty; _ } -> Some (p_name, p_ty) | _ -> None)
      items
  in
  let lets =
    List.filter_map
      (function
        | Ast.I_let { let_name; let_body; _ }
          when is_int_shaped let_body || is_pred_shaped let_body ->
            Some let_name
        | _ -> None)
      items
  in
  let ctx = { known_machines; bound; vars; params; lets; scope = []; diags = [] } in
  let initial, finals, attack_states, state_spans, trans_spans = declarations ctx m in
  (* Each let's body is elaborated once, with the lets above it in
     scope; then it comes into scope itself. *)
  List.iter
    (function
      | Ast.I_let { let_name; let_body; _ } ->
          let bind node = ctx.scope <- ctx.scope @ [ (let_name, node) ] in
          if is_int_shaped let_body then
            bind (I.Of_int (I.Int_let (let_name, iexpr ctx let_body)))
          else if is_pred_shaped let_body then
            bind (I.Of_pred (I.Pred_let (let_name, pred ctx let_body)))
          else
            err ctx Diag.Type_mismatch let_body.Ast.e_span
              (Printf.sprintf "let %s must be an integer expression or a predicate" let_name)
      | _ -> ())
    items;
  let every_let = ctx.scope in
  let transitions =
    List.filter_map
      (function
        | Ast.I_trans t ->
            ctx.scope <- every_let;
            let guard = Option.map (pred ctx) t.Ast.t_guard in
            ctx.scope <- [];
            Some
              (M.ir_transition ?guard ~acts:(List.map (act ctx) t.Ast.t_acts)
                 ~label:t.Ast.t_label ~from_state:t.Ast.t_from
                 (trigger_of t.Ast.t_trigger)
                 ~to_state:t.Ast.t_to ())
        | _ -> None)
      items
  in
  if ctx.diags <> [] then Error (List.rev ctx.diags)
  else
    Ok
      {
        el_file = m.Ast.m_span.Loc.s.Loc.file;
        el_spec = { M.spec_name = m.Ast.m_name; initial; finals; attack_states; transitions };
        el_vars = List.map (fun (name, (scope, ty)) -> ((scope, name), domain_of_ty ty)) vars;
        el_state_spans = state_spans;
        el_trans_spans = trans_spans;
      }
