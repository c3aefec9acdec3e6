(* Positioned surface syntax for [.vspec] machine specifications.

   The AST is deliberately untyped and context-free: one expression form
   covers predicate, value and integer positions, and [Elaborate] decides
   which {!Efsm.Ir} fragment each node elaborates into.  Every node
   carries the span of the text it was parsed from; generated trees (the
   round-trip property's) carry a span on line 0 ({!Loc.is_dummy}). *)

type lit =
  | L_int of int
  | L_str of string
  | L_bool of bool
  | L_unset

(* Variable domains; mirrors [Efsm.Ir.domain]. *)
type ty = T_int | T_bool | T_str | T_addr | T_enum of lit list

(* A [param] is a host-bound constant: an integer operand, or a duration
   in microseconds for [set_timer]. *)
type param_ty = P_int | P_duration

type binop =
  | B_and
  | B_or
  | B_eq  (* ==  structural value equality          -> Ir.Eq        *)
  | B_ne  (* !=                                     -> Ir.Not Eq    *)
  | B_lt  (* <   integer comparisons                -> Ir.Cmp       *)
  | B_le  (* <=                                                     *)
  | B_gt  (* >                                                      *)
  | B_ge  (* >=                                                     *)
  | B_ieq (* =   integer equality                   -> Ir.Cmp Ieq   *)
  | B_ine (* <>                                     -> Ir.Cmp Ine   *)
  | B_add (* +   integer arithmetic                 -> Ir.Add       *)
  | B_sub (* -                                      -> Ir.Sub       *)

type exp = { e : exp_node; e_span : Loc.span }

and exp_node =
  | Lit of lit
  | Ident of string  (* variable, param or let; resolved by Elaborate *)
  | Fieldref of string  (* $name: event field *)
  | Call of string * exp list  (* addr/2 host/1 int/1 int0/1 wrap16/1 wrap32/1 has/1 *)
  | Not of exp
  | Bin of binop * exp * exp
  | In_set of exp * lit list

(* A [set_timer] delay: a literal (microseconds, [Dsim.Time.t]) or a
   duration param, spanned for its diagnostics. *)
type delay = Delay_us of int | Delay_param of string * Loc.span

type act = { a : act_node; a_span : Loc.span }

and act_node =
  | Assign of string * exp
  | If of exp * act list * act list
  | Sync of { target : string; event : string; args : (string * exp) list }
  | Set_timer of string * delay
  | Cancel_timer of string

type trigger_kind = Tg_event | Tg_channel | Tg_sync | Tg_timer

type trans = {
  t_label : string;
  t_from : string;
  t_to : string;
  t_trigger : trigger_kind * string;
  t_guard : exp option;
  t_acts : act list;
  t_span : Loc.span;  (* the label token: where findings point *)
}

type scope = S_local | S_global

type item =
  | I_param of { p_name : string; p_ty : param_ty; p_span : Loc.span }
  | I_var of { v_name : string; v_scope : scope; v_ty : ty; v_span : Loc.span }
  | I_let of { let_name : string; let_body : exp; let_span : Loc.span }
      (* a named integer or predicate that guards share *)
  | I_initial of string * Loc.span
  | I_final of (string * Loc.span) list
  | I_attack of {
      at_state : string;
      at_desc : string;  (* may name params as {NAME} *)
      at_span : Loc.span;
      at_desc_span : Loc.span;
    }
  | I_trans of trans

type machine = { m_name : string; m_items : item list; m_span : Loc.span }

type file = machine list

(* Structural equality ignoring spans — the contract the round-trip
   property (parse . print = id) is stated against. *)

let equal_lit (a : lit) (b : lit) = a = b

let equal_ty (a : ty) (b : ty) = a = b

let rec equal_exp a b =
  match (a.e, b.e) with
  | Lit x, Lit y -> equal_lit x y
  | Ident x, Ident y | Fieldref x, Fieldref y -> String.equal x y
  | Call (f, xs), Call (g, ys) ->
      String.equal f g && List.length xs = List.length ys && List.for_all2 equal_exp xs ys
  | Not x, Not y -> equal_exp x y
  | Bin (o, x1, x2), Bin (p, y1, y2) -> o = p && equal_exp x1 y1 && equal_exp x2 y2
  | In_set (x, xs), In_set (y, ys) -> equal_exp x y && xs = ys
  | _ -> false

let equal_delay a b =
  match (a, b) with
  | Delay_us x, Delay_us y -> x = y
  | Delay_param (x, _), Delay_param (y, _) -> String.equal x y
  | _ -> false

let rec equal_act a b =
  match (a.a, b.a) with
  | Assign (x, e1), Assign (y, e2) -> String.equal x y && equal_exp e1 e2
  | If (p, t1, f1), If (q, t2, f2) ->
      equal_exp p q && equal_acts t1 t2 && equal_acts f1 f2
  | Sync s1, Sync s2 ->
      String.equal s1.target s2.target
      && String.equal s1.event s2.event
      && List.length s1.args = List.length s2.args
      && List.for_all2
           (fun (k1, e1) (k2, e2) -> String.equal k1 k2 && equal_exp e1 e2)
           s1.args s2.args
  | Set_timer (i, d), Set_timer (j, e) -> String.equal i j && equal_delay d e
  | Cancel_timer i, Cancel_timer j -> String.equal i j
  | _ -> false

and equal_acts a b = List.length a = List.length b && List.for_all2 equal_act a b

let equal_trans (a : trans) (b : trans) =
  String.equal a.t_label b.t_label
  && String.equal a.t_from b.t_from
  && String.equal a.t_to b.t_to
  && a.t_trigger = b.t_trigger
  && (match (a.t_guard, b.t_guard) with
     | None, None -> true
     | Some x, Some y -> equal_exp x y
     | _ -> false)
  && equal_acts a.t_acts b.t_acts

let equal_item a b =
  match (a, b) with
  | I_param x, I_param y -> String.equal x.p_name y.p_name && x.p_ty = y.p_ty
  | I_var x, I_var y ->
      String.equal x.v_name y.v_name && x.v_scope = y.v_scope && equal_ty x.v_ty y.v_ty
  | I_let x, I_let y -> String.equal x.let_name y.let_name && equal_exp x.let_body y.let_body
  | I_initial (x, _), I_initial (y, _) -> String.equal x y
  | I_final xs, I_final ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (x, _) (y, _) -> String.equal x y) xs ys
  | I_attack x, I_attack y ->
      String.equal x.at_state y.at_state && String.equal x.at_desc y.at_desc
  | I_trans x, I_trans y -> equal_trans x y
  | _ -> false

let equal_machine a b =
  String.equal a.m_name b.m_name
  && List.length a.m_items = List.length b.m_items
  && List.for_all2 equal_item a.m_items b.m_items

let equal_file a b = List.length a = List.length b && List.for_all2 equal_machine a b

(* Attack descriptions name params as [{NAME}].  A brace that does not
   enclose an identifier is literal text. *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

(* [expand_placeholders f s] replaces each [{NAME}] in [s] by [f NAME]. *)
let expand_placeholders f s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec ident_end j = if j < n && is_ident_char s.[j] then ident_end (j + 1) else j in
  let rec go i =
    if i < n then begin
      let j = if s.[i] = '{' && i + 1 < n && is_ident_start s.[i + 1] then ident_end (i + 1) else i in
      if j > i && j < n && s.[j] = '}' then begin
        Buffer.add_string b (f (String.sub s (i + 1) (j - i - 1)));
        go (j + 1)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents b
