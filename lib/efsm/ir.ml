type domain = D_int | D_bool | D_str | D_addr | D_enum of Value.t list

type var = Env.scope * string

type decl = var * domain

type cmp = Lt | Le | Gt | Ge | Ieq | Ine

type expr =
  | Const of Value.t
  | Var of var
  | Field of string
  | Mk_addr of expr * expr
  | Addr_host of expr
  | Of_int of iexpr
  | Of_pred of pred

and iexpr =
  | Int_const of int
  | Int_of of expr
  | Int_or0 of expr
  | Add of iexpr * iexpr
  | Sub of iexpr * iexpr
  | Wrap of int * iexpr
  | Int_let of string * iexpr

and pred =
  | True
  | False
  | Not of pred
  | And of pred list
  | Or of pred list
  | Eq of expr * expr
  | Member of expr * Value.t list
  | Cmp of cmp * iexpr * iexpr
  | Has_field of string
  | Pred_let of string * pred

type act =
  | Assign of var * expr
  | If of pred * act list * act list
  | Send_sync of { target : string; event_name : string; args : (string * expr) list }
  | Set_timer of { id : string; delay : Dsim.Time.t }
  | Cancel_timer of string

type t = { guard : pred; acts : act list }

type 'eff builders = {
  build_sync : target:string -> event_name:string -> args:(string * Value.t) list -> 'eff;
  build_set_timer : id:string -> delay:Dsim.Time.t -> 'eff;
  build_cancel_timer : string -> 'eff;
}

let apply_cmp cmp a b =
  match cmp with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Ieq -> Int.equal a b
  | Ine -> not (Int.equal a b)

(* The sign bit of an [n]-bit integer moved to the native sign bit and
   back: the low [n] bits, sign-extended. *)
let wrap bits x =
  let shift = Sys.int_size - bits in
  (x lsl shift) asr shift

(* --------------------------------------------------------------- *)
(* Reference interpreter                                            *)
(* --------------------------------------------------------------- *)

let rec eval_expr env event = function
  | Const v -> v
  | Var (scope, name) -> Env.get env scope name
  | Field name -> Event.get event (Event.field name)
  | Mk_addr (h, p) -> (
      match (eval_expr env event h, eval_expr env event p) with
      | Value.Str host, Value.Int port -> Value.Addr (host, port)
      | _ -> Value.Unset)
  | Addr_host e -> (
      match eval_expr env event e with Value.Addr (h, _) -> Value.Str h | _ -> Value.Str "")
  | Of_int ie -> (
      match eval_iexpr env event ie with Some n -> Value.Int n | None -> Value.Unset)
  | Of_pred p -> Value.Bool (eval_pred env event p)

and eval_iexpr env event = function
  | Int_const n -> Some n
  | Int_of e -> ( match eval_expr env event e with Value.Int n -> Some n | _ -> None)
  | Int_or0 e -> ( match eval_expr env event e with Value.Int n -> Some n | _ -> Some 0)
  | Add (a, b) -> (
      match (eval_iexpr env event a, eval_iexpr env event b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | Sub (a, b) -> (
      match (eval_iexpr env event a, eval_iexpr env event b) with
      | Some x, Some y -> Some (x - y)
      | _ -> None)
  | Wrap (bits, a) -> Option.map (wrap bits) (eval_iexpr env event a)
  | Int_let (_, body) -> eval_iexpr env event body

and eval_pred env event = function
  | True -> true
  | False -> false
  | Not p -> not (eval_pred env event p)
  | And ps -> List.for_all (eval_pred env event) ps
  | Or ps -> List.exists (eval_pred env event) ps
  | Eq (a, b) -> Value.equal (eval_expr env event a) (eval_expr env event b)
  | Member (e, vs) ->
      let v = eval_expr env event e in
      List.exists (Value.equal v) vs
  | Cmp (cmp, a, b) -> (
      match (eval_iexpr env event a, eval_iexpr env event b) with
      | Some x, Some y -> apply_cmp cmp x y
      | _ -> false)
  | Has_field f -> Event.has event (Event.field f)
  | Pred_let (_, body) -> eval_pred env event body

let rec run_act builders env event = function
  | Assign ((scope, name), e) ->
      Env.set env scope name (eval_expr env event e);
      []
  | If (p, then_, else_) ->
      run_acts builders (if eval_pred env event p then then_ else else_) env event
  | Send_sync { target; event_name; args } ->
      let args = List.map (fun (k, e) -> (k, eval_expr env event e)) args in
      [ builders.build_sync ~target ~event_name ~args ]
  | Set_timer { id; delay } -> [ builders.build_set_timer ~id ~delay ]
  | Cancel_timer id -> [ builders.build_cancel_timer id ]

and run_acts builders acts env event =
  List.fold_left (fun acc act -> acc @ run_act builders env event act) [] acts

(* --------------------------------------------------------------- *)
(* Staged compiler                                                  *)
(* --------------------------------------------------------------- *)

(* An integer expression compiles to a closure returning an unboxed int;
   an undefined operand unwinds to the nearest comparison or [Of_int]. *)
exception Undefined

(* The lets of one program, each compiled once into a reader of its
   cell.  A cell holds what the let's body evaluated to at step [at]:
   [value] and [holds] for an integer, [holds] false when it is
   undefined; [holds] alone for a predicate.  A guard that reads the let
   again within that step reads the cell. *)
type cell = { mutable at : int; mutable value : int; mutable holds : bool }

type lets = {
  mutable step : int;
  mutable ints : (string * (iexpr * (Env.t -> Event.t -> int))) list;
  mutable preds : (string * (pred * (Env.t -> Event.t -> bool))) list;
}

let lets () = { step = 0; ints = []; preds = [] }

let next_step lets = lets.step <- lets.step + 1

let int_reader lets f =
  let c = { at = -1; value = 0; holds = false } in
  fun env event ->
    if c.at <> lets.step then begin
      c.at <- lets.step;
      c.holds <- false;
      c.value <- f env event;
      c.holds <- true
    end;
    if c.holds then c.value else raise_notrace Undefined

let pred_reader lets f =
  let c = { at = -1; value = 0; holds = false } in
  fun env event ->
    if c.at <> lets.step then begin
      c.at <- lets.step;
      c.holds <- f env event
    end;
    c.holds

let two_bodies name = invalid_arg (Printf.sprintf "Ir: let %S is bound to two bodies" name)

(* The walkers below are top-level functions that take everything they
   use as arguments: a local closure over [env] and [event] would be
   allocated on every evaluation. *)
let rec all fs env event i =
  i = Array.length fs || ((Array.unsafe_get fs i) env event && all fs env event (i + 1))

let rec any fs env event i =
  i < Array.length fs && ((Array.unsafe_get fs i) env event || any fs env event (i + 1))

let rec mem_value v = function [] -> false | x :: rest -> Value.equal v x || mem_value v rest

let local_slot layout name =
  match Env.slot layout name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Ir: local %S is missing from the layout" name)

(* [lets] is [None] in actions, which read a let's body afresh: only
   guards share its value. *)
let rec compile_expr lets layout e =
  match e with
  | Const v -> fun _ _ -> v
  | Var (Env.Local, name) ->
      let i = local_slot layout name in
      fun env _ -> Env.get_slot env i
  | Var (Env.Global, name) -> fun env _ -> Env.get env Env.Global name
  | Field name ->
      let f = Event.field name in
      fun _ event -> Event.get event f
  | Mk_addr (h, p) ->
      let fh = compile_expr lets layout h and fp = compile_expr lets layout p in
      fun env event ->
        (match (fh env event, fp env event) with
        | Value.Str host, Value.Int port -> Value.Addr (host, port)
        | _ -> Value.Unset)
  | Addr_host e ->
      let f = compile_expr lets layout e in
      fun env event ->
        (match f env event with Value.Addr (h, _) -> Value.Str h | _ -> Value.Str "")
  | Of_int ie ->
      let f = compile_iexpr lets layout ie in
      fun env event -> (match f env event with n -> Value.Int n | exception Undefined -> Value.Unset)
  | Of_pred p ->
      let f = compile_pred lets layout p in
      fun env event -> Value.Bool (f env event)

and compile_iexpr lets layout ie =
  match ie with
  | Int_const n -> fun _ _ -> n
  | Int_of e ->
      let f = compile_expr lets layout e in
      fun env event -> (match f env event with Value.Int n -> n | _ -> raise_notrace Undefined)
  | Int_or0 e ->
      let f = compile_expr lets layout e in
      fun env event -> (match f env event with Value.Int n -> n | _ -> 0)
  | Add (a, b) ->
      let fa = compile_iexpr lets layout a and fb = compile_iexpr lets layout b in
      fun env event -> fa env event + fb env event
  | Sub (a, b) ->
      let fa = compile_iexpr lets layout a and fb = compile_iexpr lets layout b in
      fun env event -> fa env event - fb env event
  | Wrap (bits, a) ->
      let fa = compile_iexpr lets layout a in
      fun env event -> wrap bits (fa env event)
  | Int_let (name, body) -> (
      match lets with
      | None -> compile_iexpr None layout body
      | Some l -> (
          match List.assoc_opt name l.ints with
          | Some (b, f) -> if b = body then f else two_bodies name
          | None ->
              let f = int_reader l (compile_iexpr lets layout body) in
              l.ints <- (name, (body, f)) :: l.ints;
              f))

and compile_pred lets layout p =
  match p with
  | True -> fun _ _ -> true
  | False -> fun _ _ -> false
  | Not p ->
      let f = compile_pred lets layout p in
      fun env event -> not (f env event)
  | And ps ->
      let fs = Array.of_list (List.map (fun p -> compile_pred lets layout p) ps) in
      fun env event -> all fs env event 0
  | Or ps ->
      let fs = Array.of_list (List.map (fun p -> compile_pred lets layout p) ps) in
      fun env event -> any fs env event 0
  | Eq (a, b) ->
      let fa = compile_expr lets layout a and fb = compile_expr lets layout b in
      fun env event -> Value.equal (fa env event) (fb env event)
  | Member (e, vs) ->
      let f = compile_expr lets layout e in
      fun env event -> mem_value (f env event) vs
  | Cmp (cmp, a, b) ->
      let fa = compile_iexpr lets layout a and fb = compile_iexpr lets layout b in
      fun env event -> ( try apply_cmp cmp (fa env event) (fb env event) with Undefined -> false)
  | Has_field name ->
      let f = Event.field name in
      fun _ event -> Event.has event f
  | Pred_let (name, body) -> (
      match lets with
      | None -> compile_pred None layout body
      | Some l -> (
          match List.assoc_opt name l.preds with
          | Some (b, f) -> if b = body then f else two_bodies name
          | None ->
              let f = pred_reader l (compile_pred lets layout body) in
              l.preds <- (name, (body, f)) :: l.preds;
              f))

(* A compiled action prepends its effects, newest first, to the effects
   of the actions before it; the list is put in order once, at the end. *)
let rec run_seq fs env event acc i =
  if i = Array.length fs then acc
  else run_seq fs env event ((Array.unsafe_get fs i) env event acc) (i + 1)

let rec eval_args env event = function
  | [] -> []
  | (k, f) :: rest ->
      let v = f env event in
      (k, v) :: eval_args env event rest

let compile_acts builders layout acts =
  let rec compile_act = function
    | Assign ((Env.Local, name), e) ->
        let i = local_slot layout name and f = compile_expr None layout e in
        fun env event acc ->
          Env.set_slot env i (f env event);
          acc
    | Assign ((Env.Global, name), e) ->
        let f = compile_expr None layout e in
        fun env event acc ->
          Env.set env Env.Global name (f env event);
          acc
    | If (p, then_, else_) ->
        let fp = compile_pred None layout p and ft = compile_seq then_ and fe = compile_seq else_ in
        fun env event acc -> if fp env event then ft env event acc else fe env event acc
    | Send_sync { target; event_name; args } ->
        let fargs = List.map (fun (k, e) -> (k, compile_expr None layout e)) args in
        fun env event acc ->
          builders.build_sync ~target ~event_name ~args:(eval_args env event fargs) :: acc
    | Set_timer { id; delay } ->
        let effect = builders.build_set_timer ~id ~delay in
        fun _ _ acc -> effect :: acc
    | Cancel_timer id ->
        let effect = builders.build_cancel_timer id in
        fun _ _ acc -> effect :: acc
  and compile_seq acts =
    let fs = Array.of_list (List.map compile_act acts) in
    fun env event acc -> run_seq fs env event acc 0
  in
  let f = compile_seq acts in
  fun env event -> List.rev (f env event [])

let compile_pred lets layout p = compile_pred (Some lets) layout p

(* --------------------------------------------------------------- *)
(* Introspection                                                    *)
(* --------------------------------------------------------------- *)

let dedup l = List.sort_uniq compare l

let rec expr_vars acc = function
  | Const _ | Field _ -> acc
  | Var v -> v :: acc
  | Mk_addr (a, b) -> expr_vars (expr_vars acc a) b
  | Addr_host e -> expr_vars acc e
  | Of_int ie -> iexpr_vars acc ie
  | Of_pred p -> pred_vars_acc acc p

and iexpr_vars acc = function
  | Int_const _ -> acc
  | Int_of e | Int_or0 e -> expr_vars acc e
  | Add (a, b) | Sub (a, b) -> iexpr_vars (iexpr_vars acc a) b
  | Wrap (_, a) | Int_let (_, a) -> iexpr_vars acc a

and pred_vars_acc acc = function
  | True | False | Has_field _ -> acc
  | Not p -> pred_vars_acc acc p
  | And ps | Or ps -> List.fold_left pred_vars_acc acc ps
  | Eq (a, b) -> expr_vars (expr_vars acc a) b
  | Member (e, _) -> expr_vars acc e
  | Cmp (_, a, b) -> iexpr_vars (iexpr_vars acc a) b
  | Pred_let (_, p) -> pred_vars_acc acc p

let rec expr_fields acc = function
  | Const _ | Var _ -> acc
  | Field f -> f :: acc
  | Mk_addr (a, b) -> expr_fields (expr_fields acc a) b
  | Addr_host e -> expr_fields acc e
  | Of_int ie -> iexpr_fields acc ie
  | Of_pred p -> pred_fields_acc acc p

and iexpr_fields acc = function
  | Int_const _ -> acc
  | Int_of e | Int_or0 e -> expr_fields acc e
  | Add (a, b) | Sub (a, b) -> iexpr_fields (iexpr_fields acc a) b
  | Wrap (_, a) | Int_let (_, a) -> iexpr_fields acc a

and pred_fields_acc acc = function
  | True | False -> acc
  | Has_field f -> f :: acc
  | Not p -> pred_fields_acc acc p
  | And ps | Or ps -> List.fold_left pred_fields_acc acc ps
  | Eq (a, b) -> expr_fields (expr_fields acc a) b
  | Member (e, _) -> expr_fields acc e
  | Cmp (_, a, b) -> iexpr_fields (iexpr_fields acc a) b
  | Pred_let (_, p) -> pred_fields_acc acc p

let pred_vars p = dedup (pred_vars_acc [] p)
let pred_fields p = dedup (pred_fields_acc [] p)
let vars_of_expr e = dedup (expr_vars [] e)

(* Action folds walk both branches of every [If]: the analyses want what an
   action *may* do, not what one execution did. *)
let rec acts_fold f acc acts = List.fold_left (act_fold f) acc acts

and act_fold f acc act =
  let acc = f acc act in
  match act with If (_, then_, else_) -> acts_fold f (acts_fold f acc then_) else_ | _ -> acc

let acts_writes acts =
  dedup (acts_fold (fun acc -> function Assign (v, _) -> v :: acc | _ -> acc) [] acts)

let acts_reads acts =
  dedup
    (acts_fold
       (fun acc -> function
         | Assign (_, e) -> expr_vars acc e
         | If (p, _, _) -> pred_vars_acc acc p
         | Send_sync { args; _ } -> List.fold_left (fun acc (_, e) -> expr_vars acc e) acc args
         | Set_timer _ | Cancel_timer _ -> acc)
       [] acts)

let acts_syncs acts =
  dedup
    (acts_fold
       (fun acc -> function
         | Send_sync { target; event_name; _ } -> (target, event_name) :: acc
         | _ -> acc)
       [] acts)

let acts_timers_set acts =
  dedup (acts_fold (fun acc -> function Set_timer { id; _ } -> id :: acc | _ -> acc) [] acts)

let acts_timers_cancelled acts =
  dedup (acts_fold (fun acc -> function Cancel_timer id -> id :: acc | _ -> acc) [] acts)

let domain_of_value = function
  | Value.Int _ -> Some D_int
  | Value.Bool _ -> Some D_bool
  | Value.Str _ -> Some D_str
  | Value.Addr _ -> Some D_addr
  | Value.Unset -> None

let type_of_expr = function
  | Const v -> domain_of_value v
  | Var _ | Field _ -> None
  | Mk_addr _ -> Some D_addr
  | Addr_host _ -> Some D_str
  | Of_int _ -> Some D_int
  | Of_pred _ -> Some D_bool

let domain_to_string = function
  | D_int -> "int"
  | D_bool -> "bool"
  | D_str -> "string"
  | D_addr -> "addr"
  | D_enum vs ->
      Printf.sprintf "{%s}" (String.concat ", " (List.map Value.to_string vs))

(* --------------------------------------------------------------- *)
(* Pretty-printing (lint findings, DOT annotations, docs)           *)
(* --------------------------------------------------------------- *)

let var_to_string (scope, name) =
  match scope with Env.Local -> name | Env.Global -> "g:" ^ name

let cmp_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Ieq -> "=="
  | Ine -> "!="

let rec expr_to_string = function
  | Const v -> Value.to_string v
  | Var v -> var_to_string v
  | Field f -> "$" ^ f
  | Mk_addr (h, p) -> Printf.sprintf "addr(%s, %s)" (expr_to_string h) (expr_to_string p)
  | Addr_host e -> Printf.sprintf "host(%s)" (expr_to_string e)
  | Of_int ie -> iexpr_to_string ie
  | Of_pred p -> pred_to_string p

and iexpr_to_string = function
  | Int_const n -> string_of_int n
  | Int_of e -> expr_to_string e
  | Int_or0 e -> Printf.sprintf "int0(%s)" (expr_to_string e)
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (iexpr_to_string a) (iexpr_to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (iexpr_to_string a) (iexpr_to_string b)
  | Wrap (bits, a) -> Printf.sprintf "wrap%d(%s)" bits (iexpr_to_string a)
  | Int_let (_, a) -> iexpr_to_string a

and pred_to_string = function
  | True -> "true"
  | False -> "false"
  | Not p -> Printf.sprintf "!(%s)" (pred_to_string p)
  | And ps -> Printf.sprintf "(%s)" (String.concat " && " (List.map pred_to_string ps))
  | Or ps -> Printf.sprintf "(%s)" (String.concat " || " (List.map pred_to_string ps))
  | Eq (a, b) -> Printf.sprintf "%s = %s" (expr_to_string a) (expr_to_string b)
  | Member (e, vs) ->
      Printf.sprintf "%s in {%s}" (expr_to_string e)
        (String.concat ", " (List.map Value.to_string vs))
  | Cmp (c, a, b) ->
      Printf.sprintf "%s %s %s" (iexpr_to_string a) (cmp_to_string c) (iexpr_to_string b)
  | Has_field f -> Printf.sprintf "has($%s)" f
  | Pred_let (_, p) -> pred_to_string p
