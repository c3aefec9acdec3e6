module Ir = Efsm.Ir
module Value = Efsm.Value

type verdict = Unsat | Sat of string | Unknown of string

(* The solver decides satisfiability of a conjunction of IR predicates by
   (1) abstracting the formula into a propositional skeleton over a finite
   atom table, (2) enumerating truth assignments of the atoms, and (3) for
   each propositionally-satisfying assignment, checking per-subject theory
   feasibility by complete candidate enumeration: every constraint is a
   single-value predicate (pin / membership / integer bound), so a
   satisfying value exists iff one exists among the mentioned constants,
   their integer neighbours, and one fresh representative per value
   type.  A let stands for its body, so guards that share one share its
   atoms.  Anything outside the decidable fragment (non-linear or
   wrapped comparisons, compound expressions) becomes an uninterpreted
   atom, which over-approximates satisfiability: the solver may answer
   [Sat] for an unsatisfiable formula but never [Unsat] for a satisfiable
   one. *)

(* ----------------------------------------------------------------- *)
(* Atoms                                                              *)
(* ----------------------------------------------------------------- *)

type constr =
  | C_le of int  (** subject is [Int n] with [n <= k]. *)
  | C_eq_int of int  (** subject is exactly [Int k]. *)
  | C_pin of Value.t  (** subject equals this value. *)
  | C_mem of Value.t list  (** subject is a member of this set. *)
  | C_free  (** uninterpreted boolean. *)

type atom = { key : string; constr : constr; var : Ir.var option; ints_only : bool }

type prop =
  | P_true
  | P_false
  | P_not of prop
  | P_and of prop list
  | P_or of prop list
  | P_atom of int  (** index into the atom table *)

type table = { mutable atoms : atom list; mutable count : int }

let intern table atom =
  let rec find i = function
    | [] -> None
    | a :: _ when a.key = atom.key && a.constr = atom.constr -> Some (table.count - 1 - i)
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 table.atoms with
  | Some idx -> idx
  | None ->
      table.atoms <- atom :: table.atoms;
      table.count <- table.count + 1;
      table.count - 1

(* Subjects we can reason about exactly: a bare variable or event field. *)
let atomic_key = function
  | Ir.Var v -> Some (Ir.var_to_string (fst v, snd v), Some v)
  | Ir.Field f -> Some ("$" ^ f, None)
  | _ -> None

let free_atom table key = P_atom (intern table { key; constr = C_free; var = None; ints_only = false })

(* Linear view of an integer expression: either a constant, or an atomic
   base plus a constant offset. *)
type lin = L_const of int | L_base of string * Ir.var option * bool * int | L_hard

let rec linearize (ie : Ir.iexpr) =
  match ie with
  | Int_const n -> L_const n
  | Int_of e -> (
      match atomic_key e with Some (key, var) -> L_base (key, var, false, 0) | None -> L_hard)
  | Int_or0 e -> (
      match atomic_key e with
      | Some (key, var) -> L_base ("int0(" ^ key ^ ")", var, true, 0)
      | None -> L_hard)
  | Add (a, b) -> (
      match (linearize a, linearize b) with
      | L_const x, L_const y -> L_const (x + y)
      | L_base (k, v, t, o), L_const c | L_const c, L_base (k, v, t, o) -> L_base (k, v, t, o + c)
      | _ -> L_hard)
  | Sub (a, b) -> (
      match (linearize a, linearize b) with
      | L_const x, L_const y -> L_const (x - y)
      | L_base (k, v, t, o), L_const c -> L_base (k, v, t, o - c)
      | _ -> L_hard)
  | Wrap _ -> L_hard
  | Int_let (_, body) -> linearize body

let flip = function Ir.Lt -> Ir.Gt | Le -> Ge | Gt -> Lt | Ge -> Le | Ieq -> Ieq | Ine -> Ine

(* [base cmp k] as a (possibly negated) canonical atom.  Normalizing to
   {<=, ==} makes interval complements propositional complements:
   [x >= 200] is literally [not (x <= 199)], so disjointness of e.g.
   1xx/2xx response-code guards falls out of the skeleton. *)
let cmp_atom table ~key ~var ~ints_only cmp k =
  let atom constr = P_atom (intern table { key; constr; var; ints_only }) in
  match cmp with
  | Ir.Lt -> atom (C_le (k - 1))
  | Le -> atom (C_le k)
  | Gt -> P_not (atom (C_le k))
  | Ge -> P_not (atom (C_le (k - 1)))
  | Ieq -> atom (C_eq_int k)
  | Ine -> P_not (atom (C_eq_int k))

let abstract_cmp table cmp a b =
  match (linearize a, linearize b) with
  | L_const x, L_const y -> if Ir.apply_cmp cmp x y then P_true else P_false
  | L_base (key, var, ints_only, off), L_const k ->
      cmp_atom table ~key ~var ~ints_only cmp (k - off)
  | L_const k, L_base (key, var, ints_only, off) ->
      cmp_atom table ~key ~var ~ints_only (flip cmp) (k - off)
  | L_base (k1, _, t1, o1), L_base (k2, _, t2, o2) when k1 = k2 && t1 && t2 ->
      if Ir.apply_cmp cmp o1 o2 then P_true else P_false
  | _ ->
      free_atom table
        (Printf.sprintf "cmp:%s %s %s" (Ir.iexpr_to_string a) (Ir.cmp_to_string cmp)
           (Ir.iexpr_to_string b))

let rec abstract table (p : Ir.pred) =
  match p with
  | True -> P_true
  | False -> P_false
  | Not p -> P_not (abstract table p)
  | And ps -> P_and (List.map (abstract table) ps)
  | Or ps -> P_or (List.map (abstract table) ps)
  | Cmp (cmp, a, b) -> abstract_cmp table cmp a b
  | Eq (a, b) -> (
      match (a, b) with
      | Const x, Const y -> if Value.equal x y then P_true else P_false
      | Const c, e | e, Const c -> (
          match atomic_key e with
          | Some (key, var) -> P_atom (intern table { key; constr = C_pin c; var; ints_only = false })
          | None ->
              free_atom table
                (Printf.sprintf "eq:%s=%s" (Ir.expr_to_string e) (Value.to_string c)))
      | _ ->
          let s1 = Ir.expr_to_string a and s2 = Ir.expr_to_string b in
          let lo = min s1 s2 and hi = max s1 s2 in
          free_atom table (Printf.sprintf "eq:%s=%s" lo hi))
  | Member (e, vs) -> (
      match atomic_key e with
      | Some (key, var) -> P_atom (intern table { key; constr = C_mem vs; var; ints_only = false })
      | None -> free_atom table (Printf.sprintf "mem:%s" (Ir.expr_to_string e)))
  | Has_field f ->
      (* has($f) <=> the field's value is not Unset. *)
      P_not (P_atom (intern table { key = "$" ^ f; constr = C_pin Value.Unset; var = None; ints_only = false }))
  | Pred_let (_, body) -> abstract table body

let rec eval_prop assignment = function
  | P_true -> true
  | P_false -> false
  | P_not p -> not (eval_prop assignment p)
  | P_and ps -> List.for_all (eval_prop assignment) ps
  | P_or ps -> List.exists (eval_prop assignment) ps
  | P_atom i -> assignment.(i)

(* ----------------------------------------------------------------- *)
(* Theory feasibility by candidate enumeration                        *)
(* ----------------------------------------------------------------- *)

let constr_holds constr (v : Value.t) =
  match constr with
  | C_le k -> ( match v with Value.Int n -> n <= k | _ -> false)
  | C_eq_int k -> Value.equal v (Value.Int k)
  | C_pin c -> Value.equal v c
  | C_mem vs -> List.exists (Value.equal v) vs
  | C_free -> true

let constr_constants = function
  | C_le k | C_eq_int k -> [ Value.Int k; Value.Int (k - 1); Value.Int (k + 1) ]
  | C_pin c -> [ c ]
  | C_mem vs -> vs
  | C_free -> []

let fresh_string mentioned =
  let rec go s = if List.exists (Value.equal (Value.Str s)) mentioned then go (s ^ "'") else s in
  go "fresh"

let fresh_int mentioned =
  let m =
    List.fold_left (fun m -> function Value.Int n -> max m n | _ -> m) 0 mentioned
  in
  m + 1

let domain_admits domain (v : Value.t) =
  match (domain, v) with
  | _, Value.Unset -> true (* a declared variable can always still be unset *)
  | Ir.D_int, Value.Int _ -> true
  | Ir.D_bool, Value.Bool _ -> true
  | Ir.D_str, Value.Str _ -> true
  | Ir.D_addr, Value.Addr _ -> true
  | Ir.D_enum vs, v -> List.exists (Value.equal v) vs
  | _ -> false

(* Is there a single value satisfying every (constraint, polarity) pair?
   Candidates: each mentioned constant, integer neighbours of comparison
   bounds, one fresh representative per type, both booleans, and Unset.
   Every region the constraints can carve out of the value space contains
   one of these, so the enumeration is exact for this fragment. *)
let subject_feasible ~domain ~ints_only constraints =
  let mentioned = List.concat_map (fun (c, _) -> constr_constants c) constraints in
  let fresh =
    [
      Value.Int (fresh_int mentioned);
      Value.Str (fresh_string mentioned);
      Value.Addr (fresh_string mentioned, 1);
      Value.Bool true;
      Value.Bool false;
      Value.Unset;
    ]
  in
  let enum = match domain with Some (Ir.D_enum vs) -> vs | _ -> [] in
  let candidates = mentioned @ enum @ fresh in
  let admissible v =
    (match v with Value.Int _ -> true | _ -> not ints_only)
    && (match domain with Some d -> domain_admits d v | None -> true)
  in
  let satisfies v = List.for_all (fun (c, polarity) -> constr_holds c v = polarity) constraints in
  List.find_opt (fun v -> admissible v && satisfies v) candidates

let feasible_assignment ~domains atoms assignment =
  (* Group the assigned atoms by subject key, then check each subject. *)
  let keys =
    List.sort_uniq String.compare
      (List.filter_map (fun a -> if a.constr = C_free then None else Some a.key) atoms)
  in
  let witness = Buffer.create 64 in
  let ok =
    List.for_all
      (fun key ->
        let constraints = ref [] and var = ref None and ints_only = ref false in
        List.iteri
          (fun i a ->
            if a.key = key && a.constr <> C_free then begin
              constraints := (a.constr, assignment.(i)) :: !constraints;
              (match a.var with Some v -> var := Some v | None -> ());
              if a.ints_only then ints_only := true
            end)
          atoms;
        let domain =
          match !var with Some v -> List.assoc_opt v domains | None -> None
        in
        match subject_feasible ~domain ~ints_only:!ints_only !constraints with
        | Some v ->
            if Buffer.length witness > 0 then Buffer.add_string witness ", ";
            Buffer.add_string witness (Printf.sprintf "%s=%s" key (Value.to_string v));
            true
        | None -> false)
      keys
  in
  if ok then Some (Buffer.contents witness) else None

(* ----------------------------------------------------------------- *)
(* Entry point                                                        *)
(* ----------------------------------------------------------------- *)

(* Atom budget; beyond it [satisfiable] answers [Unknown]. *)
let max_atoms = 16

let satisfiable ?(domains = []) preds =
  let table = { atoms = []; count = 0 } in
  let props = List.map (abstract table) preds in
  let atoms = List.rev table.atoms in
  let n = table.count in
  if n > max_atoms then
    Unknown (Printf.sprintf "formula has %d atoms (limit %d)" n max_atoms)
  else begin
    let assignment = Array.make (max n 1) false in
    let found = ref None in
    let mask = ref 0 in
    let limit = 1 lsl n in
    while !found = None && !mask < limit do
      for i = 0 to n - 1 do
        assignment.(i) <- (!mask lsr i) land 1 = 1
      done;
      if List.for_all (eval_prop assignment) props then begin
        match feasible_assignment ~domains atoms assignment with
        | Some w ->
            let w = if w = "" then "any inputs" else w in
            found := Some w
        | None -> ()
      end;
      incr mask
    done;
    match !found with Some w -> Sat w | None -> Unsat
  end
