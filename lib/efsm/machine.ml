type trigger = On_event of string | On_channel of string | On_sync of string | On_timer of string

type effect =
  | Send_sync of { target : string; event_name : string; args : (string * Value.t) list }
  | Set_timer of { id : string; delay : Dsim.Time.t }
  | Cancel_timer of string

type transition = {
  label : string;
  from_state : string;
  trigger : trigger;
  to_state : string;
  syntax : Ir.t;
}

let builders : effect Ir.builders =
  {
    Ir.build_sync = (fun ~target ~event_name ~args -> Send_sync { target; event_name; args });
    build_set_timer = (fun ~id ~delay -> Set_timer { id; delay });
    build_cancel_timer = (fun id -> Cancel_timer id);
  }

let ir_transition ?(guard = Ir.True) ?(acts = []) ~label ~from_state trigger ~to_state () =
  { label; from_state; trigger; to_state; syntax = { Ir.guard; acts } }

type spec = {
  spec_name : string;
  initial : string;
  finals : string list;
  attack_states : (string * string) list;
  transitions : transition list;
}

(* A history entry stores its transition's spec index as a [uint16]. *)
let max_transitions = 0xFFFF

let validate_spec spec =
  let labels = List.map (fun t -> t.label) spec.transitions in
  let sorted = List.sort String.compare labels in
  let rec dup = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  let err fmt = Printf.ksprintf (fun m -> Error (spec.spec_name ^ ": " ^ m)) fmt in
  match dup sorted with
  | Some label -> err "duplicate transition label %S" label
  | None when List.length labels > max_transitions ->
      err "%d transitions, more than the %d a machine can number" (List.length labels)
        max_transitions
  | None ->
      if not (List.exists (fun t -> String.equal t.from_state spec.initial) spec.transitions)
      then err "initial state %S has no transitions" spec.initial
      else begin
        (* A state name that appears only once in the whole spec is almost
           certainly a typo: sources must be enterable, targets must lead
           somewhere (or be terminal). *)
        let final s = List.mem s spec.finals in
        let attack s = List.mem_assoc s spec.attack_states in
        let enterable s =
          String.equal s spec.initial
          || List.exists (fun t -> String.equal t.to_state s) spec.transitions
        in
        let exitable s = List.exists (fun t -> String.equal t.from_state s) spec.transitions in
        let bad_final = List.find_opt attack spec.finals in
        let bad_attack =
          List.find_opt (fun (_, desc) -> String.equal (String.trim desc) "") spec.attack_states
        in
        let orphan_from =
          List.find_opt (fun t -> not (enterable t.from_state)) spec.transitions
        in
        let orphan_to =
          List.find_opt
            (fun t -> not (exitable t.to_state || final t.to_state || attack t.to_state))
            spec.transitions
        in
        match (bad_final, bad_attack, orphan_from, orphan_to) with
        | Some s, _, _, _ -> err "state %S is both final and an attack state" s
        | None, Some (s, _), _, _ -> err "attack state %S has an empty alert description" s
        | None, None, Some t, _ ->
            err "transition %S leaves state %S, which nothing can reach (typo?)" t.label
              t.from_state
        | None, None, None, Some t ->
            err
              "transition %S enters state %S, which has no outgoing transitions and is neither \
               final nor an attack state (typo?)"
              t.label t.to_state
        | None, None, None, None -> Ok ()
      end

let states spec =
  let add acc s = if List.mem s acc then acc else s :: acc in
  let acc = List.fold_left (fun acc t -> add (add acc t.from_state) t.to_state) [] spec.transitions in
  let acc = add acc spec.initial in
  let acc = List.fold_left add acc spec.finals in
  List.sort String.compare acc

(* --------------------------------------------------------------- *)
(* Programs                                                         *)
(* --------------------------------------------------------------- *)

(* A numbered state.  Its edges point straight at their target nodes, so
   [n_out] is filled in once every node exists. *)
type node = {
  n_name : string;
  n_final : bool;
  n_attack : string option;
  mutable n_out : edge array; (* outgoing transitions, in spec order *)
}

and edge = {
  e_transition : transition;
  e_index : int; (* position in the spec's transition list *)
  e_guard : Env.t -> Event.t -> bool;
  e_action : Env.t -> Event.t -> effect list;
  e_target : node;
}

module Labels = Hashtbl.Make (String)

type program = {
  p_spec : spec;
  p_layout : Env.layout;
  p_lets : Ir.lets; (* the cells of the lets its guards share *)
  p_nodes : node array;
  p_initial : node;
  p_labels : string array; (* by transition index *)
  p_index : int Labels.t; (* label -> transition index *)
}

let locals spec =
  List.concat_map
    (fun tr ->
      let { Ir.guard; acts } = tr.syntax in
      Ir.pred_vars guard @ Ir.acts_reads acts @ Ir.acts_writes acts)
    spec.transitions
  |> List.filter_map (function Env.Local, name -> Some name | Env.Global, _ -> None)

let find_node nodes name = Array.find_opt (fun n -> String.equal n.n_name name) nodes

let compile spec =
  let layout = Env.layout (locals spec) in
  let lets = Ir.lets () in
  let nodes =
    Array.of_list
      (List.map
         (fun name ->
           {
             n_name = name;
             n_final = List.exists (String.equal name) spec.finals;
             n_attack =
               List.find_map
                 (fun (s, desc) -> if String.equal s name then Some desc else None)
                 spec.attack_states;
             n_out = [||];
           })
         (states spec))
  in
  (* [states] lists every endpoint, so the lookups cannot fail. *)
  let node name = Option.get (find_node nodes name) in
  let numbered = List.mapi (fun i tr -> (i, tr)) spec.transitions in
  Array.iter
    (fun n ->
      n.n_out <-
        Array.of_list
          (List.filter_map
             (fun (i, tr) ->
               if String.equal tr.from_state n.n_name then
                 Some
                   {
                     e_transition = tr;
                     e_index = i;
                     e_guard = Ir.compile_pred lets layout tr.syntax.Ir.guard;
                     e_action = Ir.compile_acts builders layout tr.syntax.Ir.acts;
                     e_target = node tr.to_state;
                   }
               else None)
             numbered))
    nodes;
  let labels = Array.of_list (List.map (fun tr -> tr.label) spec.transitions) in
  let index = Labels.create (Array.length labels) in
  Array.iteri (fun i label -> Labels.replace index label i) labels;
  {
    p_spec = spec;
    p_layout = layout;
    p_lets = lets;
    p_nodes = nodes;
    p_initial = node spec.initial;
    p_labels = labels;
    p_index = index;
  }

(* --------------------------------------------------------------- *)
(* Instances                                                        *)
(* --------------------------------------------------------------- *)

(* The transition history is a ring: entry [k] of [h_at] is the time of
   a transition and bytes [2k], [2k + 1] of [h_tr] its index, as a
   little-endian [uint16].  [h_next] is the slot the next entry goes to
   and [h_len] the number held, the newest ending just before [h_next]. *)
type t = {
  program : program;
  mutable node : node;
  env : Env.t;
  mutable h_at : Dsim.Time.t array;
  mutable h_tr : Bytes.t;
  mutable h_next : int;
  mutable h_len : int;
}

(* Transition history is diagnostic, not analysis state — but a long-lived
   detector machine (a spam/flood detector survives for the whole run)
   appends to it on every packet, which is unbounded growth.  Bound it to
   the newest [hist_keep] entries, truncating amortized (only once
   [hist_max] are held), so the retained window is a pure function of
   the transition count: a live run and a replay of its capture keep
   identical histories and snapshots stay canonical. *)
let hist_keep = 32
let hist_max = 2 * hist_keep

type outcome =
  | Moved of { transition : transition; effects : effect list; attack : string option }
  | Rejected
  | Nondeterministic of string list

let instantiate program ~globals =
  {
    program;
    node = program.p_initial;
    env = Env.create program.p_layout globals;
    h_at = [||];
    h_tr = Bytes.empty;
    h_next = 0;
    h_len = 0;
  }

let spec t = t.program.p_spec
let name t = t.program.p_spec.spec_name
let state t = t.node.n_name
let env t = t.env
let is_final t = t.node.n_final

let trigger_matches trigger event =
  match (trigger, Event.channel event) with
  | On_event n, _ -> String.equal n (Event.name event)
  | On_channel proto, Event.Data p -> String.equal proto p
  | On_channel _, (Event.Sync _ | Event.Timer) -> false
  | On_sync n, Event.Sync _ -> String.equal n (Event.name event)
  | On_sync _, (Event.Data _ | Event.Timer) -> false
  | On_timer id, Event.Timer -> String.equal id (Event.name event)
  | On_timer _, (Event.Data _ | Event.Sync _) -> false

let enabled edge env event =
  trigger_matches edge.e_transition.trigger event && edge.e_guard env event

(* Top-level scans: a local recursive function capturing the instance
   would be allocated on every step. *)
let rec first_enabled out env event i =
  if i = Array.length out then -1
  else if enabled out.(i) env event then i
  else first_enabled out env event (i + 1)

let rec enabled_labels out env event i =
  if i = Array.length out then []
  else if enabled out.(i) env event then
    out.(i).e_transition.label :: enabled_labels out env event (i + 1)
  else enabled_labels out env event (i + 1)

(* Slot of the [i]th oldest entry. *)
let slot t i =
  let cap = Array.length t.h_at in
  let j = t.h_next - t.h_len + i in
  if j < 0 then j + cap else j

(* A full ring below [hist_max] doubles, from 4, keeping its entries
   oldest first. *)
let grow t =
  let cap = max 4 (2 * Array.length t.h_at) in
  let at = Array.make cap 0 and tr = Bytes.create (2 * cap) in
  for i = 0 to t.h_len - 1 do
    let k = slot t i in
    at.(i) <- t.h_at.(k);
    Bytes.blit t.h_tr (2 * k) tr (2 * i) 2
  done;
  t.h_at <- at;
  t.h_tr <- tr;
  t.h_next <- t.h_len

(* Past [hist_max] entries only the newest [hist_keep] stay. *)
let push t at index =
  if t.h_len = hist_max then t.h_len <- hist_keep - 1
  else if t.h_len = Array.length t.h_at then grow t;
  let k = t.h_next in
  t.h_at.(k) <- at;
  Bytes.set_uint16_le t.h_tr (2 * k) index;
  t.h_next <- (if k + 1 = Array.length t.h_at then 0 else k + 1);
  t.h_len <- t.h_len + 1

let take t edge event =
  let effects = edge.e_action t.env event in
  t.node <- edge.e_target;
  push t (Event.at event) edge.e_index;
  Moved { transition = edge.e_transition; effects; attack = edge.e_target.n_attack }

let step t event =
  Ir.next_step t.program.p_lets;
  let out = t.node.n_out in
  match first_enabled out t.env event 0 with
  | -1 -> Rejected
  | i -> (
      match first_enabled out t.env event (i + 1) with
      | -1 -> take t out.(i) event
      | j ->
          Nondeterministic
            (out.(i).e_transition.label :: out.(j).e_transition.label
            :: enabled_labels out t.env event (j + 1)))

let history t =
  let labels = t.program.p_labels in
  ( Array.init t.h_len (fun i -> t.h_at.(slot t i)),
    Array.init t.h_len (fun i -> labels.(Bytes.get_uint16_le t.h_tr (2 * slot t i))) )

(* The capacity [push] grows to for [n] entries. *)
let rec capacity n cap = if cap >= n then cap else capacity n (2 * cap)

(* Writes each label's transition index into [tr], oldest first, and
   returns the first label that names no transition, if one does. *)
let rec write_indices index labels tr i =
  if i = Array.length labels then None
  else
    match Labels.find index labels.(i) with
    | k ->
        Bytes.set_uint16_le tr (2 * i) k;
        write_indices index labels tr (i + 1)
    | exception Not_found -> Some labels.(i)

let restore t ~state ~vars ~history:(ats, labels) =
  let fail fmt = Printf.ksprintf (fun m -> Error (name t ^ ": " ^ m)) fmt in
  let n = Array.length ats in
  match find_node t.program.p_nodes state with
  | None -> fail "unknown state %S in snapshot" state
  | Some node -> (
      match List.find_opt (fun (v, _) -> Option.is_none (Env.slot t.program.p_layout v)) vars with
      | Some (v, _) -> fail "unknown variable %S in snapshot" v
      | None when Array.length labels <> n ->
          fail "history of %d times and %d transitions in snapshot" n (Array.length labels)
      | None when n > hist_max ->
          fail "history of %d entries in snapshot exceeds the %d-entry window" n hist_max
      | None -> (
          (* The ring [push] would build from empty, built aside so that an
             unknown label leaves the instance as it was. *)
          let cap = if n = 0 then 0 else capacity n 4 in
          let h_at = Array.make cap 0 in
          let h_tr = if n = 0 then Bytes.empty else Bytes.create (2 * cap) in
          Array.blit ats 0 h_at 0 n;
          match write_indices t.program.p_index labels h_tr 0 with
          | Some label -> fail "unknown transition %S in snapshot" label
          | None ->
              t.node <- node;
              Env.reset_locals t.env;
              List.iter (fun (v, value) -> Env.set t.env Env.Local v value) vars;
              t.h_at <- h_at;
              t.h_tr <- h_tr;
              t.h_next <- (if n = cap then 0 else n);
              t.h_len <- n;
              Ok ()))
