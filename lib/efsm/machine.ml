type trigger = On_event of string | On_channel of string | On_sync of string | On_timer of string

type effect =
  | Send_sync of { target : string; event_name : string; args : (string * Value.t) list }
  | Set_timer of { id : string; delay : Dsim.Time.t }
  | Cancel_timer of string

type transition = {
  label : string;
  from_state : string;
  trigger : trigger;
  guard : Env.t -> Event.t -> bool;
  action : Env.t -> Event.t -> effect list;
  to_state : string;
  syntax : effect Ir.t;
}

let builders : effect Ir.builders =
  {
    Ir.build_sync = (fun ~target ~event_name ~args -> Send_sync { target; event_name; args });
    build_set_timer = (fun ~id ~delay -> Set_timer { id; delay });
    build_cancel_timer = (fun id -> Cancel_timer id);
  }

let ir_transition ?(guard = Ir.True) ?(acts = []) ~label ~from_state trigger ~to_state () =
  {
    label;
    from_state;
    trigger;
    guard = Ir.compile_pred guard;
    action = Ir.compile_acts builders acts;
    to_state;
    syntax = { Ir.guard; acts };
  }

type spec = {
  spec_name : string;
  initial : string;
  finals : string list;
  attack_states : (string * string) list;
  transitions : transition list;
}

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

type t = {
  spec : spec;
  mutable state : string;
  env : Env.t;
  mutable trace : (Dsim.Time.t * string) list;
  mutable trace_len : int;
}

(* Transition history is diagnostic, not analysis state — but a long-lived
   detector machine (a spam/flood detector survives for the whole run)
   appends to it on every packet, which is unbounded growth.  Bound it to
   the newest [hist_keep] entries, truncating amortized (only once the list
   doubles) so the steady-state cost stays one cons per transition.  The
   retained window is a pure function of the transition count, so a live
   run and a replay of its capture keep identical histories and snapshots
   stay canonical. *)
let hist_keep = 32
let hist_max = 2 * hist_keep

type outcome =
  | Moved of { transition : transition; effects : effect list; attack : string option }
  | Rejected
  | Nondeterministic of string list

let instantiate spec ~globals =
  { spec; state = spec.initial; env = Env.create globals; trace = []; trace_len = 0 }
let spec t = t.spec
let name t = t.spec.spec_name
let state t = t.state
let env t = t.env
let is_final t = List.mem t.state t.spec.finals
let in_attack_state t = List.assoc_opt t.state t.spec.attack_states

let trigger_matches trigger (event : Event.t) =
  match (trigger, event.channel) with
  | On_event n, _ -> String.equal n event.name
  | On_channel proto, Event.Data p -> String.equal proto p
  | On_channel _, (Event.Sync _ | Event.Timer) -> false
  | On_sync n, Event.Sync _ -> String.equal n event.name
  | On_sync _, (Event.Data _ | Event.Timer) -> false
  | On_timer id, Event.Timer -> String.equal id event.name
  | On_timer _, (Event.Data _ | Event.Sync _) -> false

let guard_holds transition env event =
  try transition.guard env event with Value.Type_error _ -> false

let step t event =
  let candidates =
    List.filter
      (fun tr -> String.equal tr.from_state t.state && trigger_matches tr.trigger event)
      t.spec.transitions
  in
  let enabled = List.filter (fun tr -> guard_holds tr t.env event) candidates in
  match enabled with
  | [] -> Rejected
  | [ tr ] ->
      let effects = tr.action t.env event in
      t.state <- tr.to_state;
      t.trace <- (event.Event.at, tr.label) :: t.trace;
      t.trace_len <- t.trace_len + 1;
      if t.trace_len > hist_max then begin
        t.trace <- List.filteri (fun i _ -> i < hist_keep) t.trace;
        t.trace_len <- hist_keep
      end;
      Moved { transition = tr; effects; attack = List.assoc_opt tr.to_state t.spec.attack_states }
  | many -> Nondeterministic (List.map (fun tr -> tr.label) many)

let trace t = List.rev t.trace
let configuration t = (t.state, Env.local_bindings t.env)

let restore t ~state ~vars ~trace =
  if not (List.mem state (states t.spec)) then
    Error (Printf.sprintf "%s: unknown state %S in snapshot" t.spec.spec_name state)
  else begin
    t.state <- state;
    Env.reset_locals t.env;
    List.iter (fun (name, value) -> Env.set t.env Local name value) vars;
    t.trace <- List.rev trace;
    t.trace_len <- List.length trace;
    Ok ()
  end
