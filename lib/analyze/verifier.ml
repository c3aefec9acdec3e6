module Machine = Efsm.Machine
module Ir = Efsm.Ir

module VarSet = Set.Make (struct
  type t = Ir.var

  let compare = compare
end)

module SS = Set.Make (String)

type machine_report = {
  spec_name : string;
  findings : Finding.t list;
  determinism_discharged : bool;
  pairs_checked : int;
  reachable : string list;
  pruned_transitions : string list;
}

type report = { machines : machine_report list; system_findings : Finding.t list }

let machine_errors r = List.filter Finding.is_error r.findings

let all_findings report =
  List.concat_map (fun m -> m.findings) report.machines @ report.system_findings

let has_errors report = List.exists Finding.is_error (all_findings report)

(* ----------------------------------------------------------------- *)
(* Trigger overlap                                                    *)
(* ----------------------------------------------------------------- *)

(* Can one concrete event match both triggers?  [On_event n] matches any
   channel carrying name [n], so it overlaps the channel-specific
   triggers whenever the names agree (and every data channel). *)
let triggers_overlap a b =
  match (a, b) with
  | Machine.On_event x, Machine.On_event y -> String.equal x y
  | On_event _, On_channel _ | On_channel _, On_event _ -> true
  | On_event x, On_sync y | On_sync y, On_event x -> String.equal x y
  | On_event x, On_timer y | On_timer y, On_event x -> String.equal x y
  | On_channel x, On_channel y -> String.equal x y
  | On_sync x, On_sync y -> String.equal x y
  | On_timer x, On_timer y -> String.equal x y
  | On_channel _, (On_sync _ | On_timer _) | (On_sync _ | On_timer _), On_channel _ -> false
  | On_sync _, On_timer _ | On_timer _, On_sync _ -> false

(* ----------------------------------------------------------------- *)
(* Action dataflow helpers                                            *)
(* ----------------------------------------------------------------- *)

let may_writes acts = VarSet.of_list (Ir.acts_writes acts)

(* Variables assigned on *every* execution of [acts]. *)
let rec must_writes acts =
  List.fold_left
    (fun acc act ->
      match act with
      | Ir.Assign (v, _) -> VarSet.add v acc
      | Ir.If (_, then_, else_) ->
          VarSet.union acc (VarSet.inter (must_writes then_) (must_writes else_))
      | _ -> acc)
    VarSet.empty acts

(* ----------------------------------------------------------------- *)
(* Per-spec verification                                              *)
(* ----------------------------------------------------------------- *)

let verify_spec ?vars (spec : Machine.spec) =
  let name = spec.Machine.spec_name in
  let findings = ref [] in
  let emit ?state ?transition severity pass message =
    findings := Finding.make ?state ?transition ~severity ~pass ~machine:name message :: !findings
  in
  let domains = Option.value vars ~default:[] in
  let syntaxed = List.map (fun t -> t.Machine.syntax) spec.Machine.transitions in

  (* Pass: structural validation (Machine.validate_spec). *)
  (match Machine.validate_spec spec with
  | Ok () -> ()
  | Error e -> emit Finding.Error "structure" e);

  (* Pass: per-transition guard satisfiability (prunes the graph). *)
  let pruned = ref [] in
  List.iter
    (fun (t : Machine.transition) ->
      let guard = t.Machine.syntax.Ir.guard in
      match Solver.satisfiable ~domains [ guard ] with
      | Solver.Unsat ->
          pruned := t.Machine.label :: !pruned;
          emit ~state:t.Machine.from_state ~transition:t.Machine.label Finding.Error
            "reachability"
            (Printf.sprintf "guard %s is unsatisfiable: transition can never fire"
               (Ir.pred_to_string guard))
      | Solver.Sat _ -> ()
      | Solver.Unknown why ->
          emit ~transition:t.Machine.label Finding.Info "reachability"
            ("guard satisfiability not decided: " ^ why))
    spec.Machine.transitions;
  let pruned = !pruned in
  let kept =
    List.filter (fun t -> not (List.mem t.Machine.label pruned)) spec.Machine.transitions
  in

  (* Pass: determinism — pairwise guard disjointness per (state, trigger). *)
  let pairs_checked = ref 0 in
  let all_disjoint = ref true in
  let rec pairs = function
    | [] -> []
    | t :: rest -> List.map (fun u -> (t, u)) rest @ pairs rest
  in
  List.iter
    (fun ((t : Machine.transition), (u : Machine.transition)) ->
      if
        String.equal t.Machine.from_state u.Machine.from_state
        && triggers_overlap t.Machine.trigger u.Machine.trigger
      then begin
        incr pairs_checked;
        let g1 = t.Machine.syntax.Ir.guard and g2 = u.Machine.syntax.Ir.guard in
        match Solver.satisfiable ~domains [ g1; g2 ] with
        | Solver.Unsat -> ()
        | Solver.Sat witness ->
            all_disjoint := false;
            emit ~state:t.Machine.from_state
              ~transition:(t.Machine.label ^ "/" ^ u.Machine.label) Finding.Error "determinism"
              (Printf.sprintf "guards are not disjoint: %S and %S both fire on %s"
                 t.Machine.label u.Machine.label witness)
        | Solver.Unknown why ->
            all_disjoint := false;
            emit ~state:t.Machine.from_state
              ~transition:(t.Machine.label ^ "/" ^ u.Machine.label) Finding.Warning
              "determinism"
              (Printf.sprintf "disjointness of %S and %S not decided: %s" t.Machine.label
                 u.Machine.label why)
      end)
    (pairs kept);

  (* Reachability over the pruned graph. *)
  let reachable =
    let seen = ref (SS.singleton spec.Machine.initial) in
    let frontier = ref [ spec.Machine.initial ] in
    while !frontier <> [] do
      let s = List.hd !frontier in
      frontier := List.tl !frontier;
      List.iter
        (fun (t : Machine.transition) ->
          if String.equal t.Machine.from_state s && not (SS.mem t.Machine.to_state !seen) then begin
            seen := SS.add t.Machine.to_state !seen;
            frontier := t.Machine.to_state :: !frontier
          end)
        kept
    done;
    !seen
  in
  let states = Machine.states spec in
  List.iter
    (fun s ->
      if not (SS.mem s reachable) then
        match List.assoc_opt s spec.Machine.attack_states with
        | Some _ ->
            emit ~state:s Finding.Error "reachability"
              "attack state is unreachable: the pattern can never fire"
        | None ->
            if List.mem s spec.Machine.finals then
              emit ~state:s Finding.Warning "reachability" "final state is unreachable"
            else emit ~state:s Finding.Warning "reachability" "state is unreachable")
    states;
  if
    spec.Machine.finals <> []
    && not (List.exists (fun s -> SS.mem s reachable) spec.Machine.finals)
  then emit Finding.Error "reachability" "no final state is reachable: calls can never complete";
  List.iter
    (fun s ->
      if
        SS.mem s reachable
        && (not (List.exists (fun (t : Machine.transition) -> String.equal t.Machine.from_state s) kept))
        && (not (List.mem s spec.Machine.finals))
        && not (List.mem_assoc s spec.Machine.attack_states)
      then
        emit ~state:s Finding.Error "reachability"
          "reachable dead end: not final, not an attack state, and no live outgoing transition")
    states;

  (* Variable and timer hygiene. *)
  let kept_syn = List.map (fun (t : Machine.transition) -> (t, t.Machine.syntax)) kept in
  (* May/must-assigned fixpoint over the pruned, reachable graph. *)
  let universe =
    List.fold_left
      (fun acc { Ir.guard; acts } ->
        let acc = VarSet.union acc (VarSet.of_list (Ir.pred_vars guard)) in
        let acc = VarSet.union acc (VarSet.of_list (Ir.acts_reads acts)) in
        VarSet.union acc (may_writes acts))
      (VarSet.of_list (List.map fst domains))
      syntaxed
  in
  let may : (string, VarSet.t) Hashtbl.t = Hashtbl.create 16 in
  let must : (string, VarSet.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace may s VarSet.empty;
      Hashtbl.replace must s (if String.equal s spec.Machine.initial then VarSet.empty else universe))
    states;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((t : Machine.transition), { Ir.acts; _ }) ->
        if SS.mem t.Machine.from_state reachable then begin
          let update table v join =
            let cur = Hashtbl.find table v in
            let next = join cur in
            if not (VarSet.equal cur next) then begin
              Hashtbl.replace table v next;
              changed := true
            end
          in
          let may_in = Hashtbl.find may t.Machine.from_state in
          let must_in = Hashtbl.find must t.Machine.from_state in
          update may t.Machine.to_state (VarSet.union (VarSet.union may_in (may_writes acts)));
          update must t.Machine.to_state
            (VarSet.inter (VarSet.union must_in (must_writes acts)))
        end)
      kept_syn
  done;
  let ever_written =
    List.fold_left (fun acc { Ir.acts; _ } -> VarSet.union acc (may_writes acts)) VarSet.empty
      syntaxed
  in
  let ever_read =
    List.fold_left
      (fun acc { Ir.guard; acts } ->
        VarSet.union acc
          (VarSet.union (VarSet.of_list (Ir.pred_vars guard)) (VarSet.of_list (Ir.acts_reads acts))))
      VarSet.empty syntaxed
  in
  let report_read ~where ~state ~transition ~may_in ~assigned v =
    if not (VarSet.mem v assigned) then
      let scope_of (scope, _) = scope in
      if not (VarSet.mem v may_in) then begin
        if scope_of v = Efsm.Env.Local then
          emit ~state ~transition Finding.Error "variables"
            (Printf.sprintf "%s reads %s before any assignment can have happened%s" where
               (Ir.var_to_string v)
               (if VarSet.mem v ever_written then "" else " (never assigned in this machine)"))
        else
          emit ~state ~transition Finding.Warning "variables"
            (Printf.sprintf "%s reads global %s, which this machine never assigns first" where
               (Ir.var_to_string v))
      end
      else
        emit ~state ~transition Finding.Info "variables"
          (Printf.sprintf "%s may read %s before initialization (assigned on some paths only)"
             where (Ir.var_to_string v))
  in
  List.iter
    (fun ((t : Machine.transition), { Ir.guard; acts }) ->
      let state = t.Machine.from_state and transition = t.Machine.label in
      if SS.mem state reachable then begin
        let may_in = Hashtbl.find may state and must_in = Hashtbl.find must state in
        List.iter
          (report_read ~where:"guard" ~state ~transition ~may_in ~assigned:must_in)
          (Ir.pred_vars guard);
        (* Actions: sequential tracking within the list. *)
        let rec walk assigned seen_may acts =
          List.fold_left
            (fun (assigned, seen_may) act ->
              let check_expr e =
                List.iter
                  (report_read ~where:"action" ~state ~transition ~may_in:seen_may
                     ~assigned)
                  (Ir.vars_of_expr e)
              in
              match act with
              | Ir.Assign (v, e) ->
                  check_expr e;
                  (VarSet.add v assigned, VarSet.add v seen_may)
              | Ir.If (p, then_, else_) ->
                  List.iter
                    (report_read ~where:"action" ~state ~transition ~may_in:seen_may
                       ~assigned)
                    (Ir.pred_vars p);
                  let a1, m1 = walk assigned seen_may then_ in
                  let a2, m2 = walk assigned seen_may else_ in
                  (VarSet.inter a1 a2, VarSet.union m1 m2)
              | Ir.Send_sync { args; _ } ->
                  List.iter (fun (_, e) -> check_expr e) args;
                  (assigned, seen_may)
              | Ir.Set_timer _ | Ir.Cancel_timer _ -> (assigned, seen_may))
            (assigned, seen_may) acts
        in
        ignore (walk must_in may_in acts)
      end)
    kept_syn;
  (* Declared-domain hygiene. *)
  (match vars with
  | None -> ()
  | Some decls ->
      List.iter
        (fun ((t : Machine.transition), { Ir.acts; _ }) ->
          Ir.acts_fold
            (fun () act ->
              match act with
              | Ir.Assign (v, e) -> (
                  match List.assoc_opt v decls with
                  | None ->
                      emit ~state:t.Machine.from_state ~transition:t.Machine.label
                        Finding.Error "variables"
                        (Printf.sprintf "assignment to %s, which is outside the declared \
                                         variable domain"
                           (Ir.var_to_string v))
                  | Some domain -> (
                      match (domain, e) with
                      | Ir.D_enum allowed, Ir.Const c ->
                          if not (List.exists (Efsm.Value.equal c) allowed) then
                            emit ~state:t.Machine.from_state ~transition:t.Machine.label
                              Finding.Error "variables"
                              (Printf.sprintf "assigns %s to %s, outside its declared domain %s"
                                 (Efsm.Value.to_string c) (Ir.var_to_string v)
                                 (Ir.domain_to_string domain))
                      | _ -> (
                          match Ir.type_of_expr e with
                          | Some d when d <> domain -> (
                              match domain with
                              | Ir.D_enum _ -> ()
                              | _ ->
                                  emit ~state:t.Machine.from_state ~transition:t.Machine.label
                                    Finding.Error "variables"
                                    (Printf.sprintf
                                       "assigns a %s expression to %s, declared as %s"
                                       (Ir.domain_to_string d) (Ir.var_to_string v)
                                       (Ir.domain_to_string domain)))
                          | _ -> ())))
              | _ -> ())
            () acts)
        kept_syn);
  (* Dead variables: locally assigned, never read by this machine. *)
  VarSet.iter
    (fun v ->
      if fst v = Efsm.Env.Local && not (VarSet.mem v ever_read) then
        emit Finding.Warning "variables"
          (Printf.sprintf "dead variable: %s is assigned but never read" (Ir.var_to_string v)))
    ever_written;

  (* Timer hygiene. *)
  let timers_set =
    List.concat_map
      (fun ((t : Machine.transition), { Ir.acts; _ }) ->
        List.map (fun id -> (id, t.Machine.label, t.Machine.from_state)) (Ir.acts_timers_set acts))
      kept_syn
  in
  let timers_cancelled =
    List.concat_map
      (fun ((t : Machine.transition), { Ir.acts; _ }) ->
        List.map (fun id -> (id, t.Machine.label, t.Machine.from_state))
          (Ir.acts_timers_cancelled acts))
      kept_syn
  in
  let expiry_ids =
    List.filter_map
      (fun (t : Machine.transition) ->
        match t.Machine.trigger with Machine.On_timer id -> Some id | _ -> None)
      spec.Machine.transitions
  in
  let set_ids = List.map (fun (id, _, _) -> id) timers_set in
  List.iter
    (fun (id, label, state) ->
      if not (List.mem id expiry_ids) then
        emit ~state ~transition:label Finding.Error "timers"
          (Printf.sprintf "Set_timer %S has no On_timer expiry transition: the timer fires \
                           into the void"
             id))
    timers_set;
  List.iter
    (fun (id, label, state) ->
      if not (List.mem id set_ids) then
        emit ~state ~transition:label Finding.Warning "timers"
          (Printf.sprintf "Cancel_timer %S cancels a timer no transition ever sets" id))
    timers_cancelled;
  List.iter
    (fun id ->
      if not (List.mem id set_ids) then
        emit Finding.Warning "timers"
          (Printf.sprintf "On_timer %S expiry can never occur: no transition sets the timer" id))
    (List.sort_uniq String.compare expiry_ids);

  {
    spec_name = name;
    findings = List.stable_sort Finding.compare (List.rev !findings);
    determinism_discharged = !all_disjoint;
    pairs_checked = !pairs_checked;
    reachable = List.filter (fun s -> SS.mem s reachable) states;
    pruned_transitions = List.rev pruned;
  }

(* ----------------------------------------------------------------- *)
(* Whole-system verification                                          *)
(* ----------------------------------------------------------------- *)

let verify_system (machines : (Machine.spec * Ir.decl list) list) =
  let reports = List.map (fun (spec, vars) -> verify_spec ~vars spec) machines in
  let findings = ref [] in
  let emit ?state ?transition severity pass machine message =
    findings := Finding.make ?state ?transition ~severity ~pass ~machine message :: !findings
  in
  let by_name = List.map (fun ((spec : Machine.spec), _) -> (spec.Machine.spec_name, spec)) machines in
  let report_of name = List.find (fun r -> String.equal r.spec_name name) reports in
  (* Sync sends per machine: (sender, transition, target, event, live). *)
  let live_transition r (t : Machine.transition) =
    SS.mem t.Machine.from_state (SS.of_list r.reachable)
    && not (List.mem t.Machine.label r.pruned_transitions)
  in
  let sends =
    List.concat_map
      (fun ((spec : Machine.spec), _) ->
        let r = report_of spec.Machine.spec_name in
        List.concat_map
          (fun (t : Machine.transition) ->
            List.map
              (fun (target, ev) -> (spec.Machine.spec_name, t, target, ev, live_transition r t))
              (Ir.acts_syncs t.Machine.syntax.Ir.acts))
          spec.Machine.transitions)
      machines
  in
  (* Every live send needs a live receiver on a known target machine. *)
  List.iter
    (fun (sender, (t : Machine.transition), target, ev, live) ->
      if live then
        match List.assoc_opt target by_name with
        | None ->
            emit ~state:t.Machine.from_state ~transition:t.Machine.label Finding.Error "sync"
              sender
              (Printf.sprintf "Send_sync %S targets machine %S, which is not in the system" ev
                 target)
        | Some (target_spec : Machine.spec) -> (
            let receivers =
              List.filter
                (fun (u : Machine.transition) ->
                  match u.Machine.trigger with
                  | Machine.On_sync n -> String.equal n ev
                  | _ -> false)
                target_spec.Machine.transitions
            in
            match receivers with
            | [] ->
                emit ~state:t.Machine.from_state ~transition:t.Machine.label Finding.Error "sync"
                  sender
                  (Printf.sprintf
                     "orphan Send_sync: %S has no On_sync receiver on machine %S — the message \
                      queues forever in the FIFO coupling"
                     ev target)
            | _ ->
                let target_r = report_of target in
                if not (List.exists (live_transition target_r) receivers) then
                  emit ~state:t.Machine.from_state ~transition:t.Machine.label Finding.Error
                    "sync" sender
                    (Printf.sprintf
                       "Send_sync %S: every On_sync receiver on machine %S is unreachable" ev
                       target)))
    sends;
  (* Receivers with no possible sender can never fire. *)
  List.iter
    (fun ((spec : Machine.spec), _) ->
      List.iter
        (fun (t : Machine.transition) ->
          match t.Machine.trigger with
          | Machine.On_sync ev ->
              let has_sender =
                List.exists
                  (fun (_, _, target, ev', live) ->
                    live && String.equal target spec.Machine.spec_name && String.equal ev' ev)
                  sends
              in
              if not has_sender then
                emit ~state:t.Machine.from_state ~transition:t.Machine.label Finding.Error "sync"
                  spec.Machine.spec_name
                  (Printf.sprintf "On_sync %S can never fire: no machine in the system sends it"
                     ev)
          | _ -> ())
        spec.Machine.transitions)
    machines;
  (* Send/receive cycles between machines can deadlock or grow the FIFO. *)
  let edges =
    List.sort_uniq compare
      (List.filter_map
         (fun (sender, _, target, _, live) ->
           if live && List.mem_assoc target by_name then Some (sender, target) else None)
         sends)
  in
  let rec reaches seen src dst =
    String.equal src dst
    || List.exists
         (fun (a, b) -> String.equal a src && (not (SS.mem b seen)) && reaches (SS.add b seen) b dst)
         edges
  in
  List.iter
    (fun (a, b) ->
      if (not (String.equal a b)) && String.compare a b < 0 && reaches SS.empty b a then
        emit Finding.Warning "sync" a
          (Printf.sprintf
             "sync cycle between machines %S and %S: the FIFO coupling can deadlock or grow \
              without bound"
             a b))
    edges;
  List.iter
    (fun (a, b) ->
      if String.equal a b then
        emit Finding.Warning "sync" a "machine sends sync events to itself (self-loop coupling)")
    edges;
  (* Cross-machine global dataflow. *)
  let global_writes_of (spec : Machine.spec) =
    List.concat_map
      (fun (t : Machine.transition) ->
        List.filter
          (fun (scope, _) -> scope = Efsm.Env.Global)
          (Ir.acts_writes t.Machine.syntax.Ir.acts))
      spec.Machine.transitions
  in
  let global_reads_of (spec : Machine.spec) =
    List.concat_map
      (fun (t : Machine.transition) ->
        let { Ir.guard; acts } = t.Machine.syntax in
        List.filter
          (fun (scope, _) -> scope = Efsm.Env.Global)
          (Ir.pred_vars guard @ Ir.acts_reads acts))
      spec.Machine.transitions
  in
  let writers = List.concat_map (fun (spec, _) -> global_writes_of spec) machines in
  let readers = List.concat_map (fun (spec, _) -> global_reads_of spec) machines in
  List.iter
    (fun ((spec : Machine.spec), _) ->
      List.iter
        (fun v ->
          if not (List.mem v writers) then
            emit Finding.Warning "globals" spec.Machine.spec_name
              (Printf.sprintf "reads global %s, which no machine in the system writes"
                 (Ir.var_to_string v)))
        (List.sort_uniq compare (global_reads_of spec)))
    machines;
  List.iter
    (fun v ->
      if not (List.mem v readers) then
        let writer =
          List.find
            (fun ((spec : Machine.spec), _) -> List.mem v (global_writes_of spec))
            machines
        in
        emit Finding.Warning "globals" (fst writer).Machine.spec_name
          (Printf.sprintf "writes global %s, which no machine in the system reads"
             (Ir.var_to_string v)))
    (List.sort_uniq compare writers);
  { machines = reports; system_findings = List.stable_sort Finding.compare (List.rev !findings) }
