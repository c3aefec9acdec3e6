(* Reference model for the EFSM stepper: a machine as a spec and a state
   name, stepped the way [Efsm.Machine] stepped before specs were compiled
   into indexed programs.  Each step filters all of the spec's transitions
   for the current state and the event's trigger, runs every candidate's
   guard through the IR interpreter ([Ir.eval_pred], with a
   [Value.Type_error] counting as false) and the one enabled action
   through [Ir.run_acts].  Variables are read and written by name.
   [test_efsm_diff.ml] holds the compiled stepper to this model, step for
   step. *)

module M = Efsm.Machine
module E = Efsm.Event
module Env = Efsm.Env
module Ir = Efsm.Ir
module V = Efsm.Value

type t = {
  spec : M.spec;
  host : (string * (Env.t -> E.t -> unit)) list; (* label -> host action *)
  mutable state : string;
  env : Env.t;
  mutable trace : (Dsim.Time.t * string) list; (* newest first *)
  mutable trace_len : int;
}

(* Every local the spec's transitions mention, found from the syntax
   alone. *)
let locals spec =
  List.concat_map
    (fun (tr : M.transition) ->
      let { Ir.guard; acts } = tr.M.syntax in
      Ir.pred_vars guard @ Ir.acts_reads acts @ Ir.acts_writes acts)
    spec.M.transitions
  |> List.filter_map (function Env.Local, name -> Some name | Env.Global, _ -> None)

(* [host] maps a transition label to host code run after the
   transition's own actions. *)
let create ?(host = []) spec ~globals =
  {
    spec;
    host;
    state = spec.M.initial;
    env = Env.create (Env.layout (locals spec)) globals;
    trace = [];
    trace_len = 0;
  }

let hist_keep = 32

let trigger_matches trigger event =
  match (trigger, E.channel event) with
  | M.On_event n, _ -> String.equal n (E.name event)
  | M.On_channel proto, E.Data p -> String.equal proto p
  | M.On_channel _, (E.Sync _ | E.Timer) -> false
  | M.On_sync n, E.Sync _ -> String.equal n (E.name event)
  | M.On_sync _, (E.Data _ | E.Timer) -> false
  | M.On_timer id, E.Timer -> String.equal id (E.name event)
  | M.On_timer _, (E.Data _ | E.Sync _) -> false

let guard_holds (tr : M.transition) env event =
  try Ir.eval_pred env event tr.M.syntax.Ir.guard with Efsm.Value.Type_error _ -> false

let step t event =
  let candidates =
    List.filter
      (fun (tr : M.transition) ->
        String.equal tr.M.from_state t.state && trigger_matches tr.M.trigger event)
      t.spec.M.transitions
  in
  match List.filter (fun tr -> guard_holds tr t.env event) candidates with
  | [] -> M.Rejected
  | [ tr ] ->
      let effects = Ir.run_acts M.builders tr.M.syntax.Ir.acts t.env event in
      Option.iter (fun act -> act t.env event) (List.assoc_opt tr.M.label t.host);
      t.state <- tr.M.to_state;
      t.trace <- (E.at event, tr.M.label) :: t.trace;
      t.trace_len <- t.trace_len + 1;
      if t.trace_len > 2 * hist_keep then begin
        t.trace <- List.filteri (fun i _ -> i < hist_keep) t.trace;
        t.trace_len <- hist_keep
      end;
      M.Moved
        { transition = tr; effects; attack = List.assoc_opt tr.M.to_state t.spec.M.attack_states }
  | many -> M.Nondeterministic (List.map (fun (tr : M.transition) -> tr.M.label) many)

let trace t = List.rev t.trace
let configuration t = (t.state, Env.local_bindings t.env)

(* A snapshot's configuration, with its history oldest first. *)
let restore t ~state ~vars ~trace =
  t.state <- state;
  Env.reset_locals t.env;
  List.iter (fun (v, value) -> Env.set t.env Env.Local v value) vars;
  t.trace <- List.rev trace;
  t.trace_len <- List.length trace

let global_bindings t = Env.global_bindings t.env

(* The media-spam machine's baseline update as the host code that ran
   it before [media_spam.vspec] spelled it as assignments: only a packet
   ahead of the baseline in sequence-number order moves it, so that
   reordered packets cannot drag it backwards, and every packet counts
   towards the rate window. *)
let advance_baseline env event =
  let get_int name = match Env.get env Env.Local name with V.Int n -> n | _ -> 0 in
  let seq = V.as_int (E.get event (E.field "seq")) in
  let ts = V.as_int (E.get event (E.field "ts")) in
  if Rtp.Rtp_packet.seq_delta (get_int "l_sequence_number") seq > 0 then begin
    Env.set env Env.Local "l_sequence_number" (V.Int seq);
    Env.set env Env.Local "l_time_stamp" (V.Int ts)
  end;
  Env.set env Env.Local "l_window_count" (V.Int (get_int "l_window_count" + 1))
