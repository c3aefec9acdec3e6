(* Reference model for the EFSM stepper: a machine as a spec and a state
   name, stepped the way [Efsm.Machine] stepped before specs were compiled
   into indexed programs.  Each step filters all of the spec's transitions
   for the current state and the event's trigger, runs every candidate's
   guard through the IR interpreter ([Ir.eval_pred], which reads through
   lets) and the one enabled action through [Ir.run_acts].  Variables are
   read and written by name.  [test_efsm_diff.ml] holds the compiled
   stepper to this model, step for step.

   Below it are the media-spam machine's host code from before its spec
   spelled it: the guard's stream-discontinuity test and the baseline
   update. *)

module M = Efsm.Machine
module E = Efsm.Event
module Env = Efsm.Env
module Ir = Efsm.Ir
module V = Efsm.Value

type t = {
  spec : M.spec;
  guards : (string * (Env.t -> E.t -> bool)) list; (* label -> host guard *)
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

(* [guards] maps a transition label to host code run in place of the
   transition's guard, [host] to host code run after its own actions. *)
let create ?(guards = []) ?(host = []) spec ~globals =
  {
    spec;
    guards;
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

let step t event =
  let guard_holds (tr : M.transition) env event =
    match List.assoc_opt tr.M.label t.guards with
    | Some host -> host env event
    | None -> Ir.eval_pred env event tr.M.syntax.Ir.guard
  in
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

let get_int env name = match Env.get env Env.Local name with V.Int n -> n | _ -> 0

(* The engine builds RTP events with int [seq], [ts] and [ssrc]. *)
let int_field event name =
  match E.get event (E.field name) with
  | V.Int n -> n
  | v -> invalid_arg (Printf.sprintf "RTP field %s is %s, not an int" name (V.to_string v))

(* [x] as a [bits]-bit two's-complement integer. *)
let wrap bits x =
  let shift = Sys.int_size - bits in
  (x lsl shift) asr shift

(* The paper's spam predicate as the host code that ran it before
   [media_spam.vspec] spelled it with lets:
   (x.time_stamp_{i+1} - v.time_stamp_i > Δt) or
   (x.sequence_number_{i+1} - v.sequence_number_i > Δn),
   extended with an SSRC identity check, a replay (deep reorder) check,
   and a talkspurt refinement: a packet whose sequence number is
   consecutive may jump further in timestamp, since silence suppression
   emits no packets while the media clock keeps running. *)
let is_spam (config : Vids.Config.t) env event =
  let ssrc_mismatch =
    not (V.equal (E.get event (E.field "ssrc")) (Env.get env Env.Local "l_ssrc"))
  in
  ssrc_mismatch
  ||
  let seq_jump = wrap 16 (int_field event "seq" - get_int env "l_sequence_number") in
  let ts_jump = wrap 32 (int_field event "ts" - get_int env "l_time_stamp") in
  let ts_limit =
    if seq_jump >= 1 && seq_jump <= 2 then config.Vids.Config.spam_silence_ts_gap
    else config.Vids.Config.spam_ts_gap
  in
  seq_jump > config.Vids.Config.spam_seq_gap
  || seq_jump < -config.Vids.Config.spam_reorder_tolerance
  || ts_jump > ts_limit
  || ts_jump < -(config.Vids.Config.spam_ts_gap * 4)

(* The media-spam machine's baseline update as the host code that ran
   it before [media_spam.vspec] spelled it as assignments: only a packet
   ahead of the baseline in sequence-number order moves it, so that
   reordered packets cannot drag it backwards, and every packet counts
   towards the rate window. *)
let advance_baseline env event =
  let get_int = get_int env in
  let seq = int_field event "seq" in
  let ts = int_field event "ts" in
  if Rtp.Rtp_packet.seq_delta (get_int "l_sequence_number") seq > 0 then begin
    Env.set env Env.Local "l_sequence_number" (V.Int seq);
    Env.set env Env.Local "l_time_stamp" (V.Int ts)
  end;
  Env.set env Env.Local "l_window_count" (V.Int (get_int "l_window_count" + 1))
