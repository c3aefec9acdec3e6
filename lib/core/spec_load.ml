module E = Efsm.Event
module I = Efsm.Ir
module Env = Efsm.Env
module V = Efsm.Value

(* ------------------------------------------------------------------ *)
(* Host registry: the media-spam machine's extern and the params      *)
(* ------------------------------------------------------------------ *)

(* The media-spam machine's variables (media_spam.vspec) the extern
   reads. *)
let l_ssrc = "l_ssrc"
let l_seq = "l_sequence_number"
let l_ts = "l_time_stamp"
let local n = (Env.Local, n)
let get_int env name = match Env.get env Env.Local name with V.Int n -> n | _ -> 0

(* The paper's spam predicate:
   (x.time_stamp_{i+1} - v.time_stamp_i > Δt) or
   (x.sequence_number_{i+1} - v.sequence_number_i > Δn),
   extended with an SSRC identity check, a replay (deep reorder) check, and
   a talkspurt refinement: a packet whose sequence number is consecutive
   may jump further in timestamp (silence suppression emits no packets but
   the media clock keeps running — the paper's own codec settings enable
   SAD, which the raw rule would flag).  An injector cannot hide behind the
   refinement without giving up the sequence-number advance it needs for
   its packets to win the receiver's playout.

   The predicate stays an opaque escape hatch with declared reads: spelled
   in the IR, its compiled guard would evaluate both wraparound deltas
   in every comparison, once for [spam] and again for [in_order].  Sharing
   one [pred_name] between those two guards is what lets the solver still
   discharge their disjointness propositionally.  The deltas are the
   IR's own serial-number arithmetic ([Ir.wrap]) on native ints. *)
let is_spam config env event =
  let ssrc_mismatch =
    not (V.equal (E.get event Keys.Field.ssrc) (Env.get env Env.Local l_ssrc))
  in
  ssrc_mismatch
  ||
  let seq_jump = I.wrap 16 (V.as_int (E.get event Keys.Field.seq) - get_int env l_seq) in
  let ts_jump = I.wrap 32 (V.as_int (E.get event Keys.Field.ts) - get_int env l_ts) in
  let ts_limit =
    if seq_jump >= 1 && seq_jump <= 2 then config.Config.spam_silence_ts_gap
    else config.Config.spam_ts_gap
  in
  seq_jump > config.Config.spam_seq_gap
  || seq_jump < -config.Config.spam_reorder_tolerance
  || ts_jump > ts_limit
  || ts_jump < -(config.Config.spam_ts_gap * 4)

(* Each [param] a builtin declares is bound by name to the Config field
   of the same name. *)
let param config = function
  | "invite_flood_threshold" -> Some (Spec.Ast.P_int, config.Config.invite_flood_threshold)
  | "invite_flood_window" -> Some (Spec.Ast.P_duration, config.Config.invite_flood_window)
  | "rtp_flood_threshold" -> Some (Spec.Ast.P_int, config.Config.rtp_flood_threshold)
  | "rtp_flood_window" -> Some (Spec.Ast.P_duration, config.Config.rtp_flood_window)
  | "drdos_threshold" -> Some (Spec.Ast.P_int, config.Config.drdos_threshold)
  | "drdos_window" -> Some (Spec.Ast.P_duration, config.Config.drdos_window)
  | "bye_inflight_timer" -> Some (Spec.Ast.P_duration, config.Config.bye_inflight_timer)
  | _ -> None

let externs config =
  {
    Spec.Elaborate.find_pred =
      (function
      | "is_spam" ->
          Some
            {
              I.pred_name = "is_spam";
              pred_reads = [ local l_ssrc; local l_seq; local l_ts ];
              pred_fields = [ Keys.ssrc; Keys.seq; Keys.ts ];
              holds = (fun env event -> is_spam config env event);
            }
      | _ -> None);
    find_param = param config;
  }

(* ------------------------------------------------------------------ *)
(* The builtins: embedded sources, parsed and checked once             *)
(* ------------------------------------------------------------------ *)

type builtin = { key : string; source : string; ast : Spec.Ast.machine }

(* Parsed and checked at module initialisation, so that no engine pays
   for the AST; each engine elaborates its own specs from it under its
   config.  A builtin that does not parse or check stops every program
   at start-up. *)
let all =
  let sources =
    List.map (fun (base, src) -> ("lib/core/specs/" ^ base, src)) Builtin_specs.all
  in
  let reject file diags =
    failwith
      (String.concat "\n"
         (Printf.sprintf "%s: builtin machine spec rejected" file
         :: List.map (Spec.Diag.render ~source:(List.assoc file sources)) diags))
  in
  let parsed =
    List.map
      (fun (file, source) ->
        match Spec.Parser.parse ~file source with
        | [ ast ], [] ->
            let base = Filename.remove_extension (Filename.basename file) in
            (file, { key = String.map (function '_' -> '-' | c -> c) base; source; ast })
        | _, diags -> reject file diags)
      sources
  in
  let known_machines = List.map (fun (_, b) -> b.ast.Spec.Ast.m_name) parsed in
  List.iter
    (fun (file, b) ->
      match
        Spec.Check.machine ~known_machines ~externs:(externs Config.default) b.ast
      with
      | [] -> ()
      | diags -> reject file diags)
    parsed;
  List.map snd parsed

let known_machines = List.map (fun b -> b.ast.Spec.Ast.m_name) all

let sources = List.map (fun b -> (b.key, b.source)) all

let find name =
  List.find_opt (fun b -> String.equal b.key name || String.equal b.ast.Spec.Ast.m_name name) all

let source_for name = Option.map (fun b -> b.source) (find name)

let elaborate config b =
  let el = Spec.Elaborate.machine ~externs:(externs config) b.ast in
  (el.Spec.Elaborate.el_spec, el.Spec.Elaborate.el_vars)

let builtins config = List.map (fun b -> (b.key, elaborate config b)) all

let spec config name =
  match find name with
  | Some b -> fst (elaborate config b)
  | None -> invalid_arg ("Spec_load.spec: no builtin machine " ^ name)

(* ------------------------------------------------------------------ *)
(* Overrides                                                           *)
(* ------------------------------------------------------------------ *)

let load_files config paths =
  match
    Spec.Front_end.load_files ~known_machines ~externs:(externs config) paths
  with
  | Error e -> Error e
  | Ok (loaded, diags, sources) ->
      let unknown =
        List.filter
          (fun (l : Spec.Front_end.loaded) ->
            not (List.mem l.Spec.Front_end.l_name known_machines))
          loaded
      in
      if Spec.Diag.has_errors diags || unknown <> [] then
        let rendered =
          List.map
            (fun (d : Spec.Diag.t) ->
              let source =
                List.assoc_opt d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.file sources
              in
              Spec.Diag.render ?source d)
            diags
          @ List.map
              (fun (l : Spec.Front_end.loaded) ->
                Printf.sprintf
                  "%s: machine %s does not override a builtin (expected one of %s)"
                  l.Spec.Front_end.l_file l.Spec.Front_end.l_name
                  (String.concat ", " known_machines))
              unknown
        in
        Error (String.concat "\n" rendered)
      else
        Ok
          (List.map
             (fun (l : Spec.Front_end.loaded) ->
               (l.Spec.Front_end.l_name, l.Spec.Front_end.l_spec))
             loaded)
