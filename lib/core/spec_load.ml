(* ------------------------------------------------------------------ *)
(* Host bindings: every param                                          *)
(* ------------------------------------------------------------------ *)

(* Each [param] a builtin declares is bound by name to the Config field
   of the same name. *)
let params config = function
  | "invite_flood_threshold" -> Some (Spec.Ast.P_int, config.Config.invite_flood_threshold)
  | "invite_flood_window" -> Some (Spec.Ast.P_duration, config.Config.invite_flood_window)
  | "rtp_flood_threshold" -> Some (Spec.Ast.P_int, config.Config.rtp_flood_threshold)
  | "rtp_flood_window" -> Some (Spec.Ast.P_duration, config.Config.rtp_flood_window)
  | "spam_seq_gap" -> Some (Spec.Ast.P_int, config.Config.spam_seq_gap)
  | "spam_reorder_tolerance" -> Some (Spec.Ast.P_int, config.Config.spam_reorder_tolerance)
  | "spam_ts_gap" -> Some (Spec.Ast.P_int, config.Config.spam_ts_gap)
  | "spam_silence_ts_gap" -> Some (Spec.Ast.P_int, config.Config.spam_silence_ts_gap)
  | "drdos_threshold" -> Some (Spec.Ast.P_int, config.Config.drdos_threshold)
  | "drdos_window" -> Some (Spec.Ast.P_duration, config.Config.drdos_window)
  | "bye_inflight_timer" -> Some (Spec.Ast.P_duration, config.Config.bye_inflight_timer)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The builtins: embedded sources, parsed and checked once             *)
(* ------------------------------------------------------------------ *)

type builtin = { key : string; source : string; ast : Spec.Ast.machine }

(* Parsed at module initialisation, and checked by elaborating it under
   [Config.default], so that no engine pays for the AST; each engine
   elaborates its own specs from it under its config.  A builtin that
   does not parse or elaborate stops every program at start-up. *)
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
        Spec.Elaborate.machine ~known_machines ~params:(params Config.default) b.ast
      with
      | Ok _ -> ()
      | Error diags -> reject file diags)
    parsed;
  List.map snd parsed

let known_machines = List.map (fun b -> b.ast.Spec.Ast.m_name) all

let sources = List.map (fun b -> (b.key, b.source)) all

let find name =
  List.find_opt (fun b -> String.equal b.key name || String.equal b.ast.Spec.Ast.m_name name) all

let source_for name = Option.map (fun b -> b.source) (find name)

(* Start-up elaborated every builtin under [Config.default], and a config
   changes a param's value, never its type: this cannot fail. *)
let elaborate config b =
  match Spec.Elaborate.machine ~known_machines ~params:(params config) b.ast with
  | Ok el -> (el.Spec.Elaborate.el_spec, el.Spec.Elaborate.el_vars)
  | Error _ -> assert false

let builtins config = List.map (fun b -> (b.key, elaborate config b)) all

let spec config name =
  match find name with
  | Some b -> fst (elaborate config b)
  | None -> invalid_arg ("Spec_load.spec: no builtin machine " ^ name)

(* ------------------------------------------------------------------ *)
(* Overrides                                                           *)
(* ------------------------------------------------------------------ *)

let load_files config paths =
  match Spec.Front_end.read_files paths with
  | Error e -> Error e
  | Ok sources ->
      let loaded, diags =
        Spec.Front_end.load_sources ~known_machines ~params:(params config) sources
      in
      let name (el : Spec.Elaborate.elaborated) =
        el.Spec.Elaborate.el_spec.Efsm.Machine.spec_name
      in
      let unknown = List.filter (fun el -> not (List.mem (name el) known_machines)) loaded in
      if diags <> [] || unknown <> [] then
        let rendered =
          List.map
            (fun (d : Spec.Diag.t) ->
              let source =
                List.assoc_opt d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.file sources
              in
              Spec.Diag.render ?source d)
            diags
          @ List.map
              (fun el ->
                Printf.sprintf
                  "%s: machine %s does not override a builtin (expected one of %s)"
                  el.Spec.Elaborate.el_file (name el)
                  (String.concat ", " known_machines))
              unknown
        in
        Error (String.concat "\n" rendered)
      else Ok (List.map (fun el -> (name el, el.Spec.Elaborate.el_spec)) loaded)
