type loaded = {
  l_file : string;
  l_name : string;
  l_spec : Efsm.Machine.spec;
  l_vars : Efsm.Ir.decl list;
  l_state_spans : (string * Loc.span) list;
  l_trans_spans : (string * Loc.span) list;
}

let load_sources ?(known_machines = []) ~params sources =
  let parsed =
    List.map (fun (file, src) -> (file, Parser.parse ~file src)) sources
  in
  let parse_diags = List.concat_map (fun (_, (_, ds)) -> ds) parsed in
  let all_machines = List.concat_map (fun (_, (ms, _)) -> ms) parsed in
  let known =
    List.sort_uniq String.compare
      (known_machines @ List.map (fun m -> m.Ast.m_name) all_machines)
  in
  (* Check per machine so a broken one does not block its batch. *)
  let loaded, check_diags =
    List.fold_left
      (fun (loaded, diags) (file, (machines, _)) ->
        List.fold_left
          (fun (loaded, diags) m ->
            let ds = Check.machine ~known_machines:known ~params m in
            if Diag.has_errors ds then (loaded, diags @ ds)
            else
              let el = Elaborate.machine ~params m in
              match Efsm.Machine.validate_spec el.Elaborate.el_spec with
              | Error msg ->
                  ( loaded,
                    diags @ ds
                    @ [
                        Diag.error Diag.Structure m.Ast.m_span
                          (Printf.sprintf "invalid machine %s: %s" m.Ast.m_name msg);
                      ] )
              | Ok () ->
                  ( loaded
                    @ [
                        {
                          l_file = file;
                          l_name = el.Elaborate.el_spec.Efsm.Machine.spec_name;
                          l_spec = el.Elaborate.el_spec;
                          l_vars = el.Elaborate.el_vars;
                          l_state_spans = el.Elaborate.el_state_spans;
                          l_trans_spans = el.Elaborate.el_trans_spans;
                        };
                      ],
                    diags @ ds ))
          (loaded, diags) machines)
      ([], []) parsed
  in
  (* Duplicate machine names across the whole batch. *)
  let dup_diags =
    let seen = Hashtbl.create 4 in
    List.filter_map
      (fun (_, (machines, _)) ->
        let rec dups = function
          | [] -> None
          | m :: rest ->
              if Hashtbl.mem seen m.Ast.m_name then
                Some
                  (Diag.error Diag.Dup_label m.Ast.m_span
                     (Printf.sprintf "machine %s is defined twice in this batch"
                        m.Ast.m_name))
              else begin
                Hashtbl.add seen m.Ast.m_name ();
                dups rest
              end
        in
        dups machines)
      parsed
  in
  (loaded, parse_diags @ dup_diags @ check_diags)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s

let load_files ?known_machines ~params paths =
  let rec read acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
        match read_file path with
        | Error e -> Error (Printf.sprintf "%s: %s" path e)
        | Ok src -> read ((path, src) :: acc) rest)
  in
  match read [] paths with
  | Error _ as e -> e
  | Ok sources ->
      let loaded, diags = load_sources ?known_machines ~params sources in
      Ok (loaded, diags, sources)

let span_for loaded ~machine ~state ~transition =
  match List.find_opt (fun l -> String.equal l.l_name machine) loaded with
  | None -> None
  | Some l -> (
      let first_label compound =
        match String.split_on_char '/' compound with lbl :: _ -> lbl | [] -> compound
      in
      match transition with
      | Some t -> (
          match List.assoc_opt (first_label t) l.l_trans_spans with
          | Some sp -> Some sp
          | None -> Option.bind state (fun s -> List.assoc_opt s l.l_state_spans))
      | None -> Option.bind state (fun s -> List.assoc_opt s l.l_state_spans))
