let load_sources ?(known_machines = []) ~params sources =
  let parsed = List.map (fun (file, src) -> Parser.parse ~file src) sources in
  let machines = List.concat_map fst parsed in
  let known =
    List.sort_uniq String.compare
      (known_machines @ List.map (fun m -> m.Ast.m_name) machines)
  in
  (* A name defined again later in the batch is reported at each later
     definition; only its first definition is elaborated. *)
  let seen = Hashtbl.create 4 in
  let firsts, dup_diags =
    List.fold_left
      (fun (firsts, diags) m ->
        if Hashtbl.mem seen m.Ast.m_name then
          ( firsts,
            Diag.error Diag.Dup_label m.Ast.m_span
              (Printf.sprintf "machine %s is defined twice in this batch" m.Ast.m_name)
            :: diags )
        else begin
          Hashtbl.add seen m.Ast.m_name ();
          (m :: firsts, diags)
        end)
      ([], []) machines
  in
  (* Elaborate per machine so a broken one does not block its batch. *)
  let loaded, elab_diags =
    List.fold_left
      (fun (loaded, diags) m ->
        match Elaborate.machine ~known_machines:known ~params m with
        | Error ds -> (loaded, diags @ ds)
        | Ok el -> (
            match Efsm.Machine.validate_spec el.Elaborate.el_spec with
            | Error msg ->
                ( loaded,
                  diags
                  @ [
                      Diag.error Diag.Structure m.Ast.m_span
                        (Printf.sprintf "invalid machine %s: %s" m.Ast.m_name msg);
                    ] )
            | Ok () -> (loaded @ [ el ], diags)))
      ([], []) (List.rev firsts)
  in
  (loaded, List.concat_map snd parsed @ List.rev dup_diags @ elab_diags)

let read_files paths =
  let rec read acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error e -> Error (Printf.sprintf "%s: %s" path e)
        | src -> read ((path, src) :: acc) rest)
  in
  read [] paths

let span_for loaded ~machine ~state ~transition =
  match
    List.find_opt
      (fun el -> String.equal el.Elaborate.el_spec.Efsm.Machine.spec_name machine)
      loaded
  with
  | None -> None
  | Some el -> (
      let first_label compound =
        match String.split_on_char '/' compound with lbl :: _ -> lbl | [] -> compound
      in
      match transition with
      | Some t -> (
          match List.assoc_opt (first_label t) el.Elaborate.el_trans_spans with
          | Some sp -> Some sp
          | None -> Option.bind state (fun s -> List.assoc_opt s el.Elaborate.el_state_spans))
      | None -> Option.bind state (fun s -> List.assoc_opt s el.Elaborate.el_state_spans))
