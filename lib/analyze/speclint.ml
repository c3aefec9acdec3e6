type result = {
  loaded : Spec.Elaborate.elaborated list;
  diags : Spec.Diag.t list;
  report : Verifier.report;
  sources : (string * string) list;
}

let attach_spans loaded (report : Verifier.report) =
  let place (f : Finding.t) =
    match
      Spec.Front_end.span_for loaded ~machine:f.Finding.machine ~state:f.Finding.state
        ~transition:f.Finding.transition
    with
    | Some sp when not (Spec.Loc.is_dummy sp) -> Finding.with_span (Some sp) f
    | _ -> f
  in
  {
    Verifier.machines =
      List.map
        (fun (m : Verifier.machine_report) ->
          { m with Verifier.findings = List.map place m.Verifier.findings })
        report.Verifier.machines;
    system_findings = List.map place report.Verifier.system_findings;
  }

let lint_sources ?known_machines ~params sources =
  let loaded, diags = Spec.Front_end.load_sources ?known_machines ~params sources in
  let report =
    Verifier.verify_system
      (List.map
         (fun (el : Spec.Elaborate.elaborated) ->
           (el.Spec.Elaborate.el_spec, el.Spec.Elaborate.el_vars))
         loaded)
  in
  { loaded; diags; report = attach_spans loaded report; sources }

let lint_files ?known_machines ~params paths =
  Result.map (lint_sources ?known_machines ~params) (Spec.Front_end.read_files paths)

let ok r = r.diags = [] && not (Verifier.has_errors r.report)

let render_text r =
  let buffer = Buffer.create 1024 in
  List.iter
    (fun d ->
      let source = List.assoc_opt d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.file r.sources in
      Buffer.add_string buffer (Spec.Diag.render ?source d);
      Buffer.add_char buffer '\n')
    r.diags;
  if r.loaded <> [] then Buffer.add_string buffer (Report.render_text r.report);
  Buffer.contents buffer

let render_json r =
  Obs.Json.obj
    [
      ("diagnostics", Obs.Json.arr (List.map Spec.Diag.to_json r.diags));
      ("report", Report.render_json r.report);
      ("ok", Obs.Json.bool (ok r));
    ]
