(* Exporters: Prometheus text exposition + JSONL.  See export.mli. *)

let prom_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels)
      ^ "}"

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

(* le="…" values must be identical across exports for series continuity;
   %.17g of the shared bucket bounds is stable. *)
let le_values =
  lazy (Array.map (fun b -> Printf.sprintf "%.17g" b) Metrics.bucket_bounds)

let prometheus (snap : Metrics.snapshot) =
  let buf = Buffer.create 4096 in
  let last_header = ref "" in
  let header name help typ =
    if !last_header <> name then begin
      last_header := name;
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)
    end
  in
  List.iter
    (fun (r : Metrics.row) ->
      match r.value with
      | Metrics.Counter n ->
          header r.name r.help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" r.name (prom_labels r.labels) n)
      | Metrics.Gauge g ->
          header r.name r.help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" r.name (prom_labels r.labels) (prom_float g))
      | Metrics.Histogram h ->
          header r.name r.help "histogram";
          let les = Lazy.force le_values in
          let cum = ref 0 in
          Array.iteri
            (fun i le ->
              cum := !cum + h.Metrics.buckets.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" r.name
                   (prom_labels (r.labels @ [ ("le", le) ]))
                   !cum))
            les;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" r.name
               (prom_labels (r.labels @ [ ("le", "+Inf") ]))
               h.Metrics.count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" r.name (prom_labels r.labels)
               (prom_float h.Metrics.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" r.name (prom_labels r.labels)
               h.Metrics.count);
          if h.Metrics.count > 0 then
            List.iter
              (fun (q, p) ->
                Buffer.add_string buf
                  (Printf.sprintf "%s_quantile%s %s\n" r.name
                     (prom_labels (r.labels @ [ ("quantile", q) ]))
                     (prom_float (Dsim.Stat.Quantiles.quantile h.Metrics.quantiles p))))
              [ ("0.5", 50.0); ("0.95", 95.0); ("0.99", 99.0) ])
    snap.rows;
  Buffer.contents buf

let row_json (r : Metrics.row) =
  let labels = Json.obj (List.map (fun (k, v) -> (k, Json.quote v)) r.labels) in
  let base = [ ("name", Json.quote r.name); ("labels", labels) ] in
  let value =
    match r.value with
    | Metrics.Counter n -> [ ("type", Json.quote "counter"); ("value", Json.int n) ]
    | Metrics.Gauge g -> [ ("type", Json.quote "gauge"); ("value", Json.float g) ]
    | Metrics.Histogram h ->
        [ ("type", Json.quote "histogram");
          ("count", Json.int h.Metrics.count);
          ("sum", Json.float h.Metrics.sum);
          ("buckets", Json.arr (Array.to_list (Array.map Json.int h.Metrics.buckets)));
          ("p50", Json.float (Dsim.Stat.Quantiles.p50 h.Metrics.quantiles));
          ("p95", Json.float (Dsim.Stat.Quantiles.p95 h.Metrics.quantiles));
          ("p99", Json.float (Dsim.Stat.Quantiles.p99 h.Metrics.quantiles)) ]
  in
  Json.obj (base @ value)

let metrics_jsonl (snap : Metrics.snapshot) =
  String.concat "" (List.map (fun r -> row_json r ^ "\n") snap.rows)

let trace_jsonl ?reason entries =
  let buf = Buffer.create 1024 in
  (match reason with
  | Some reason ->
      Buffer.add_string buf
        (Json.obj [ ("type", Json.quote "dump"); ("reason", Json.quote reason) ]);
      Buffer.add_char buf '\n'
  | None -> ());
  List.iter
    (fun e ->
      Buffer.add_string buf (Trace.entry_to_json e);
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let write_metrics ~path snap =
  let body =
    if has_suffix path ".json" || has_suffix path ".jsonl" then metrics_jsonl snap
    else prometheus snap
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc body)

let append_trace ?reason ~path entries =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (trace_jsonl ?reason entries))
