type t = { display : string option; uri : Uri.t; params : (string * string option) list }

let make ?display ?(params = []) uri = { display; uri; params }

(* The header parameters after the URI that ends at [u]. *)
let params_after s u stop =
  match Scan.index s u stop ';' with -1 -> [] | semi -> Scan.params s (semi + 1) stop

(* The display name before '<', trimmed and unquoted. *)
let display s a lt =
  let b = Scan.trim_end s a lt in
  if a = b then None
  else if b - a >= 2 && s.[a] = '"' && s.[b - 1] = '"' then Some (Scan.sub s (a + 1) (b - 1))
  else Some (Scan.sub s a b)

let unmatched_lt = -1
let gt_before_lt = -2

(* The span of the URI, or a negative error code; the URI itself is not
   checked. *)
let uri_span s start stop =
  let a = Scan.skip_space s start stop in
  let b = Scan.trim_end s a stop in
  match Scan.index s a b '<' with
  | -1 ->
      (* Bare addr-spec: per RFC 3261 §20.10, parameters after the URI belong
         to the header, not the URI. *)
      Scan.span a (Scan.until s a b ';')
  | lt -> (
      match Scan.index s a b '>' with
      | -1 -> unmatched_lt
      | gt when gt < lt -> gt_before_lt
      | gt -> Scan.span (lt + 1) gt)

let host_span s start stop =
  let u = uri_span s start stop in
  if u < 0 then u else Uri.host_span s (Scan.span_start u) (Scan.span_stop u)

let tag_span s start stop =
  let u = uri_span s start stop in
  if u < 0 || Uri.host_span s (Scan.span_start u) (Scan.span_stop u) < 0 then -1
  else
    match Scan.index s (Scan.span_stop u) stop ';' with
    | -1 -> -1
    | semi -> Scan.param_value s (semi + 1) stop "tag"

let parse_range s start stop =
  let u = uri_span s start stop in
  if u = unmatched_lt then Error "name-addr: unmatched '<'"
  else if u = gt_before_lt then Error "name-addr: '>' before '<'"
  else
    let u_start = Scan.span_start u and u_stop = Scan.span_stop u in
    match Uri.parse_range s u_start u_stop with
    | Error e -> Error e
    | Ok uri ->
        let bracketed = u_stop < stop && s.[u_stop] = '>' in
        Ok
          {
            display =
              (if bracketed then display s (Scan.skip_space s start stop) (u_start - 1) else None);
            uri;
            params = params_after s u_stop stop;
          }

let parse s = parse_range s 0 (String.length s)

let to_string t =
  let buffer = Buffer.create 48 in
  (match t.display with
  | None -> ()
  | Some d ->
      Buffer.add_char buffer '"';
      Buffer.add_string buffer d;
      Buffer.add_string buffer "\" ");
  Buffer.add_char buffer '<';
  Buffer.add_string buffer (Uri.to_string t.uri);
  Buffer.add_char buffer '>';
  List.iter
    (fun (name, value) ->
      Buffer.add_char buffer ';';
      Buffer.add_string buffer name;
      match value with
      | None -> ()
      | Some v ->
          Buffer.add_char buffer '=';
          Buffer.add_string buffer v)
    t.params;
  Buffer.contents buffer

(* The first parameter's own option, so a lookup allocates nothing. *)
let rec value_of name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then v else value_of name rest

let tag t = value_of "tag" t.params

let with_tag t tag_value =
  let params = List.filter (fun (n, _) -> n <> "tag") t.params in
  { t with params = params @ [ ("tag", Some tag_value) ] }
