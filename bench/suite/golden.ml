(* Golden files: [bench/suite/golden/<workload>.seed<N>], one
   "<scale> <key> <value>" line per fact, where scale is [full] or
   [smoke].  A run compares the lines for its own scale and, on any
   difference, prints every computed line so that a change of behaviour
   made on purpose can paste them in; there is no regeneration flag. *)

let path ~workload ~seed =
  Filename.concat "bench/suite/golden" (Printf.sprintf "%s.seed%d" workload seed)

type outcome = Match | No_golden | Mismatch of string list  (** The keys that differ. *)

let render ~scale computed = List.map (fun (k, v) -> Printf.sprintf "%s %s %s" scale k v) computed

let check ~workload ~seed ~scale computed =
  let p = path ~workload ~seed in
  let expected =
    if not (Sys.file_exists p) then []
    else
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | s :: k :: v when String.equal s scale -> Some (k, String.concat " " v)
          | _ -> None)
        (String.split_on_char '\n' (In_channel.with_open_bin p In_channel.input_all))
  in
  if expected = [] then No_golden
  else
    let keys = List.sort_uniq String.compare (List.map fst expected @ List.map fst computed) in
    match List.filter (fun k -> List.assoc_opt k expected <> List.assoc_opt k computed) keys with
    | [] -> Match
    | differ -> Mismatch differ
