type t = (string * string) list

let empty = []

(* The canonical spelling of each known field; a name matches one when
   they are equal ignoring case. *)
let known_names =
  [|
    "Via";
    "From";
    "To";
    "Call-ID";
    "CSeq";
    "Contact";
    "Content-Type";
    "Content-Length";
    "Max-Forwards";
    "Content-Encoding";
    "Route";
    "Record-Route";
    "Expires";
    "User-Agent";
    "Server";
    "Allow";
    "Supported";
    "Require";
    "Subject";
    "Authorization";
    "WWW-Authenticate";
    "Proxy-Authorization";
    "Warning";
    "Timestamp";
    "Organization";
    "Priority";
    "Retry-After";
    "Min-Expires";
    "Event";
    "Refer-To";
    "RAck";
    "RSeq";
  |]

(* RFC 3261 §7.3.3 compact forms. *)
let compact = function
  | 'v' -> "Via"
  | 'f' -> "From"
  | 't' -> "To"
  | 'i' -> "Call-ID"
  | 'm' -> "Contact"
  | 'c' -> "Content-Type"
  | 'l' -> "Content-Length"
  | 'e' -> "Content-Encoding"
  | 's' -> "Subject"
  | 'k' -> "Supported"
  | _ -> ""

let rec known s start stop i =
  if i = Array.length known_names then -1
  else
    let name = known_names.(i) in
    if String.length name = stop - start && Scan.equal_ci_at s start stop name 0 then i
    else known s start stop (i + 1)

let slot s start stop =
  if stop - start <> 1 then known s start stop 0
  else
    match compact (Char.lowercase_ascii s.[start]) with
    | "" -> -1
    | name -> known name 0 (String.length name) 0

let slot_name i = known_names.(i)

(* Title-case each '-'-separated word: "x-custom-header" -> "X-Custom-Header". *)
let title_case s =
  String.split_on_char '-' s
  |> List.map (fun word ->
         if word = "" then ""
         else
           String.make 1 (Char.uppercase_ascii word.[0])
           ^ String.lowercase_ascii (String.sub word 1 (String.length word - 1)))
  |> String.concat "-"

(* Compact and known names come from the tables without allocating. *)
let canonical_slice s start stop =
  match slot s start stop with
  | -1 -> title_case (String.lowercase_ascii (Scan.sub s start stop))
  | i -> known_names.(i)

let canonical_name name = canonical_slice name 0 (String.length name)

let add t name value = t @ [ (canonical_name name, value) ]
let add_first t name value = (canonical_name name, value) :: t

let same name (field, _) = String.equal field name

let rec find name = function
  | [] -> None
  | (field, value) :: rest -> if String.equal field name then Some value else find name rest

let get t name = find (canonical_name name) t
let get_canonical t name = find name t

let rec nth name n = function
  | [] -> None
  | (field, value) :: rest ->
      if not (String.equal field name) then nth name n rest
      else if n = 0 then Some value
      else nth name (n - 1) rest

let find_slot t slot n = nth known_names.(slot) n t
let of_list t = t

(* The trimmed, non-empty items of [s.[start .. stop-1]], consed onto [acc]
   last first. *)
let rec items s start stop acc =
  let e = Scan.item_end s start stop in
  let a = Scan.skip_space s start e in
  let b = Scan.trim_end s a e in
  let acc = if a < b then Scan.sub s a b :: acc else acc in
  if e < stop then items s (e + 1) stop acc else acc

let rec all_items name acc = function
  | [] -> List.rev acc
  | (field, v) :: rest ->
      let acc = if String.equal field name then items v 0 (String.length v) acc else acc in
      all_items name acc rest

let get_all t name = all_items (canonical_name name) [] t

let remove t name =
  let name = canonical_name name in
  List.filter (fun f -> not (same name f)) t

let set t name value = remove t name @ [ (canonical_name name, value) ]

let remove_first t name =
  let name = canonical_name name in
  let rec drop = function
    | [] -> []
    | field :: rest -> if same name field then rest else field :: drop rest
  in
  drop t

let fold f t init = List.fold_left (fun acc (name, value) -> f name value acc) init t
let to_list t = t
