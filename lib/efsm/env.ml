type scope = Local | Global

(* The global store holds SIP's three variables, so it is a short list of
   mutable cells rather than a hash table (the stdlib rounds every table up
   to 16 buckets, which dominated the per-call footprint).  Writing an
   existing name updates its cell in place; reads scan without
   allocating. *)
type cell = { name : string; mutable value : Value.t }
type globals = { mutable cells : cell list }

let globals () : globals = { cells = [] }

let rec lookup name = function
  | [] -> Value.Unset
  | c :: rest -> if String.equal c.name name then c.value else lookup name rest

let rec put s cells name value =
  match cells with
  | [] -> s.cells <- { name; value } :: s.cells
  | c :: rest -> if String.equal c.name name then c.value <- value else put s rest name value

(* A machine's locals live in one array, slot [i] for the [i]-th name of
   the layout.  Names are sorted, so walking the slots lists the bindings
   in name order.  A slot never written holds [absent], compared
   physically: [get] and the bindings never hand it out. *)
type layout = string array

let layout names = Array.of_list (List.sort_uniq String.compare names)

let rec find names name i =
  if i = Array.length names then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else find names name (i + 1)

let slot layout name = match find layout name 0 with -1 -> None | i -> Some i
let absent = Value.Str (Sys.opaque_identity "absent")

type t = { names : layout; values : Value.t array; shared : globals }

let create names shared = { names; values = Array.make (Array.length names) absent; shared }

let get_slot t i =
  let v = t.values.(i) in
  if v == absent then Value.Unset else v

let set_slot t i v = t.values.(i) <- v

let get t scope name =
  match scope with
  | Global -> lookup name t.shared.cells
  | Local -> ( match find t.names name 0 with -1 -> Value.Unset | i -> get_slot t i)

let set t scope name value =
  match scope with
  | Global -> put t.shared t.shared.cells name value
  | Local -> (
      match find t.names name 0 with
      | -1 -> invalid_arg (Printf.sprintf "Env.set: %S is not a local of this machine" name)
      | i -> set_slot t i value)

let local_bindings t =
  let acc = ref [] in
  for i = Array.length t.values - 1 downto 0 do
    let v = t.values.(i) in
    if v != absent then acc := (t.names.(i), v) :: !acc
  done;
  !acc

let bindings s =
  List.map (fun c -> (c.name, c.value)) s.cells
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let global_bindings t = bindings t.shared
let reset_locals t = Array.fill t.values 0 (Array.length t.values) absent
let globals_bindings (g : globals) = bindings g
let globals_put (g : globals) name value = put g g.cells name value

let value_bytes = function
  | Value.Int _ | Value.Bool _ -> 8
  | Value.Str s -> String.length s
  | Value.Addr (h, _) -> String.length h + 8
  | Value.Unset -> 0

let estimated_bytes t =
  let bytes = ref 0 in
  for i = 0 to Array.length t.values - 1 do
    let v = t.values.(i) in
    if v != absent then bytes := !bytes + String.length t.names.(i) + value_bytes v
  done;
  !bytes
