type scope = Local | Global

(* A machine touches a handful of variables, so a store is a short list of
   mutable cells rather than a hash table (the stdlib rounds every table up
   to 16 buckets, which dominated the per-call footprint).  Writing an
   existing name updates its cell in place; reads scan without
   allocating. *)
type cell = { name : string; mutable value : Value.t }
type store = { mutable cells : cell list }
type globals = store

let globals () : globals = { cells = [] }

type t = { locals : store; shared : globals }

let create shared = { locals = { cells = [] }; shared }
let store t = function Local -> t.locals | Global -> t.shared

let rec lookup name = function
  | [] -> Value.Unset
  | c :: rest -> if String.equal c.name name then c.value else lookup name rest

let rec put s cells name value =
  match cells with
  | [] -> s.cells <- { name; value } :: s.cells
  | c :: rest -> if String.equal c.name name then c.value <- value else put s rest name value

let get t scope name = lookup name (store t scope).cells

let set t scope name value =
  let s = store t scope in
  put s s.cells name value

let mem t scope name = List.exists (fun c -> String.equal c.name name) (store t scope).cells

let bindings s =
  List.map (fun c -> (c.name, c.value)) s.cells
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let local_bindings t = bindings t.locals
let global_bindings t = bindings t.shared
let reset_locals t = t.locals.cells <- []
let globals_bindings (g : globals) = bindings g
let globals_put (g : globals) name value = put g g.cells name value

let value_bytes = function
  | Value.Int _ | Value.Bool _ | Value.Float _ -> 8
  | Value.Str s -> String.length s
  | Value.Addr (h, _) -> String.length h + 8
  | Value.Unset -> 0

let estimated_bytes t =
  List.fold_left (fun acc c -> acc + String.length c.name + value_bytes c.value) 0 t.locals.cells
