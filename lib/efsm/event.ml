type channel = Data of string | Sync of { from_machine : string } | Timer

(* ------------------------------------------------------------------ *)
(* The field registry                                                   *)
(* ------------------------------------------------------------------ *)

type field = int

let slots : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref (Array.make 32 "")

let field name =
  match Hashtbl.find_opt slots name with
  | Some f -> f
  | None ->
      let f = Hashtbl.length slots in
      if f = Array.length !names then
        names := Array.append !names (Array.make (Array.length !names) "");
      !names.(f) <- name;
      Hashtbl.add slots name f;
      f

let field_name f = !names.(f)

(* ------------------------------------------------------------------ *)
(* Events                                                               *)
(* ------------------------------------------------------------------ *)

(* An absent slot holds this value, compared physically: it is allocated
   here, and [get] and [args] never hand it out, so no value a caller
   stores can be it. *)
let absent = Value.Str (Sys.opaque_identity "absent")

type t = { name : string; channel : channel; at : Dsim.Time.t; values : Value.t array }

let make ?(args = []) channel ~at name =
  match args with
  | [] -> { name; channel; at; values = [||] }
  | _ :: _ ->
      let args = List.map (fun (k, v) -> (field k, v)) args in
      let width = List.fold_left (fun w (f, _) -> max w (f + 1)) 0 args in
      let values = Array.make width absent in
      List.iter (fun (f, v) -> if values.(f) == absent then values.(f) <- v) args;
      { name; channel; at; values }

let blank channel ~at ~last name = { name; channel; at; values = Array.make (last + 1) absent }
let set t f v = t.values.(f) <- v
let rename t name = { t with name }
let name t = t.name
let channel t = t.channel
let at t = t.at

let get t f =
  if f < Array.length t.values then
    let v = Array.unsafe_get t.values f in
    if v == absent then Value.Unset else v
  else Value.Unset

let has t f = f < Array.length t.values && Array.unsafe_get t.values f != absent

let args t =
  let acc = ref [] in
  for f = Array.length t.values - 1 downto 0 do
    let v = t.values.(f) in
    if v != absent then acc := (field_name f, v) :: !acc
  done;
  !acc
