(* The export check: every value a lib/ interface exports must be called
   from another compilation unit, and one that only test/ calls must say
   why it is exported.

   It reads the typed trees dune leaves in the build directory, so run it
   from the repository root after `dune build @check`:

   - each `val` in a `.cmti` under _build/default/lib, nested modules
     included, is an export;
   - each `.cmt` under _build/default (tools/ excepted) is a referring
     unit, of the program when it is built from lib/, bin/, bench/ or
     examples/, and of the tests when it is built from test/.  A unit
     refers to an export by naming it (an identifier in an expression) or
     by passing its module to a functor, which refers to the values the
     functor's parameter takes.

   `Lib.Mod` and `Lib__Mod` name the same module, and a path through
   `module X = Y` or `let module X = Y in` is read as the path through Y.

   An export fails when no unit but its own refers to it, or when only
   tests do and its doc comment does not begin with "Test oracle:" or
   "Test seam:" followed by the reason.  One whose doc comment says so
   fails when the program calls it.  Every test-only export is listed
   with the units that call it.

   Usage: exports.exe
   Exit codes: 0 clean, 1 a failing export, 2 no build tree. *)

let build = "_build/default"

(* "Sip__Header" -> ["Sip"; "Header"]; dune's alias module "Sdp__" ->
   ["Sdp"]. *)
let split_unit name =
  let n = String.length name in
  let rec go acc start i =
    if i >= n - 1 then List.rev (String.sub name start (n - start) :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' then
      go (String.sub name start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  List.filter (fun s -> s <> "") (go [] 0 0)

let rec files_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.concat_map (fun name ->
             let path = Filename.concat dir name in
             if Sys.is_directory path then files_under path else [ path ])

(* ---- Exports ---- *)

type export = {
  name : string;  (** canonical path, "Dsim.Stat.Summary.add" *)
  unit_name : string;  (** canonical unit, "Dsim.Stat" *)
  file : string;
  line : int;
  tag : bool;  (** its doc comment gives a test-only reason *)
}

let doc_strings attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match (a.attr_name.txt, a.attr_payload) with
      | ( "ocaml.doc",
          PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ) ->
          Some (String.trim s)
      | _ -> None)
    attrs

let tagged attrs =
  List.exists
    (fun doc ->
      String.starts_with ~prefix:"Test oracle:" doc
      || String.starts_with ~prefix:"Test seam:" doc)
    (doc_strings attrs)

let exports : (string, export) Hashtbl.t = Hashtbl.create 1024

(* Module path -> its runtime components in order, [Some v] for value
   [v], so that a functor's coercion of an argument names the values it
   takes. *)
let layouts : (string, string option array) Hashtbl.t = Hashtbl.create 256

let layout (sg : Types.signature) =
  List.filter_map
    (function
      | Types.Sig_value (id, { val_kind = Val_reg; _ }, _) ->
          Some (Some (Ident.name id))
      | Sig_typext _ | Sig_module (_, Mp_present, _, _, _) | Sig_class _ ->
          Some None
      | _ -> None)
    sg
  |> Array.of_list

let rec add_signature ~unit_name prefix (sg : Typedtree.signature) =
  Hashtbl.replace layouts (String.concat "." prefix) (layout sg.sig_type);
  List.iter
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = String.concat "." (prefix @ [ vd.val_name.txt ]) in
          let pos = vd.val_loc.loc_start in
          Hashtbl.replace exports name
            {
              name;
              unit_name;
              file = pos.pos_fname;
              line = pos.pos_lnum;
              tag = tagged vd.val_attributes;
            }
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg'; _ }; _ } ->
          add_signature ~unit_name (prefix @ [ m ]) sg'
      | _ -> ())
    sg.sig_items

let read_interface path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.cmt_annots with
  | Interface sg ->
      let prefix = split_unit cmt.cmt_modname in
      add_signature ~unit_name:(String.concat "." prefix) prefix sg
  | _ -> ()

(* ---- References ---- *)

type side = Program | Tests

(* Global aliases, "Sdp.Payload_type" -> ["Sdp"; "Payload_type"]. *)
let aliases : (string, string list) Hashtbl.t = Hashtbl.create 256

type ref_ = { unit_ : string; source : string; side : side }

(* export name -> each reference to it *)
let refs : (string, ref_) Hashtbl.t = Hashtbl.create 4096

let rec resolve depth segs =
  let rec try_prefix n =
    if n = 0 then segs
    else
      let prefix = List.filteri (fun i _ -> i < n) segs in
      match Hashtbl.find_opt aliases (String.concat "." prefix) with
      | Some target when target <> prefix && depth < 16 ->
          resolve (depth + 1) (target @ List.filteri (fun i _ -> i >= n) segs)
      | _ -> try_prefix (n - 1)
  in
  try_prefix (List.length segs)

let read_implementation ~side path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.cmt_annots with
  | Implementation str ->
      let unit_segs = split_unit cmt.cmt_modname in
      let unit_name = String.concat "." unit_segs in
      let locals : (string, Path.t) Hashtbl.t = Hashtbl.create 16 in
      let rec segs : Path.t -> string list = function
        | Pident id -> (
            match Hashtbl.find_opt locals (Ident.unique_name id) with
            | Some p -> segs p
            | None when Ident.persistent id -> split_unit (Ident.name id)
            | None -> [ "." ^ Ident.unique_name id ])
        | Pdot (p, s) -> segs p @ [ s ]
        | Papply (p, _) | Pextra_ty (p, _) -> segs p @ [ "()" ]
      in
      let source = Option.value cmt.cmt_sourcefile ~default:unit_name in
      let refer name = Hashtbl.add refs name { unit_ = unit_name; source; side } in
      let refer_module path coercion =
        let m = String.concat "." (resolve 0 (segs path)) in
        match Hashtbl.find_opt layouts m with
        | None -> ()
        | Some slots -> (
            let value i =
              match slots.(i) with Some v -> refer (m ^ "." ^ v) | None -> ()
            in
            match (coercion : Typedtree.module_coercion) with
            | Tcoerce_structure (kept, _) -> List.iter (fun (i, _) -> value i) kept
            | _ -> Array.iteri (fun i _ -> value i) slots)
      in
      let rec alias_of (me : Typedtree.module_expr) =
        match me.mod_desc with
        | Tmod_ident (p, _) -> Some p
        | Tmod_constraint (me, _, _, _) -> alias_of me
        | _ -> None
      in
      let bind ~top id me =
        match (id, alias_of me) with
        | Some id, Some p ->
            Hashtbl.replace locals (Ident.unique_name id) p;
            if top then
              Hashtbl.replace aliases
                (String.concat "." (unit_segs @ [ Ident.name id ]))
                (segs p);
            true
        | _ -> false
      in
      let open Tast_iterator in
      let super = default_iterator in
      let depth = ref 0 in
      let it =
        {
          super with
          expr =
            (fun self e ->
              match e.exp_desc with
              | Texp_ident (p, _, _) ->
                  refer (String.concat "." (resolve 0 (segs p)))
              | Texp_letmodule (id, _, _, me, body) ->
                  if bind ~top:false id me then self.expr self body
                  else super.expr self e
              | _ -> super.expr self e);
          module_binding =
            (fun self mb ->
              if not (bind ~top:(!depth = 0) mb.mb_id mb.mb_expr) then (
                incr depth;
                super.module_binding self mb;
                decr depth));
          module_expr =
            (fun self me ->
              match me.mod_desc with
              | Tmod_apply (f, arg, coercion) -> (
                  self.module_expr self f;
                  match alias_of arg with
                  | Some p -> refer_module p coercion
                  | None -> self.module_expr self arg)
              | Tmod_ident (p, _) -> refer_module p Tcoerce_none
              | _ -> super.module_expr self me);
          (* [open M] refers to nothing by itself. *)
          open_declaration = (fun _ _ -> ());
        }
      in
      it.structure it str
  | _ -> ()

(* ---- Report ---- *)

let () =
  if not (Sys.file_exists build) then (
    prerr_endline "exports: no _build/default; run `dune build @check` first";
    exit 2);
  let files = files_under build in
  let has ext f = Filename.check_suffix f ext in
  (* An executable's typed tree is written only by `dune build @check`;
     without it, the program's calls from bin/ would go unseen. *)
  List.iter
    (fun f ->
      if has ".cmti" f && not (Sys.file_exists (Filename.remove_extension f ^ ".cmt"))
      then (
        Printf.eprintf "exports: %s has no .cmt; run `dune build @check` first\n" f;
        exit 2))
    files;
  List.iter read_interface
    (List.filter (has ".cmti") (files_under (Filename.concat build "lib")));
  let side f =
    match String.split_on_char '/' f with
    | _ :: _ :: "tools" :: _ -> None
    | _ :: _ :: "test" :: _ -> Some Tests
    | _ -> Some Program
  in
  let implementations =
    List.filter_map
      (fun f -> if has ".cmt" f then Option.map (fun s -> (s, f)) (side f) else None)
      files
  in
  (* Two passes: the first collects every unit's top-level aliases. *)
  List.iter (fun (side, f) -> read_implementation ~side f) implementations;
  Hashtbl.reset refs;
  List.iter (fun (side, f) -> read_implementation ~side f) implementations;
  let sorted =
    Hashtbl.fold (fun _ e acc -> e :: acc) exports []
    |> List.sort (fun a b -> compare (a.file, a.line, a.name) (b.file, b.line, b.name))
  in
  let program = ref 0 and test_only = ref 0 and own = ref 0 and failed = ref 0 in
  let fail e why =
    incr failed;
    Printf.printf "%s:%d: %s: %s\n" e.file e.line e.name why
  in
  List.iter
    (fun e ->
      let others =
        List.filter (fun r -> r.unit_ <> e.unit_name) (Hashtbl.find_all refs e.name)
      in
      if List.exists (fun r -> r.side = Program) others then (
        incr program;
        if e.tag then fail e "the program calls it, but its doc comment says only tests do")
      else if others <> [] then (
        incr test_only;
        let callers =
          List.sort_uniq compare (List.map (fun r -> r.source) others) |> String.concat ", "
        in
        if e.tag then Printf.printf "%s:%d: %s: test-only (%s)\n" e.file e.line e.name callers
        else
          fail e
            (Printf.sprintf
               "only tests call it (%s), and its doc comment gives no \"Test oracle:\" or \"Test seam:\" reason"
               callers))
      else (
        incr own;
        fail e "no other unit calls it"))
    sorted;
  Printf.printf
    "%d exports: %d called by the program, %d by tests only, %d by no other unit\n"
    (List.length sorted) !program !test_only !own;
  if !failed > 0 then exit 1
