(* Tests for the .vspec front end: positioned diagnostics on malformed
   specs (one fixture per diagnostic class, and the param misuses), the
   parse/print round-trip property, the builtin sources in canonical form
   and bound to Config by their params, and digest transparency of
   DSL-loaded overrides. *)

module A = Spec.Ast
module P = Spec.Printer

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let sec = Dsim.Time.of_sec

(* ------------------------------------------------------------------ *)
(* Malformed specs: one fixture per diagnostic class                   *)
(* ------------------------------------------------------------------ *)

(* Each fixture seeds exactly one defect and asserts the diagnostic
   class plus the exact 1-based line:col the front end reports — the
   positions a user would click on.  [Speclint.ok = false] is what makes
   [vids-cli lint] exit nonzero. *)

(* A diagnostic's code, as [Diag.render] prints it: [… error[CODE]: …]. *)
let code_of d =
  let s = Spec.Diag.render d in
  let rec find i = if String.sub s i 6 = "error[" then i + 6 else find (i + 1) in
  let start = find 0 in
  String.sub s start (String.index_from s start ']' - start)

let lint_src ?(params = fun _ -> None) src =
  Analyze.Speclint.lint_sources ~params [ ("fixture.vspec", src) ]

let expect_error ?params ?message ~code ~line ~col src () =
  let r = lint_src ?params src in
  check "lint rejects" false (Analyze.Speclint.ok r);
  match r.Analyze.Speclint.diags with
  | [] -> Alcotest.fail "no diagnostics"
  | d :: _ ->
      check_str "diagnostic class" code (code_of d);
      check_str "file" "fixture.vspec" d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.file;
      check_int "line" line d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.line;
      check_int "col" col d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.col;
      Option.iter (fun m -> check_str "message" m d.Spec.Diag.message) message

(* An out-of-range number is an error at its own position, not a
   silently different number. *)
let lex_error () =
  expect_error ~code:"lex" ~line:3 ~col:3 "machine M {\n  initial A;\n  ?\n}\n" ();
  expect_error ~code:"lex" ~line:5 ~col:25
    "machine M {\n  var n : int;\n  initial A;\n  trans t : A -> A on event e\n    when int0(n) + 1 <= 99999999999999999999;\n}\n"
    ();
  expect_error ~code:"lex" ~line:4 ~col:22
    "machine M {\n  initial A;\n  trans t : A -> A on event e\n    do { set_timer t 9300000000000s; }\n  trans u : A -> A on timer t;\n}\n"
    ()

(* The second fixture is a let without its [=]. *)
let parse_error () =
  expect_error ~code:"parse" ~line:2 ~col:11 "machine M {\n  initial ;\n}\n" ();
  expect_error ~code:"parse" ~line:2 ~col:12 ~message:"expected '=', found integer 1"
    "machine M {\n  let next 1;\n  initial A;\n}\n" ()

(* Params: [limit] is bound to an int, [window] to a duration. *)
let host = function
  | "limit" -> Some (A.P_int, 5)
  | "window" -> Some (A.P_duration, 1_000_000)
  | _ -> None

(* The second fixture names a param in an attack description that is not
   one. *)
let unbound_var () =
  expect_error ~code:"unbound-var" ~line:4 ~col:10
    "machine M {\n  initial A;\n  trans t : A -> A on event e\n    when missing == 1;\n}\n"
    ();
  expect_error ~params:host ~code:"unbound-var" ~line:4 ~col:12
    "machine M {\n  param limit : int;\n  initial A;\n  attack B \"more than {limt} tries\";\n  trans t : A -> B on event e;\n}\n"
    ()

(* After the first fixture, each misuses a param: a duration as an
   integer operand, an int as a delay, a declared type the host binding
   does not have, an assignment. *)
let type_mismatch () =
  expect_error ~code:"type-mismatch" ~line:5 ~col:15
    "machine M {\n  var n : int;\n  initial A;\n  trans t : A -> A on event e\n    do { n := \"hello\"; }\n}\n"
    ();
  let fixture decls body =
    Printf.sprintf
      "machine M {\n%s  var n : int;\n  initial A;\n  trans t : A -> A on event e\n%s\n  trans u : A -> A on timer w;\n}\n"
      decls body
  in
  expect_error ~params:host ~code:"type-mismatch" ~line:6 ~col:24
    (fixture "  param window : duration;\n" "    when int0(n) + 1 > window;")
    ();
  expect_error ~params:host ~code:"type-mismatch" ~line:6 ~col:22
    (fixture "  param limit : int;\n" "    do { set_timer w limit; }")
    ();
  expect_error ~params:host ~code:"type-mismatch" ~line:2 ~col:3
    (fixture "  param limit : duration;\n" "    do { set_timer w limit; }")
    ();
  expect_error ~params:host ~code:"type-mismatch" ~line:6 ~col:10
    (fixture "  param limit : int;\n" "    do { limit := 1; }")
    ()

let dup_state =
  expect_error ~code:"dup-state" ~line:4 ~col:3
    "machine M {\n  initial A;\n  final B;\n  attack B \"boom\";\n}\n"

let unknown_sync =
  expect_error ~code:"unknown-sync" ~line:4 ~col:10
    "machine M {\n  initial A;\n  trans t : A -> A on event e\n    do { sync NOPE.go(); }\n}\n"

let param_unbound =
  expect_error ~code:"unknown-param" ~line:2 ~col:3
    "machine M {\n  param limit : int;\n  initial A;\n}\n"

(* A machine whose header declares [decls], with one transition on e;
   [body] is its guard or actions. *)
let let_fixture decls body =
  Printf.sprintf
    "machine M {\n  var n : int;\n%s  initial A;\n  trans t : A -> A on event e\n%s\n}\n" decls
    body

let let_declared_twice =
  expect_error ~code:"dup-label" ~line:3 ~col:3 ~message:"variable n is declared twice"
    (let_fixture "  let n = int0(n) + 1;\n" "    when n > 0;")

(* A let reads only the lets above it: a later one, or itself. *)
let let_read_early () =
  let message = "let b is not in scope: a let reads only the lets above it, an action none" in
  expect_error ~code:"unbound-var" ~line:3 ~col:11 ~message
    (let_fixture "  let a = b + 1;\n  let b = int0(n);\n" "    when a > 0;")
    ();
  expect_error ~code:"unbound-var" ~line:3 ~col:11 ~message
    (let_fixture "  let b = b + 1;\n" "    when b > 0;")
    ()

let let_read_in_action =
  expect_error ~code:"unbound-var" ~line:6 ~col:15
    ~message:"let next is not in scope: a let reads only the lets above it, an action none"
    (let_fixture "  let next = int0(n) + 1;\n" "    do { n := next; }")

(* A let is an integer or a predicate, and read as the one it is; like a
   param, it is read-only. *)
let let_wrong_kind () =
  expect_error ~code:"type-mismatch" ~line:3 ~col:14
    ~message:"let seen must be an integer expression or a predicate"
    (let_fixture "  let seen = $x;\n" "    when seen == 1;")
    ();
  expect_error ~code:"type-mismatch" ~line:6 ~col:10 ~message:"next is an integer, not a predicate"
    (let_fixture "  let next = int0(n) + 1;\n" "    when next;")
    ();
  expect_error ~code:"type-mismatch" ~line:6 ~col:10 ~message:"seen is a predicate, not an integer"
    (let_fixture "  let seen = has($x);\n" "    when seen > 0;")
    ();
  expect_error ~code:"type-mismatch" ~line:6 ~col:10
    (let_fixture "  let seen = has($x);\n" "    do { seen := 1; }")
    ()

(* Every diagnostic of a lint, in order, as [code line:col message]. *)
let diag_lines ?(params = fun _ -> None) ?known_machines sources =
  let r = Analyze.Speclint.lint_sources ?known_machines ~params sources in
  List.map
    (fun (d : Spec.Diag.t) ->
      Printf.sprintf "%s %d:%d %s" (code_of d)
        d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.line d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.col
        d.Spec.Diag.message)
    r.Analyze.Speclint.diags

let check_lines what expected got = Alcotest.(check (list string)) what expected got

(* A let that reads itself is out of scope, even after an ill-shaped let
   of the same name. *)
let let_reads_itself () =
  check_lines "diagnostics"
    [
      "dup-label 4:3 variable b is declared twice";
      "type-mismatch 3:11 let b must be an integer expression or a predicate";
      "unbound-var 4:22 let b is not in scope: a let reads only the lets above it, an action none";
    ]
    (diag_lines
       [ ("fixture.vspec", let_fixture "  let b = $y;\n  let b = has($z) && b;\n" "    when b;") ])

(* The whole list, not just its head: no defect is lost, duplicated or
   reordered.  The second fixture seeds its defects in the text as a
   transition, a let and a declaration; they are reported declarations
   first, then let bodies, then each guard and its actions. *)
let every_diagnostic_in_order () =
  let path = "../examples/specs/broken/bad_rtcp.vspec" in
  let source = In_channel.with_open_bin path In_channel.input_all in
  check_lines "bad_rtcp.vspec"
    [
      "unbound-var 15:10 undeclared variable missing";
      "type-mismatch 19:18 seen is declared int but assigned a string value";
      "unknown-sync 23:10 unknown sync target machine NOWHERE (known: DRDOS, INVITE_FLOOD, \
       MEDIA_SPAM, RTCP_WATCH, RTP, SIP)";
    ]
    (diag_lines ~known_machines:Vids.Spec_load.known_machines
       ~params:(Vids.Spec_load.params Vids.Config.default)
       [ (path, source) ]);
  check_lines "phase order"
    [
      "dup-state 9:3 initial state declared twice (already A)";
      "unknown-param 10:3 no host binding for param limit";
      "type-mismatch 7:11 let b must be an integer expression or a predicate";
      "unbound-var 4:10 undeclared variable missing";
      "unbound-var 4:26 undeclared variable other";
      "type-mismatch 5:15 n is declared int but assigned a string value";
      "unknown-sync 5:20 unknown sync target machine NOPE (known: M)";
    ]
    (diag_lines
       [
         ( "fixture.vspec",
           "machine M {\n\
           \  var n : int;\n\
           \  trans t : A -> A on event e\n\
           \    when missing == 1 && other == 2\n\
           \    do { n := \"x\"; sync NOPE.go(); }\n\
           \  initial A;\n\
           \  let b = $x;\n\
           \  final A;\n\
           \  initial B;\n\
           \  param limit : int;\n\
            }\n" );
       ])

(* A broken machine in a batch does not hide a clean one. *)
let batch_isolation () =
  let broken = "machine BAD {\n  initial ;\n}\n" in
  let clean = "machine OK {\n  initial A;\n  trans t : A -> A on event e;\n}\n" in
  let r =
    Analyze.Speclint.lint_sources ~params:(fun _ -> None)
      [ ("broken.vspec", broken); ("clean.vspec", clean) ]
  in
  check "batch still rejects" false (Analyze.Speclint.ok r);
  check_int "clean machine loads" 1 (List.length r.Analyze.Speclint.loaded);
  check_str "the clean one" "OK"
    (List.hd r.Analyze.Speclint.loaded).Spec.Elaborate.el_spec.Efsm.Machine.spec_name

(* Every later definition of a machine name is an error, wherever it is
   in the batch, and only the first definition loads. *)
let batch_duplicates () =
  let machine name = Printf.sprintf "machine %s {\n  initial S;\n  trans t : S -> S on event e;\n}\n" name in
  let loaded, diags =
    Spec.Front_end.load_sources ~params:(fun _ -> None)
      [ ("a.vspec", machine "A" ^ machine "A" ^ machine "B"); ("b.vspec", machine "B") ]
  in
  check_lines "one error per later definition"
    [ "dup-label a.vspec:5"; "dup-label b.vspec:1" ]
    (List.map
       (fun (d : Spec.Diag.t) ->
         Printf.sprintf "%s %s:%d" (code_of d) d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.file
           d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.line)
       diags);
  check_lines "first definitions loaded" [ "A"; "B" ]
    (List.map (fun el -> el.Spec.Elaborate.el_spec.Efsm.Machine.spec_name) loaded)

(* ------------------------------------------------------------------ *)
(* Round trip: parse . print = id                                      *)
(* ------------------------------------------------------------------ *)

(* Identifier pools avoid the contextual keywords (if, sync, in, do,
   when, true, ...) the grammar gives special meaning. *)
let var_pool = [ "x"; "y"; "count"; "rate"; "seen" ]
let state_pool = [ "IDLE"; "SETUP"; "UP"; "TEARDOWN"; "ALARM" ]
let label_pool = [ "go"; "stop"; "ring"; "drop"; "reset"; "t1" ]
let name_pool = [ "ping"; "pong"; "tick"; "media" ]
let machine_pool = [ "M0"; "M1"; "RTP" ]
let field_pool = [ "from"; "tag"; "seq" ]
let str_pool = [ ""; "a"; "b c"; "x\"y"; "line\nbreak"; "tab\there" ]
let param_pool = [ "limit"; "window" ]
let let_pool = [ "jump"; "burst" ]
let desc_pool = str_pool @ [ "more than {limit} in {window}"; "{limit}"; "{ not a param }" ]


(* The span of a generated node. *)
let dummy_span =
  let p = { Spec.Loc.file = "<none>"; line = 0; col = 0 } in
  { Spec.Loc.s = p; e = p }

let dexp e = { A.e; e_span = dummy_span }
let dact a = { A.a; a_span = dummy_span }

let lit_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> A.L_int n) (int_range (-5) 40);
        map (fun s -> A.L_str s) (oneofl str_pool);
        map (fun b -> A.L_bool b) bool;
        return A.L_unset;
      ])

let binop_gen =
  QCheck.Gen.oneofl
    [
      A.B_and; A.B_or; A.B_eq; A.B_ne; A.B_lt; A.B_le; A.B_gt; A.B_ge; A.B_ieq;
      A.B_ine; A.B_add; A.B_sub;
    ]

let rec exp_gen n =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (fun l -> dexp (A.Lit l)) lit_gen;
        map (fun v -> dexp (A.Ident v)) (oneofl (var_pool @ param_pool @ let_pool));
        map (fun f -> dexp (A.Fieldref f)) (oneofl field_pool);
      ]
  in
  if n = 0 then atom
  else
    frequency
      [
        (3, atom);
        (1, map (fun e -> dexp (A.Not e)) (exp_gen (n - 1)));
        ( 2,
          map3
            (fun op a b -> dexp (A.Bin (op, a, b)))
            binop_gen (exp_gen (n - 1)) (exp_gen (n - 1)) );
        ( 1,
          map2
            (fun e lits -> dexp (A.In_set (e, lits)))
            (exp_gen (n - 1))
            (list_size (int_range 1 3) lit_gen) );
        ( 1,
          map2
            (fun f args -> dexp (A.Call (f, args)))
            (oneofl [ "addr"; "host"; "int"; "int0"; "wrap16"; "wrap32"; "has"; "f" ])
            (list_size (int_range 0 2) (exp_gen (n - 1))) );
      ]

let rec act_gen n =
  let open QCheck.Gen in
  let base =
    oneof
      [
        map2 (fun v e -> dact (A.Assign (v, e))) (oneofl var_pool) (exp_gen 2);
        map3
          (fun target event args -> dact (A.Sync { target; event; args }))
          (oneofl machine_pool) (oneofl name_pool)
          (list_size (int_range 0 2) (pair (oneofl [ "k0"; "k1" ]) (exp_gen 1)));
        map2
          (fun id d -> dact (A.Set_timer (id, d)))
          (oneofl label_pool)
          (oneof
             [
               map
                 (fun us -> A.Delay_us us)
                 (oneofl [ 0; 7; 40_000; 250_000; 1_000_000; 10_000_000 ]);
               map (fun p -> A.Delay_param (p, dummy_span)) (oneofl param_pool);
             ]);
        map (fun id -> dact (A.Cancel_timer id)) (oneofl label_pool);
      ]
  in
  if n = 0 then base
  else
    frequency
      [
        (4, base);
        ( 1,
          map3
            (fun p t e -> dact (A.If (p, t, e)))
            (exp_gen 2)
            (list_size (int_range 0 2) (act_gen (n - 1)))
            (list_size (int_range 0 2) (act_gen (n - 1))) );
      ]

let ty_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ A.T_int; A.T_bool; A.T_str; A.T_addr ];
        map (fun l -> A.T_enum l) (list_size (int_range 1 3) lit_gen);
      ])

let item_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 1,
        map2
          (fun p_name p_ty -> A.I_param { p_name; p_ty; p_span = dummy_span })
          (oneofl param_pool)
          (oneofl [ A.P_int; A.P_duration ]) );
      ( 2,
        map3
          (fun v_name v_scope v_ty ->
            A.I_var { v_name; v_scope; v_ty; v_span = dummy_span })
          (oneofl var_pool)
          (oneofl [ A.S_local; A.S_global ])
          ty_gen );
      ( 1,
        map2
          (fun let_name let_body -> A.I_let { let_name; let_body; let_span = dummy_span })
          (oneofl let_pool) (exp_gen 2) );
      (1, map (fun s -> A.I_initial (s, dummy_span)) (oneofl state_pool));
      ( 1,
        map
          (fun ss -> A.I_final (List.map (fun s -> (s, dummy_span)) ss))
          (list_size (int_range 1 3) (oneofl state_pool)) );
      ( 1,
        map2
          (fun at_state at_desc ->
            A.I_attack
              { at_state; at_desc; at_span = dummy_span; at_desc_span = dummy_span })
          (oneofl state_pool) (oneofl desc_pool) );
      ( 3,
        map
          (fun ((t_label, (t_from, t_to)), ((kind, name), (t_guard, t_acts))) ->
            A.I_trans
              {
                A.t_label;
                t_from;
                t_to;
                t_trigger = (kind, name);
                t_guard;
                t_acts;
                t_span = dummy_span;
              })
          (pair
             (pair (oneofl label_pool) (pair (oneofl state_pool) (oneofl state_pool)))
             (pair
                (pair
                   (oneofl [ A.Tg_event; A.Tg_channel; A.Tg_sync; A.Tg_timer ])
                   (oneofl name_pool))
                (pair (opt (exp_gen 3)) (list_size (int_range 0 3) (act_gen 1))))) );
    ]

let file_gen =
  QCheck.Gen.(
    list_size (int_range 1 2)
      (map2
         (fun m_name m_items -> { A.m_name; m_items; m_span = dummy_span })
         (oneofl machine_pool)
         (list_size (int_range 0 6) item_gen)))

let round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"vspec: parse . print = id" ~count:300
       (QCheck.make ~print:P.print_file file_gen)
       (fun file ->
         let printed = P.print_file file in
         let parsed, diags = Spec.Parser.parse ~file:"gen.vspec" printed in
         diags = [] && A.equal_file file parsed))

(* The front end reports, never raises, on whatever a generated file
   declares, and each diagnostic points into that file. *)
let front_end_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"vspec: front end is total" ~count:300
       (QCheck.make ~print:P.print_file file_gen)
       (fun file ->
         let printed = P.print_file file in
         let lines = Array.of_list (String.split_on_char '\n' printed) in
         let _, diags = Spec.Front_end.load_sources ~params:host [ ("gen.vspec", printed) ] in
         List.for_all
           (fun (d : Spec.Diag.t) ->
             let { Spec.Loc.file; line; col } = d.Spec.Diag.span.Spec.Loc.s in
             file = "gen.vspec" && line >= 1 && line <= Array.length lines && col >= 1
             && col <= String.length lines.(line - 1) + 1)
           diags))

(* ------------------------------------------------------------------ *)
(* The builtin specs                                                    *)
(* ------------------------------------------------------------------ *)

let spec_files = [ "sip_call"; "rtp_call"; "invite_flood"; "media_spam"; "drdos" ]

let spec_path base = Printf.sprintf "../lib/core/specs/%s.vspec" base

(* The embedded sources are the only definition of the builtins, kept in
   the canonical form the printer emits. *)
let builtin_sources_canonical () =
  check_int "five builtins" 5 (List.length Vids.Spec_load.sources);
  List.iter
    (fun (key, src) ->
      let parsed, diags = Spec.Parser.parse ~file:key src in
      check (key ^ " parses clean") true (diags = []);
      check_str (key ^ " is canonical") src (P.print_file parsed))
    Vids.Spec_load.sources

(* What a config can change in an elaborated spec: its attack
   descriptions, and its guards and actions (the lets and timer delays
   in them). *)
let fingerprint (spec : Efsm.Machine.spec) =
  ( List.map snd spec.Efsm.Machine.attack_states,
    List.map
      (fun (t : Efsm.Machine.transition) -> t.Efsm.Machine.syntax)
      spec.Efsm.Machine.transitions )

(* Each of the eleven Config fields a param binds changes the builtin
   that reads it, and only that one. *)
let params_bind_config () =
  let module C = Vids.Config in
  let d = C.default in
  let print config = List.map (fun (key, (spec, _)) -> (key, fingerprint spec)) (Vids.Spec_load.builtins config) in
  let base = print d in
  List.iter
    (fun (field, reader, config) ->
      List.iter
        (fun (key, fp) ->
          check
            (Printf.sprintf "%s %s %s" field
               (if key = reader then "changes" else "leaves")
               key)
            (key = reader)
            (fp <> List.assoc key base))
        (print config))
    [
      ("invite_flood_threshold", "invite-flood", { d with C.invite_flood_threshold = 7 });
      ("invite_flood_window", "invite-flood", { d with C.invite_flood_window = 2_000_000 });
      ("rtp_flood_threshold", "media-spam", { d with C.rtp_flood_threshold = 151 });
      ("rtp_flood_window", "media-spam", { d with C.rtp_flood_window = 2_000_000 });
      ("spam_seq_gap", "media-spam", { d with C.spam_seq_gap = 51 });
      ("spam_reorder_tolerance", "media-spam", { d with C.spam_reorder_tolerance = 9 });
      ("spam_ts_gap", "media-spam", { d with C.spam_ts_gap = 4001 });
      ("spam_silence_ts_gap", "media-spam", { d with C.spam_silence_ts_gap = 480_001 });
      ("drdos_threshold", "drdos", { d with C.drdos_threshold = 31 });
      ("drdos_window", "drdos", { d with C.drdos_window = 20_000_000 });
      ("bye_inflight_timer", "rtp-call", { d with C.bye_inflight_timer = 300_000 });
    ];
  let description key state =
    List.assoc state (Vids.Spec_load.spec d key).Efsm.Machine.attack_states
  in
  check_str "invite flood" "more than 6 INVITEs within the window"
    (description "invite-flood" Vids.Keys.st_invite_flood);
  check_str "rtp flood" "more than 150 RTP packets per window on one stream"
    (description "media-spam" Vids.Keys.st_rtp_flood);
  check_str "drdos" "more than 30 unsolicited SIP responses within the window"
    (description "drdos" Vids.Keys.st_drdos)

let examples_lint_clean () =
  let files = List.map spec_path spec_files in
  match
    Analyze.Speclint.lint_files ~known_machines:Vids.Spec_load.known_machines
      ~params:(Vids.Spec_load.params Vids.Config.default)
      files
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check "examples lint clean" true (Analyze.Speclint.ok r);
      check_int "all five load" 5 (List.length r.Analyze.Speclint.loaded);
      (* Verifier findings on loaded specs point back into the source. *)
      let findings = Analyze.Verifier.all_findings r.Analyze.Speclint.report in
      check "findings carry source spans" true
        (List.exists (fun f -> f.Analyze.Finding.span <> None) findings);
      check "rendered findings name the file" true
        (List.exists
           (fun f ->
             match f.Analyze.Finding.span with
             | Some sp ->
                 Filename.check_suffix sp.Spec.Loc.s.Spec.Loc.file ".vspec"
             | None -> false)
           findings)

(* ------------------------------------------------------------------ *)
(* Digest transparency of DSL-loaded overrides                         *)
(* ------------------------------------------------------------------ *)

(* The same goldens as test_analyze's digest_transparency: running the
   full eight-attack scenario with all five machines loaded from
   [.vspec] text must reproduce the builtin engine bit for bit. *)
let golden_alert_digest = "5042aef8b47acb330344d71f93363369"
let golden_engine_digest = "2c0697a823b6fd8e149cdfd513a0242a"

let dsl_digest_transparency () =
  let module T = Voip.Testbed in
  let overrides =
    match
      Vids.Spec_load.load_files Vids.Config.default
        (List.map spec_path spec_files)
    with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  check_int "five overrides" 5 (List.length overrides);
  let tb = T.make ~seed:42 ~vids:T.Monitor ~overrides () in
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  Attack.Scenarios.schedule atk ~on_unknown:Alcotest.fail Attack.Scenarios.names;
  let horizon = sec (40.0 +. (25.0 *. float_of_int (List.length Attack.Scenarios.names))) in
  T.run_until tb horizon;
  let engine = T.engine_exn tb in
  let lines =
    List.map
      (fun (a : Vids.Alert.t) ->
        Printf.sprintf "%s|%s|%d|%s|%s"
          (Vids.Alert.kind_to_string a.Vids.Alert.kind)
          (Vids.Alert.severity_to_string a.Vids.Alert.severity)
          (Dsim.Time.to_us a.Vids.Alert.at) a.Vids.Alert.subject a.Vids.Alert.detail)
      (Vids.Engine.alerts engine)
  in
  check_int "all eight attacks alerted" 8 (List.length lines);
  check_str "alert digest matches the builtins" golden_alert_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)));
  check_str "engine digest matches the builtins" golden_engine_digest
    (Digest.to_hex (Digest.string (Vids.Snapshot.digest ~at:horizon engine)))

let suite =
  [
    ( "spec.diagnostics",
      [
        tc "lex error positioned" lex_error;
        tc "parse error positioned" parse_error;
        tc "unbound variable positioned" unbound_var;
        tc "type mismatch positioned" type_mismatch;
        tc "duplicate state positioned" dup_state;
        tc "unknown sync target positioned" unknown_sync;
        tc "param without host binding positioned" param_unbound;
        tc "let declared twice positioned" let_declared_twice;
        tc "let read before its declaration positioned" let_read_early;
        tc "let read in an action positioned" let_read_in_action;
        tc "let of the wrong kind positioned" let_wrong_kind;
        tc "let that reads itself positioned" let_reads_itself;
        tc "every diagnostic, in order" every_diagnostic_in_order;
        tc "broken file does not hide clean one" batch_isolation;
        tc "every duplicate machine reported, first one loaded" batch_duplicates;
      ] );
    ("spec.roundtrip", [ round_trip; front_end_total ]);
    ( "spec.examples",
      [
        tc "builtin sources are canonical" builtin_sources_canonical;
        tc "examples lint clean with spans" examples_lint_clean;
        tc "params bind the Config fields" params_bind_config;
      ] );
    ( "spec.digest",
      [
        Alcotest.test_case "DSL overrides are digest-transparent" `Slow
          dsl_digest_transparency;
      ] );
  ]
