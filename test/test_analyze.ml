(* The static spec verifier: deliberately broken fixtures per pass, the
   shipped specs verifying clean, compiled-vs-interpreted IR equivalence,
   and digest transparency of the IR migration. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

module M = Efsm.Machine
module I = Efsm.Ir
module Env = Efsm.Env
module V = Efsm.Value
module Verifier = Analyze.Verifier
module Finding = Analyze.Finding

let sec = Dsim.Time.of_sec

let contains msg grep =
  let n = String.length grep in
  let rec at i = i + n <= String.length msg && (String.sub msg i n = grep || at (i + 1)) in
  at 0

let has_error_in ~pass ~grep findings =
  List.exists
    (fun (f : Finding.t) ->
      f.Finding.severity = Finding.Error
      && String.equal f.Finding.pass pass
      && contains f.Finding.message grep)
    findings

(* ------------------------------------------------------------------ *)
(* Broken fixtures: each verifier pass must flag its planted defect     *)
(* ------------------------------------------------------------------ *)

let field_n = I.Int_of (I.Field "n")

(* Two guards on the same (state, trigger) that both hold for n in 5..10. *)
let nondeterministic_fixture () =
  let spec =
    {
      M.spec_name = "FIX_NONDET";
      initial = "S0";
      finals = [ "S1" ];
      attack_states = [];
      transitions =
        [
          M.ir_transition ~label:"low" ~from_state:"S0" (M.On_event "e") ~to_state:"S1"
            ~guard:(I.Cmp (I.Le, field_n, I.Int_const 10))
            ();
          M.ir_transition ~label:"high" ~from_state:"S0" (M.On_event "e") ~to_state:"S1"
            ~guard:(I.Cmp (I.Ge, field_n, I.Int_const 5))
            ();
        ];
    }
  in
  let r = Verifier.verify_spec spec in
  check_bool "nondeterminism found" true
    (has_error_in ~pass:"determinism" ~grep:"not disjoint" r.Verifier.findings);
  check_bool "not discharged" false r.Verifier.determinism_discharged;
  check_int "one pair checked" 1 r.Verifier.pairs_checked

(* A δ message nobody receives: the FIFO coupling would grow forever. *)
let orphan_sync_fixture () =
  let sender =
    {
      M.spec_name = "FIX_A";
      initial = "S0";
      finals = [ "S1" ];
      attack_states = [];
      transitions =
        [
          M.ir_transition ~label:"send" ~from_state:"S0" (M.On_event "e") ~to_state:"S1"
            ~acts:[ I.Send_sync { target = "FIX_B"; event_name = "delta_x"; args = [] } ]
            ();
        ];
    }
  in
  let receiver =
    {
      M.spec_name = "FIX_B";
      initial = "S0";
      finals = [ "S1" ];
      attack_states = [];
      transitions =
        [ M.ir_transition ~label:"go" ~from_state:"S0" (M.On_event "f") ~to_state:"S1" () ];
    }
  in
  let report = Verifier.verify_system [ (sender, []); (receiver, []) ] in
  check_bool "orphan send found" true
    (has_error_in ~pass:"sync" ~grep:"orphan Send_sync" report.Verifier.system_findings);
  (* Same send with a live receiver is clean. *)
  let receiver_ok =
    {
      receiver with
      M.transitions =
        receiver.M.transitions
        @ [ M.ir_transition ~label:"recv" ~from_state:"S0" (M.On_sync "delta_x") ~to_state:"S1" () ];
    }
  in
  let report = Verifier.verify_system [ (sender, []); (receiver_ok, []) ] in
  check_bool "live receiver accepted" false (Verifier.has_errors report)

(* A guard reads a local variable no transition ever assigns. *)
let uninitialized_read_fixture () =
  let spec =
    {
      M.spec_name = "FIX_UNINIT";
      initial = "S0";
      finals = [ "S1" ];
      attack_states = [];
      transitions =
        [
          M.ir_transition ~label:"go" ~from_state:"S0" (M.On_event "e") ~to_state:"S1"
            ~guard:(I.Eq (I.Var (Env.Local, "l_ghost"), I.Const (V.Str "x")))
            ();
        ];
    }
  in
  let r = Verifier.verify_spec spec in
  check_bool "uninitialized read found" true
    (has_error_in ~pass:"variables" ~grep:"before any assignment" r.Verifier.findings)

(* Set_timer with no On_timer expiry transition anywhere. *)
let dangling_timer_fixture () =
  let spec =
    {
      M.spec_name = "FIX_TIMER";
      initial = "S0";
      finals = [ "S1" ];
      attack_states = [];
      transitions =
        [
          M.ir_transition ~label:"arm" ~from_state:"S0" (M.On_event "e") ~to_state:"S1"
            ~acts:[ I.Set_timer { id = "T_void"; delay = sec 1.0 } ]
            ();
        ];
    }
  in
  let r = Verifier.verify_spec spec in
  check_bool "dangling timer found" true
    (has_error_in ~pass:"timers" ~grep:"fires into the void" r.Verifier.findings)

(* An attack state only its own self-loop mentions: no path can enter it,
   so the pattern it encodes can never raise an alert. *)
let unreachable_attack_fixture () =
  let spec =
    {
      M.spec_name = "FIX_UNREACH";
      initial = "S0";
      finals = [ "S1" ];
      attack_states = [ ("ATK", "planted but unreachable") ];
      transitions =
        [
          M.ir_transition ~label:"go" ~from_state:"S0" (M.On_event "e") ~to_state:"S1" ();
          M.ir_transition ~label:"atk_more" ~from_state:"ATK" (M.On_event "e") ~to_state:"ATK" ();
        ];
    }
  in
  let r = Verifier.verify_spec spec in
  check_bool "unreachable attack found" true
    (has_error_in ~pass:"reachability" ~grep:"attack state is unreachable" r.Verifier.findings)

(* A guard that can never hold prunes its transition, and the pruning is
   itself an error finding. *)
let unsat_guard_fixture () =
  let spec =
    {
      M.spec_name = "FIX_UNSAT";
      initial = "S0";
      finals = [ "S1" ];
      attack_states = [];
      transitions =
        [
          M.ir_transition ~label:"go" ~from_state:"S0" (M.On_event "e") ~to_state:"S1" ();
          M.ir_transition ~label:"never" ~from_state:"S0" (M.On_event "e") ~to_state:"S1"
            ~guard:
              (I.And
                 [
                   I.Cmp (I.Le, field_n, I.Int_const 3); I.Cmp (I.Ge, field_n, I.Int_const 7);
                 ])
            ();
        ];
    }
  in
  let r = Verifier.verify_spec spec in
  check_bool "unsatisfiable guard found" true
    (has_error_in ~pass:"reachability" ~grep:"unsatisfiable" r.Verifier.findings);
  check_bool "transition pruned" true (List.mem "never" r.Verifier.pruned_transitions);
  (* The contradictory pair is vacuously disjoint once pruned. *)
  check_bool "determinism still discharged" true r.Verifier.determinism_discharged

(* ------------------------------------------------------------------ *)
(* validate_spec structural gaps                                        *)
(* ------------------------------------------------------------------ *)

let base_struct =
  {
    M.spec_name = "FIX_STRUCT";
    initial = "S0";
    finals = [ "S1" ];
    attack_states = [];
    transitions =
      [ M.ir_transition ~label:"go" ~from_state:"S0" (M.On_event "e") ~to_state:"S1" () ];
  }

let expect_invalid name spec =
  match M.validate_spec spec with
  | Ok () -> Alcotest.failf "%s: expected validate_spec to reject" name
  | Error _ -> ()

let validate_gaps () =
  (match M.validate_spec base_struct with
  | Ok () -> ()
  | Error e -> Alcotest.failf "base fixture should be valid: %s" e);
  expect_invalid "final attack state"
    { base_struct with M.attack_states = [ ("S1", "also final") ] };
  expect_invalid "empty alert description"
    {
      base_struct with
      M.attack_states = [ ("ATK", "  ") ];
      transitions =
        base_struct.M.transitions
        @ [ M.ir_transition ~label:"atk" ~from_state:"S0" (M.On_event "x") ~to_state:"ATK" () ];
    };
  expect_invalid "orphan from_state"
    {
      base_struct with
      M.transitions =
        base_struct.M.transitions
        @ [ M.ir_transition ~label:"typo" ~from_state:"NOWHERE" (M.On_event "x") ~to_state:"S1" () ];
    };
  expect_invalid "orphan to_state"
    {
      base_struct with
      M.transitions =
        base_struct.M.transitions
        @ [ M.ir_transition ~label:"typo" ~from_state:"S0" (M.On_event "x") ~to_state:"NOWHERE" () ];
    }

(* ------------------------------------------------------------------ *)
(* The shipped specifications verify clean                              *)
(* ------------------------------------------------------------------ *)

let shipped_systems () =
  let builtin key = List.assoc key (Vids.Spec_load.builtins Vids.Config.default) in
  [
    ("call", [ builtin "sip-call"; builtin "rtp-call" ]);
    ("invite-flood", [ builtin "invite-flood" ]);
    ("media-spam", [ builtin "media-spam" ]);
    ("drdos", [ builtin "drdos" ]);
  ]

let shipped_specs_clean () =
  List.iter
    (fun (name, sys) ->
      let report = Verifier.verify_system sys in
      List.iter
        (fun (m : Verifier.machine_report) ->
          check_bool
            (Printf.sprintf "%s/%s: zero error findings" name m.Verifier.spec_name)
            true
            (Verifier.machine_errors m = []);
          check_bool
            (Printf.sprintf "%s/%s: determinism statically discharged" name m.Verifier.spec_name)
            true m.Verifier.determinism_discharged)
        report.Verifier.machines;
      check_bool
        (Printf.sprintf "%s: no system-level errors" name)
        true
        (not (Verifier.has_errors report)))
    (shipped_systems ())

let shipped_report_renders () =
  let report = Verifier.verify_system (List.assoc "call" (shipped_systems ())) in
  let text = Analyze.Report.render_text report in
  check_bool "text mentions discharge" true (contains text "statically discharged");
  let json = Analyze.Report.render_json report in
  check_bool "json has machines" true (contains json "\"machines\"");
  check_bool "json error count is zero" true (contains json "\"errors\": 0");
  let sip = Vids.Spec_load.spec Vids.Config.default Vids.Keys.sip_machine in
  let dot = Analyze.Report.render_dot report sip in
  check_bool "dot is a digraph" true (contains dot "digraph")

(* ------------------------------------------------------------------ *)
(* Compiled IR ≡ reference interpreter (qcheck)                         *)
(* ------------------------------------------------------------------ *)

let q ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let vars_pool = [ (Env.Local, "va"); (Env.Local, "vb"); (Env.Global, "vg") ]
let fields_pool = [ "fa"; "fb"; "fc" ]

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> V.Int n) (int_range (-3) 6);
        map (fun s -> V.Str s) (oneofl [ "x"; "y"; "h1" ]);
        map (fun b -> V.Bool b) bool;
        map2 (fun h p -> V.Addr (h, p)) (oneofl [ "h1"; "h2" ]) (int_range 1 3);
        return V.Unset;
      ])

(* A let named after its body, so that one name never stands for two. *)
let named body = "l" ^ String.sub (Digest.to_hex (Digest.string (Marshal.to_string body []))) 0 8

let rec expr_gen n =
  let open QCheck.Gen in
  let base =
    [
      map (fun v -> I.Const v) value_gen;
      map (fun v -> I.Var v) (oneofl vars_pool);
      map (fun f -> I.Field f) (oneofl fields_pool);
    ]
  in
  if n = 0 then oneof base
  else
    oneof
      (base
      @ [
          map2 (fun a b -> I.Mk_addr (a, b)) (expr_gen (n - 1)) (expr_gen (n - 1));
          map (fun a -> I.Addr_host a) (expr_gen (n - 1));
          map (fun a -> I.Of_int a) (iexpr_gen (n - 1));
          map (fun p -> I.Of_pred p) (pred_gen (n - 1));
        ])

and iexpr_gen n =
  let open QCheck.Gen in
  let base = [ map (fun c -> I.Int_const c) (int_range (-4) 8) ] in
  if n = 0 then oneof base
  else
    oneof
      (base
      @ [
          map (fun e -> I.Int_of e) (expr_gen (n - 1));
          map (fun e -> I.Int_or0 e) (expr_gen (n - 1));
          map2 (fun a b -> I.Add (a, b)) (iexpr_gen (n - 1)) (iexpr_gen (n - 1));
          map2 (fun a b -> I.Sub (a, b)) (iexpr_gen (n - 1)) (iexpr_gen (n - 1));
          map2 (fun bits a -> I.Wrap (bits, a)) (oneofl [ 2; 16; 32 ]) (iexpr_gen (n - 1));
          map (fun a -> I.Int_let (named a, a)) (iexpr_gen (n - 1));
        ])

and pred_gen n =
  let open QCheck.Gen in
  let cmp_gen = oneofl [ I.Lt; I.Le; I.Gt; I.Ge; I.Ieq; I.Ine ] in
  let base =
    [
      return I.True;
      return I.False;
      map2 (fun a b -> I.Eq (a, b)) (expr_gen 0) (expr_gen 0);
      map2 (fun e vs -> I.Member (e, vs)) (expr_gen 0) (list_size (int_range 0 3) value_gen);
      map (fun f -> I.Has_field f) (oneofl fields_pool);
    ]
  in
  if n = 0 then oneof base
  else
    oneof
      (base
      @ [
          map (fun p -> I.Not p) (pred_gen (n - 1));
          map (fun ps -> I.And ps) (list_size (int_range 0 3) (pred_gen (n - 1)));
          map (fun ps -> I.Or ps) (list_size (int_range 0 3) (pred_gen (n - 1)));
          map2 (fun a b -> I.Eq (a, b)) (expr_gen (n - 1)) (expr_gen (n - 1));
          map3 (fun c a b -> I.Cmp (c, a, b)) cmp_gen (iexpr_gen (n - 1)) (iexpr_gen (n - 1));
          map (fun p -> I.Pred_let (named p, p)) (pred_gen (n - 1));
        ])

let rec act_gen n =
  let open QCheck.Gen in
  let base =
    [
      map2 (fun v e -> I.Assign (v, e)) (oneofl vars_pool) (expr_gen 1);
      map
        (fun e -> I.Send_sync { target = "PEER"; event_name = "ev"; args = [ ("k", e) ] })
        (expr_gen 1);
      return (I.Set_timer { id = "T"; delay = sec 1.0 });
      return (I.Cancel_timer "T");
    ]
  in
  if n = 0 then oneof base
  else
    oneof
      (base
      @ [
          map3
            (fun p t e -> I.If (p, t, e))
            (pred_gen 1)
            (list_size (int_range 0 2) (act_gen (n - 1)))
            (list_size (int_range 0 2) (act_gen (n - 1)));
        ])

let bindings_gen =
  QCheck.Gen.(list_size (int_range 0 4) (pair (oneofl vars_pool) value_gen))

let args_gen = QCheck.Gen.(list_size (int_range 0 4) (pair (oneofl fields_pool) value_gen))

(* Every local of [vars_pool], numbered as a compiled machine numbers
   them. *)
let layout =
  Env.layout
    (List.filter_map (function Env.Local, n -> Some n | Env.Global, _ -> None) vars_pool)

let mk_env bindings =
  let env = Env.create layout (Env.globals ()) in
  List.iter (fun ((scope, name), v) -> Env.set env scope name v) bindings;
  env

let mk_event args = Efsm.Event.make ~args (Efsm.Event.Data "SIP") ~at:(sec 0.0) "e"

(* Two steps of one compiled guard, read twice in each: its lets keep a
   value for a step and no longer. *)
let pred_equiv =
  q "ir: compiled guard = interpreted guard"
    (QCheck.make
       ~print:(fun (p, _) -> I.pred_to_string p)
       QCheck.Gen.(pair (pred_gen 4) (list_repeat 2 (pair bindings_gen args_gen))))
    (fun (p, steps) ->
      let lets = I.lets () in
      let compiled = I.compile_pred lets layout p in
      List.for_all
        (fun (bindings, args) ->
          let env = mk_env bindings and event = mk_event args in
          let want = I.eval_pred env event p in
          I.next_step lets;
          Bool.equal (compiled env event) want && Bool.equal (compiled env event) want)
        steps)

let acts_equiv =
  q "ir: compiled actions = interpreted actions (effects and env)"
    (QCheck.make QCheck.Gen.(triple (list_size (int_range 0 4) (act_gen 2)) bindings_gen args_gen))
    (fun (acts, bindings, args) ->
      let env_i = mk_env bindings and env_c = mk_env bindings in
      let event = mk_event args in
      let effs_i = I.run_acts M.builders acts env_i event in
      let effs_c = (I.compile_acts M.builders layout acts) env_c event in
      effs_i = effs_c
      && Env.local_bindings env_i = Env.local_bindings env_c
      && Env.global_bindings env_i = Env.global_bindings env_c)

(* ------------------------------------------------------------------ *)
(* Digest transparency of the IR migration                              *)
(* ------------------------------------------------------------------ *)

(* Golden digests captured on the closure-built specs immediately before
   the IR migration (same scenario, seed and horizon).  The migrated
   machines must reproduce the engine's observable behaviour bit for
   bit.  The alert digest is the behavioural pin; the engine digest is
   over the snapshot serialization and is re-pinned when the snapshot
   format itself gains fields (last: detector last-touched times and the
   detectors-swept counter). *)
let golden_alert_digest = "5042aef8b47acb330344d71f93363369"
let golden_engine_digest = "2c0697a823b6fd8e149cdfd513a0242a"

let digest_transparency () =
  let module T = Voip.Testbed in
  let tb = T.make ~seed:42 ~vids:T.Monitor () in
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
  check_string "alert digest unchanged by IR migration" golden_alert_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)));
  check_string "engine digest unchanged by IR migration" golden_engine_digest
    (Digest.to_hex (Digest.string (Vids.Snapshot.digest ~at:horizon engine)))

let suite =
  [
    ( "analyze.fixtures",
      [
        Alcotest.test_case "nondeterministic pair flagged" `Quick nondeterministic_fixture;
        Alcotest.test_case "orphan Send_sync flagged" `Quick orphan_sync_fixture;
        Alcotest.test_case "uninitialized read flagged" `Quick uninitialized_read_fixture;
        Alcotest.test_case "dangling timer flagged" `Quick dangling_timer_fixture;
        Alcotest.test_case "unreachable attack state flagged" `Quick unreachable_attack_fixture;
        Alcotest.test_case "unsatisfiable guard pruned" `Quick unsat_guard_fixture;
        Alcotest.test_case "validate_spec structural gaps" `Quick validate_gaps;
      ] );
    ( "analyze.shipped",
      [
        Alcotest.test_case "all five specs verify clean" `Quick shipped_specs_clean;
        Alcotest.test_case "report renders (text/json/dot)" `Quick shipped_report_renders;
      ] );
    ("analyze.ir", [ pred_equiv; acts_equiv ]);
    ( "analyze.digest",
      [ Alcotest.test_case "IR migration is digest-transparent" `Slow digest_transparency ] );
  ]
