(* Unit tests for the EFSM formal model (paper §4). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

module M = Efsm.Machine
module E = Efsm.Event
module V = Efsm.Value
module Env = Efsm.Env
module Ir = Efsm.Ir

let ev ?(args = []) ?(at = 0) name = E.make ~args (E.Data "TEST") ~at name
let tr = M.ir_transition

(* ------------------------------------------------------------------ *)
(* Values and environments                                             *)
(* ------------------------------------------------------------------ *)

let value_equality () =
  check "int" true (V.equal (V.Int 1) (V.Int 1));
  check "cross-type" false (V.equal (V.Int 1) (V.Str "1"));
  check "addr" true (V.equal (V.Addr ("h", 1)) (V.Addr ("h", 1)));
  check "unset" true (V.equal V.Unset V.Unset)

let env_scopes () =
  let g = Env.globals () in
  let layout = Env.layout [ "x"; "nope" ] in
  let e1 = Env.create layout g and e2 = Env.create layout g in
  Env.set e1 Env.Local "x" (V.Int 1);
  Env.set e1 Env.Global "shared" (V.Str "both");
  check "local not visible to peer" true (Env.get e2 Env.Local "x" = V.Unset);
  check "global visible to peer" true (Env.get e2 Env.Global "shared" = V.Str "both");
  check "unset default" true (Env.get e1 Env.Local "nope" = V.Unset);
  check "bindings sorted" true (List.map fst (Env.local_bindings e1) = [ "x" ])

let env_bytes () =
  let g = Env.globals () in
  let e = Env.create (Env.layout [ "tag" ]) g in
  Env.set e Env.Local "tag" (V.Str "abcdef");
  check "estimate counts names+values" true (Env.estimated_bytes e >= 9)

(* The variable stores against a Hashtbl reference model: every read
   and the sorted bindings agree after each operation. *)
type env_op =
  | Set of Env.scope * string * int
  | Get of Env.scope * string
  | Mem of Env.scope * string
  | Reset_locals
  | Globals_put of string * int

let env_op_gen =
  QCheck.Gen.(
    let scope = oneofl [ Env.Local; Env.Global ] and name = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
    frequency
      [
        (4, map3 (fun s n v -> Set (s, n, v)) scope name small_nat);
        (3, map2 (fun s n -> Get (s, n)) scope name);
        (2, map2 (fun s n -> Mem (s, n)) scope name);
        (1, return Reset_locals);
        (2, map2 (fun n v -> Globals_put (n, v)) name small_nat);
      ])

let env_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"env: stores agree with a Hashtbl model" ~count:300
       (QCheck.make QCheck.Gen.(list_size (int_range 0 40) env_op_gen))
       (fun ops ->
         let g = Env.globals () in
         let e = Env.create (Env.layout [ "e"; "c"; "a"; "d"; "b" ]) g in
         let locals = Hashtbl.create 8 and globals = Hashtbl.create 8 in
         let model = function Env.Local -> locals | Env.Global -> globals in
         let sorted tbl =
           Hashtbl.fold (fun k v acc -> (k, V.Int v) :: acc) tbl [] |> List.sort compare
         in
         List.for_all
           (fun op ->
             let read_ok =
               match op with
               | Set (s, n, v) ->
                   Env.set e s n (V.Int v);
                   Hashtbl.replace (model s) n v;
                   true
               | Get (s, n) ->
                   let expected =
                     match Hashtbl.find_opt (model s) n with Some v -> V.Int v | None -> V.Unset
                   in
                   V.equal (Env.get e s n) expected
               | Mem (s, n) ->
                   let bindings =
                     match s with
                     | Env.Local -> Env.local_bindings e
                     | Env.Global -> Env.globals_bindings g
                   in
                   List.mem_assoc n bindings = Hashtbl.mem (model s) n
               | Reset_locals ->
                   Env.reset_locals e;
                   Hashtbl.reset locals;
                   true
               | Globals_put (n, v) ->
                   Env.globals_put g n (V.Int v);
                   Hashtbl.replace globals n v;
                   true
             in
             read_ok
             && Env.local_bindings e = sorted locals
             && Env.global_bindings e = sorted globals
             && Env.globals_bindings g = sorted globals)
           ops))

(* The checkpoint writer's integers: the same digits as [string_of_int],
   at the extremes too. *)
let decimal_matches_string_of_int =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"value: add_decimal = string_of_int" ~count:1000
       (QCheck.make ~print:string_of_int
          QCheck.Gen.(
            frequency
              [
                (4, int);
                (2, int_range (-1000) 1000);
                (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1; -10; 10 ]);
              ]))
       (fun n ->
         let buf = Buffer.create 4 in
         Buffer.add_char buf 'x';
         V.add_decimal buf n;
         String.equal (Buffer.contents buf) ("x" ^ string_of_int n)))

(* ------------------------------------------------------------------ *)
(* Machine stepping                                                    *)
(* ------------------------------------------------------------------ *)

let toy_spec =
  {
    M.spec_name = "toy";
    initial = "A";
    finals = [ "C" ];
    attack_states = [ ("X", "boom") ];
    transitions =
      [
        tr ~label:"a_to_b" ~from_state:"A" (M.On_event "go") ~to_state:"B"
          ~acts:[ Ir.Assign ((Env.Local, "n"), Ir.Field "n") ]
          ();
        tr ~label:"b_self_small" ~from_state:"B" (M.On_event "go") ~to_state:"B"
          ~guard:(Ir.Cmp (Ir.Le, Ir.Int_of (Ir.Field "n"), Ir.Int_const 10))
          ();
        tr ~label:"b_attack_big" ~from_state:"B" (M.On_event "go") ~to_state:"X"
          ~guard:(Ir.Cmp (Ir.Gt, Ir.Int_of (Ir.Field "n"), Ir.Int_const 10))
          ();
        tr ~label:"b_done" ~from_state:"B" (M.On_event "done") ~to_state:"C" ();
      ];
  }

let machine_moves () =
  let m = M.instantiate (M.compile toy_spec) ~globals:(Env.globals ()) in
  check_str "initial" "A" (M.state m);
  (match M.step m (ev ~args:[ ("n", V.Int 3) ] "go") with
  | M.Moved { transition; attack; _ } ->
      check_str "label" "a_to_b" transition.M.label;
      check "no attack" true (attack = None)
  | _ -> Alcotest.fail "expected move");
  check_str "in B" "B" (M.state m);
  check "var stored" true (Env.get (M.env m) Env.Local "n" = V.Int 3)

let machine_guards_select () =
  let m = M.instantiate (M.compile toy_spec) ~globals:(Env.globals ()) in
  ignore (M.step m (ev ~args:[ ("n", V.Int 1) ] "go"));
  (match M.step m (ev ~args:[ ("n", V.Int 99) ] "go") with
  | M.Moved { attack = Some detail; _ } -> check_str "attack detail" "boom" detail
  | _ -> Alcotest.fail "expected attack entry");
  check_str "in attack state" "X" (M.state m)

let machine_rejects () =
  let m = M.instantiate (M.compile toy_spec) ~globals:(Env.globals ()) in
  (match M.step m (ev "unknown") with
  | M.Rejected -> ()
  | _ -> Alcotest.fail "expected rejection");
  check_str "state unchanged" "A" (M.state m)

let machine_final () =
  let m = M.instantiate (M.compile toy_spec) ~globals:(Env.globals ()) in
  ignore (M.step m (ev ~args:[ ("n", V.Int 1) ] "go"));
  ignore (M.step m (ev "done"));
  check "final" true (M.is_final m);
  check_int "history length" 2 (Array.length (fst (M.history m)));
  check_str "configuration state" "C" (M.state m)

let machine_guard_type_error_is_false () =
  let m = M.instantiate (M.compile toy_spec) ~globals:(Env.globals ()) in
  ignore (M.step m (ev ~args:[ ("n", V.Int 1) ] "go"));
  (* "go" without an int n: both comparisons are false -> no
     transition. *)
  match M.step m (ev ~args:[ ("n", V.Str "oops") ] "go") with
  | M.Rejected -> ()
  | _ -> Alcotest.fail "expected rejection on type error"

(* A snapshot may only name the variables the machine uses: an unknown
   one is refused, and the instance keeps its configuration. *)
let restore_rejects_unknown_variable () =
  let m = M.instantiate (M.compile toy_spec) ~globals:(Env.globals ()) in
  ignore (M.step m (ev ~args:[ ("n", V.Int 3) ] "go"));
  (match
     M.restore m ~state:"A" ~vars:[ ("n", V.Int 1); ("ghost", V.Int 2) ] ~history:([||], [||])
   with
  | Error e -> check_str "error" "toy: unknown variable \"ghost\" in snapshot" e
  | Ok () -> Alcotest.fail "restore accepted a variable the machine does not use");
  check "configuration kept" true ((M.state m, Env.local_bindings (M.env m)) = ("B", [ ("n", V.Int 3) ]));
  check_int "history kept" 1 (Array.length (fst (M.history m)))

(* A snapshot's history may only name the machine's transitions and hold
   at most the 64 entries an engine keeps; anything else is refused, and
   the instance keeps its configuration and history. *)
let restore_rejects_foreign_history () =
  let m = M.instantiate (M.compile toy_spec) ~globals:(Env.globals ()) in
  ignore (M.step m (ev ~at:5 ~args:[ ("n", V.Int 3) ] "go"));
  let kept () =
    check "configuration kept" true ((M.state m, Env.local_bindings (M.env m)) = ("B", [ ("n", V.Int 3) ]));
    check "history kept" true (M.history m = ([| 5 |], [| "a_to_b" |]))
  in
  (match M.restore m ~state:"A" ~vars:[] ~history:([| 1; 2 |], [| "a_to_b"; "ghost" |]) with
  | Error e -> check_str "error" "toy: unknown transition \"ghost\" in snapshot" e
  | Ok () -> Alcotest.fail "restore accepted a transition the machine does not have");
  kept ();
  (match
     M.restore m ~state:"B" ~vars:[] ~history:(Array.init 65 Fun.id, Array.make 65 "b_self_small")
   with
  | Error e ->
      check_str "error" "toy: history of 65 entries in snapshot exceeds the 64-entry window" e
  | Ok () -> Alcotest.fail "restore accepted a history longer than the window");
  kept ();
  (match M.restore m ~state:"B" ~vars:[] ~history:([| 1 |], [||]) with
  | Error e -> check_str "error" "toy: history of 1 times and 0 transitions in snapshot" e
  | Ok () -> Alcotest.fail "restore accepted more times than transitions");
  kept ();
  (* The whole window is accepted, and read back as written. *)
  let full =
    (Array.init 64 Fun.id, Array.init 64 (fun i -> if i = 0 then "a_to_b" else "b_self_small"))
  in
  (match M.restore m ~state:"B" ~vars:[] ~history:full with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore refused a full window: %s" e);
  check "full window restored" true (M.history m = full)

(* The window is a function of the transition count alone: all of the
   first 64, then the newest 32 to 64, cut back to 32 on every 33rd
   transition after that. *)
let history_window () =
  let m = M.instantiate (M.compile toy_spec) ~globals:(Env.globals ()) in
  ignore (M.step m (ev ~at:1 ~args:[ ("n", V.Int 1) ] "go"));
  for n = 2 to 300 do
    ignore (M.step m (ev ~at:n ~args:[ ("n", V.Int 1) ] "go"));
    let len = if n <= 64 then n else 32 + ((n - 65) mod 33) in
    let first = n - len + 1 in
    let want =
      ( Array.init len (fun i -> first + i),
        Array.init len (fun i -> if first + i = 1 then "a_to_b" else "b_self_small") )
    in
    if M.history m <> want then Alcotest.failf "history after %d transitions differs" n
  done

let nondeterminism_detected () =
  let bad =
    {
      M.spec_name = "bad";
      initial = "A";
      finals = [];
      attack_states = [];
      transitions =
        [
          tr ~label:"t1" ~from_state:"A" (M.On_event "e") ~to_state:"B" ();
          tr ~label:"t2" ~from_state:"A" (M.On_event "e") ~to_state:"C" ();
        ];
    }
  in
  let m = M.instantiate (M.compile bad) ~globals:(Env.globals ()) in
  match M.step m (ev "e") with
  | M.Nondeterministic labels ->
      Alcotest.(check (list string)) "labels" [ "t1"; "t2" ] (List.sort String.compare labels)
  | _ -> Alcotest.fail "expected nondeterminism report"

let spec_validation () =
  check "toy valid" true (Result.is_ok (M.validate_spec toy_spec));
  let dup = { toy_spec with M.transitions = toy_spec.M.transitions @ toy_spec.M.transitions } in
  check "duplicate labels rejected" true (Result.is_error (M.validate_spec dup));
  let orphan = { toy_spec with M.initial = "Z" } in
  check "dead initial rejected" true (Result.is_error (M.validate_spec orphan));
  (* A history entry numbers its transition in 16 bits. *)
  let loops n =
    {
      toy_spec with
      M.transitions =
        List.init n (fun i ->
            tr ~label:(string_of_int i) ~from_state:"A" (M.On_event "go") ~to_state:"A" ());
    }
  in
  check "65 535 transitions accepted" true (Result.is_ok (M.validate_spec (loops 0xFFFF)));
  match M.validate_spec (loops 0x10000) with
  | Error e ->
      check_str "too many transitions"
        "toy: 65536 transitions, more than the 65535 a machine can number" e
  | Ok () -> Alcotest.fail "a spec of 65 536 transitions accepted"

let spec_states () =
  Alcotest.(check (list string)) "states" [ "A"; "B"; "C"; "X" ] (M.states toy_spec)

let trigger_kinds () =
  let spec =
    {
      M.spec_name = "trig";
      initial = "S";
      finals = [];
      attack_states = [];
      transitions =
        [
          tr ~label:"by_chan" ~from_state:"S" (M.On_channel "RTP") ~to_state:"S" ();
          tr ~label:"by_sync" ~from_state:"S" (M.On_sync "delta") ~to_state:"S" ();
          tr ~label:"by_timer" ~from_state:"S" (M.On_timer "t1") ~to_state:"S" ();
        ];
    }
  in
  let m = M.instantiate (M.compile spec) ~globals:(Env.globals ()) in
  let step_label e =
    match M.step m e with
    | M.Moved { transition; _ } -> transition.M.label
    | _ -> "rejected"
  in
  check_str "channel matches any name" "by_chan"
    (step_label (E.make (E.Data "RTP") ~at:0 "anything"));
  check_str "sync" "by_sync"
    (step_label (E.make (E.Sync { from_machine = "SIP" }) ~at:0 "delta"));
  check_str "timer" "by_timer" (step_label (E.make E.Timer ~at:0 "t1"));
  check_str "wrong channel rejected" "rejected"
    (step_label (E.make (E.Data "SIP") ~at:0 "anything"));
  check_str "wrong timer rejected" "rejected" (step_label (E.make E.Timer ~at:0 "t2"))

(* ------------------------------------------------------------------ *)
(* Communicating systems                                               *)
(* ------------------------------------------------------------------ *)

(* Machine P forwards each "ping" to Q as sync "delta"; Q counts them. *)
let ping_spec =
  {
    M.spec_name = "P";
    initial = "S";
    finals = [];
    attack_states = [];
    transitions =
      [
        tr ~label:"fwd" ~from_state:"S" (M.On_event "ping") ~to_state:"S"
          ~acts:[ Ir.Send_sync { target = "Q"; event_name = "delta"; args = [] } ]
          ();
      ];
  }

let pong_spec =
  let count = Ir.Int_or0 (Ir.Var (Env.Local, "count")) in
  {
    M.spec_name = "Q";
    initial = "S";
    finals = [];
    attack_states = [ ("X", "threshold") ];
    transitions =
      [
        tr ~label:"recv" ~from_state:"S" (M.On_sync "delta") ~to_state:"S"
          ~guard:(Ir.Cmp (Ir.Lt, count, Ir.Int_const 2))
          ~acts:[ Ir.Assign ((Env.Local, "count"), Ir.Of_int (Ir.Add (count, Ir.Int_const 1))) ]
          ();
        tr ~label:"boom" ~from_state:"S" (M.On_sync "delta") ~to_state:"X"
          ~guard:(Ir.Cmp (Ir.Ge, count, Ir.Int_const 2))
          ();
      ];
  }

let make_system () =
  let sched = Dsim.Scheduler.create () in
  let alerts = ref [] and anomalies = ref [] in
  let sys =
    Efsm.System.create
      ~hooks:
        {
          Efsm.System.on_alert = (fun _ n -> alerts := n :: !alerts);
          on_anomaly = (fun _ n -> anomalies := n :: !anomalies);
        }
      ~owner:"test"
      (Efsm.System.timer_host_of_scheduler sched)
  in
  (sched, sys, alerts, anomalies)

let system_sync_delivery () =
  let _sched, sys, alerts, _ = make_system () in
  ignore (Efsm.System.add_machine sys (M.compile ping_spec));
  let q = Efsm.System.add_machine sys (M.compile pong_spec) in
  Efsm.System.inject sys ~machine:"P" (ev "ping");
  Efsm.System.inject sys ~machine:"P" (ev "ping");
  check "no alert yet" true (!alerts = []);
  check "count 2" true (Env.get (M.env q) Env.Local "count" = V.Int 2);
  Efsm.System.inject sys ~machine:"P" (ev "ping");
  check_int "alert raised" 1 (List.length !alerts);
  check_str "attack machine" "Q" (List.hd !alerts).Efsm.System.machine;
  check_int "sync queues drained" 0 (List.length (Efsm.System.pending_sync sys))

let system_anomaly_on_rejected_data () =
  let _sched, sys, _, anomalies = make_system () in
  ignore (Efsm.System.add_machine sys (M.compile ping_spec));
  ignore (Efsm.System.add_machine sys (M.compile pong_spec));
  Efsm.System.inject sys ~machine:"P" (ev "garbage");
  check_int "anomaly" 1 (List.length !anomalies)

let system_sync_rejection_silent () =
  let _sched, sys, _, anomalies = make_system () in
  ignore (Efsm.System.add_machine sys (M.compile ping_spec));
  (* No machine Q: sync goes to an unknown machine -> anomaly is reported
     for the missing machine, not silently lost. *)
  Efsm.System.inject sys ~machine:"P" (ev "ping");
  check_int "missing machine reported" 1 (List.length !anomalies)

(* On "go" Fan sends Relay "a" then "b"; on "mix", Relay "a" then Order
   "second".  Relay syncs Order "first" on "a" and "second" on "b". *)
let fan_spec =
  let send ?(target = "Relay") event_name = Ir.Send_sync { target; event_name; args = [] } in
  {
    M.spec_name = "Fan";
    initial = "S";
    finals = [];
    attack_states = [];
    transitions =
      [
        tr ~label:"go" ~from_state:"S" (M.On_event "go") ~to_state:"S"
          ~acts:[ send "a"; send "b" ]
          ();
        tr ~label:"mix" ~from_state:"S" (M.On_event "mix") ~to_state:"S"
          ~acts:[ send "a"; send ~target:"Order" "second" ]
          ();
      ];
  }

(* A machine whose state spells the order it was sent [x] and [y] (X
   then XY, or Y then YX); on each it runs [acts] of that event. *)
let order_spec name ~x ~y ~acts =
  let seen from_state event to_state =
    tr ~label:(from_state ^ event) ~from_state (M.On_sync event) ~to_state ~acts:(acts event) ()
  in
  {
    M.spec_name = name;
    initial = "S";
    finals = [];
    attack_states = [];
    transitions = [ seen "S" x "X"; seen "S" y "Y"; seen "X" y "XY"; seen "Y" x "YX" ];
  }

let relay_spec =
  order_spec "Relay" ~x:"a" ~y:"b" ~acts:(fun event ->
      let event_name = if event = "a" then "first" else "second" in
      [ Ir.Send_sync { target = "Order"; event_name; args = [] } ])

let receiver_spec = order_spec "Order" ~x:"first" ~y:"second" ~acts:(fun _ -> [])

let fan_system () =
  let _sched, sys, _, _ = make_system () in
  List.iter
    (fun spec -> ignore (Efsm.System.add_machine sys (M.compile spec)))
    [ fan_spec; relay_spec; receiver_spec ];
  let machine name = Option.get (Efsm.System.machine sys name) in
  (sys, machine "Relay", machine "Order")

(* Sync events are delivered in the order they were sent, as through one
   FIFO queue: Relay's two syncs reach Order in the order Relay got "a"
   and "b"; one sent while others drain runs after them; and a restored
   system lists and drains its pushed events in push order. *)
let system_sync_order () =
  let sys, relay, order = fan_system () in
  Efsm.System.inject sys ~machine:"Fan" (ev "go");
  check_str "Relay saw a, then b" "XY" (M.state relay);
  check_str "Order saw first, then second" "XY" (M.state order);
  check_int "drained" 0 (List.length (Efsm.System.pending_sync sys));
  let sys, _, order = fan_system () in
  Efsm.System.inject sys ~machine:"Fan" (ev "mix");
  check_str "Relay's sync runs after Fan's" "YX" (M.state order);
  let sys, _, order = fan_system () in
  let sync name = E.make (E.Sync { from_machine = "Relay" }) ~at:0 name in
  Efsm.System.push_sync sys ~target:"Order" (sync "first");
  Efsm.System.push_sync sys ~target:"Order" (sync "second");
  check "pending in push order" true
    (List.map (fun (target, e) -> (target, E.name e)) (Efsm.System.pending_sync sys)
    = [ ("Order", "first"); ("Order", "second") ]);
  Efsm.System.inject sys ~machine:"Fan" (ev "go");
  check_str "pushed events drain in push order" "XY" (M.state order);
  check_int "drained after restore" 0 (List.length (Efsm.System.pending_sync sys))

let timer_spec =
  {
    M.spec_name = "T";
    initial = "S";
    finals = [];
    attack_states = [ ("LATE", "timer fired") ];
    transitions =
      [
        tr ~label:"arm" ~from_state:"S" (M.On_event "arm") ~to_state:"WAIT"
          ~acts:[ Ir.Set_timer { id = "t"; delay = Dsim.Time.of_ms 100.0 } ]
          ();
        tr ~label:"disarm" ~from_state:"WAIT" (M.On_event "disarm") ~to_state:"S"
          ~acts:[ Ir.Cancel_timer "t" ]
          ();
        tr ~label:"fire" ~from_state:"WAIT" (M.On_timer "t") ~to_state:"LATE" ();
      ];
  }

let system_timer_fires () =
  let sched, sys, alerts, _ = make_system () in
  ignore (Efsm.System.add_machine sys (M.compile timer_spec));
  Efsm.System.inject sys ~machine:"T" (ev "arm");
  Dsim.Scheduler.run_until sched (Dsim.Time.of_ms 50.0);
  check "not yet" true (!alerts = []);
  Dsim.Scheduler.run_until sched (Dsim.Time.of_ms 200.0);
  check_int "fired" 1 (List.length !alerts)

let system_timer_cancelled () =
  let sched, sys, alerts, _ = make_system () in
  let m = Efsm.System.add_machine sys (M.compile timer_spec) in
  Efsm.System.inject sys ~machine:"T" (ev "arm");
  Efsm.System.inject sys ~machine:"T" (ev "disarm");
  Dsim.Scheduler.run_until sched (Dsim.Time.of_ms 500.0);
  check "no alert" true (!alerts = []);
  check_str "back to S" "S" (M.state m)

let system_release_cancels_timers () =
  let sched, sys, alerts, _ = make_system () in
  ignore (Efsm.System.add_machine sys (M.compile timer_spec));
  Efsm.System.inject sys ~machine:"T" (ev "arm");
  Efsm.System.release sys;
  Dsim.Scheduler.run_until sched (Dsim.Time.of_ms 500.0);
  check "released timers do not fire" true (!alerts = [])

(* Arms and cancels the timer named by the event's "id" argument, t1 or
   t2. *)
let rearm_spec =
  let delay = Dsim.Time.of_ms 100.0 in
  let by_id act =
    Ir.If (Ir.Eq (Ir.Field "id", Ir.Const (V.Str "t1")), [ act "t1" ], [ act "t2" ])
  in
  let fired id = tr ~label:("fire_" ^ id) ~from_state:"S" (M.On_timer id) ~to_state:"S" () in
  {
    M.spec_name = "R";
    initial = "S";
    finals = [];
    attack_states = [];
    transitions =
      [
        tr ~label:"arm" ~from_state:"S" (M.On_event "arm") ~to_state:"S"
          ~acts:[ by_id (fun id -> Ir.Set_timer { id; delay }) ]
          ();
        tr ~label:"disarm" ~from_state:"S" (M.On_event "disarm") ~to_state:"S"
          ~acts:[ by_id (fun id -> Ir.Cancel_timer id) ]
          ();
        fired "t1";
        fired "t2";
      ];
  }

type timer_op = Arm of string | Disarm of string | Expire

(* Whatever the sequence of arms, cancels, re-arms and expiries, each
   (machine, timer id) has at most one pending timer, the system and the
   scheduler agree on which, and [release] cancels them all. *)
let system_timers_match_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"system: one pending timer per (machine, id)" ~count:200
       (QCheck.make
          QCheck.Gen.(
            list_size (int_range 0 30)
              (let id = oneofl [ "t1"; "t2" ] in
               frequency
                 [ (4, map (fun i -> Arm i) id); (2, map (fun i -> Disarm i) id); (1, return Expire) ])))
       (fun ops ->
         let sched, sys, _, _ = make_system () in
         ignore (Efsm.System.add_machine sys (M.compile rearm_spec));
         let armed = ref [] in
         let agrees () =
           let ids = List.map (fun (_, id, _) -> id) (Efsm.System.pending_timers sys) in
           ids = List.sort_uniq compare !armed && Dsim.Scheduler.pending sched = List.length ids
         in
         let send name id =
           Efsm.System.inject sys ~machine:"R" (ev ~args:[ ("id", V.Str id) ] name)
         in
         let consistent =
           List.for_all
             (fun op ->
               (match op with
               | Arm id ->
                   send "arm" id;
                   armed := id :: !armed
               | Disarm id ->
                   send "disarm" id;
                   armed := List.filter (fun a -> a <> id) !armed
               | Expire ->
                   Dsim.Scheduler.run_until sched
                     (Dsim.Time.add (Dsim.Scheduler.now sched) (Dsim.Time.of_ms 200.0));
                   armed := []);
               agrees ())
             ops
         in
         Efsm.System.release sys;
         consistent && Efsm.System.pending_timers sys = [] && Dsim.Scheduler.pending sched = 0))

let system_duplicate_machine () =
  let _sched, sys, _, _ = make_system () in
  ignore (Efsm.System.add_machine sys (M.compile ping_spec));
  check "duplicate rejected" true
    (try
       ignore (Efsm.System.add_machine sys (M.compile ping_spec));
       false
     with Invalid_argument _ -> true)

let dot_export () =
  let dot = Efsm.Dot.of_spec toy_spec in
  check "mentions digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check "attack styled" true (contains "doubleoctagon" dot);
  check "edges present" true (contains "\"A\" -> \"B\"" dot);
  check "final styled" true (contains "doublecircle" dot)

let suite =
  [
    ( "efsm.value+env",
      [
        tc "value equality" value_equality;
        tc "env scopes" env_scopes;
        tc "env bytes" env_bytes;
        env_matches_model;
        decimal_matches_string_of_int;
      ] );
    ( "efsm.machine",
      [
        tc "moves" machine_moves;
        tc "guards select" machine_guards_select;
        tc "rejects" machine_rejects;
        tc "final + trace + configuration" machine_final;
        tc "guard type error = false" machine_guard_type_error_is_false;
        tc "restore rejects unknown variables" restore_rejects_unknown_variable;
        tc "restore rejects a history no engine writes" restore_rejects_foreign_history;
        tc "history window" history_window;
        tc "nondeterminism detected" nondeterminism_detected;
        tc "spec validation" spec_validation;
        tc "spec states" spec_states;
        tc "trigger kinds" trigger_kinds;
      ] );
    ( "efsm.system",
      [
        tc "sync delivery + priority" system_sync_delivery;
        tc "anomaly on rejected data" system_anomaly_on_rejected_data;
        tc "missing machine reported" system_sync_rejection_silent;
        tc "sync events delivered in sending order" system_sync_order;
        tc "timer fires" system_timer_fires;
        tc "timer cancelled" system_timer_cancelled;
        tc "release cancels timers" system_release_cancels_timers;
        system_timers_match_model;
        tc "duplicate machine rejected" system_duplicate_machine;
        tc "dot export" dot_export;
      ] );
  ]
