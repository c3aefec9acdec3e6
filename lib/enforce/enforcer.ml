(* Alert-driven enforcement.  See enforcer.mli for the per-kind policy
   and the crash-safety contract. *)

module Engine = Vids.Engine
module Journal = Vids.Journal
module Alert = Vids.Alert
module Fact_base = Vids.Fact_base
module Codec = Vids.Codec

type policy = {
  block_ttl : Dsim.Time.t;
  rate_pps : int;
  rate_burst : int;
  fail_closed : bool;
  max_rules : int;
}

let default_policy =
  {
    block_ttl = Dsim.Time.of_sec 60.0;
    rate_pps = 50;
    rate_burst = 100;
    fail_closed = false;
    max_rules = 4096;
  }

let ext_tag = "enforce"

type t = {
  p : policy;
  sched : Dsim.Scheduler.t;
  eng : Engine.t;
  tbl : Block_table.t;
  journal : (Journal.entry -> unit) option;
  (* The packet under analysis: alerts fire synchronously inside
     [process_packet], so the listener reads the attacker-controlled
     source from here. *)
  mutable current : Dsim.Packet.t option;
  mutable passed : int;
  mutable blocked : int;
  mutable teardowns : int;
}

let now t = Dsim.Scheduler.now t.sched

(* ---- telemetry (strictly observational, resolved per event: the
   registry may be attached after the enforcer) ---------------------- *)

let bump t ?labels name =
  match Engine.metrics_registry t.eng with
  | None -> ()
  | Some m -> Obs.Metrics.incr (Obs.Metrics.counter m ?labels name)

let gauge_rules t =
  match Engine.metrics_registry t.eng with
  | None -> ()
  | Some m ->
      Obs.Metrics.set
        (Obs.Metrics.gauge m "vids_enforce_rules_active")
        (float_of_int (List.length (Block_table.rules t.tbl ~now:(now t))))

let trace t action subject =
  match Engine.flight_recorder t.eng with
  | None -> ()
  | Some fl -> Obs.Trace.record fl ~at:(now t) (Obs.Trace.Enforce { action; subject })

(* Drops are per packet: the source is formatted only for a recorder. *)
let trace_drop t action src =
  match Engine.flight_recorder t.eng with
  | None -> ()
  | Some _ -> trace t action (Dsim.Addr.to_string src)

let emit_ext t payload =
  match t.journal with
  | None -> ()
  | Some emit -> emit (Journal.Ext { at = now t; tag = ext_tag; payload })

(* ---- rule installation -------------------------------------------- *)

let scope_subject = function
  | Block_table.Src k -> "src " ^ Source_key.to_string k
  | Block_table.Dst k -> "dst " ^ Source_key.to_string k

let enter_lockdown t =
  if not (Block_table.lockdown t.tbl) then begin
    Block_table.set_lockdown t.tbl true;
    emit_ext t "L 1";
    trace t "lockdown" "rule table full";
    bump t "vids_enforce_lockdowns_total"
  end

let install t scope action ~escalate ~reason =
  let at = now t in
  let expires_at = Dsim.Time.add at t.p.block_ttl in
  match Block_table.install t.tbl ~now:at scope action ~expires_at ~escalate ~reason () with
  | Block_table.Overflow ->
      (* The table is attacker-fillable; what overflow means is policy.
         Fail-open sheds enforcement (detection continues); fail-closed
         prefers an outage to an unenforced attack. *)
      if t.p.fail_closed then enter_lockdown t
      else trace t "overflow" (scope_subject scope)
  | Block_table.Installed | Block_table.Refreshed -> (
      match Block_table.find t.tbl scope with
      | None -> ()
      | Some r ->
          (* Journal the post-install state: re-applying it verbatim on
             recovery converges even when the install was a refresh. *)
          emit_ext t (Block_table.rule_to_line r);
          let action_tag =
            match action with Block_table.Drop -> "block" | Block_table.Rate_limit _ -> "rate-limit"
          in
          trace t action_tag (scope_subject scope);
          bump t ~labels:[ ("action", action_tag) ] "vids_enforce_rules_total";
          gauge_rules t)

let drop_src_host t ~reason =
  match t.current with
  | None -> ()
  | Some pkt ->
      install t
        (Block_table.Src (Source_key.host_of_addr pkt.Dsim.Packet.src))
        Block_table.Drop ~escalate:false ~reason

let drop_src_endpoint t ~reason =
  match t.current with
  | None -> ()
  | Some pkt ->
      install t
        (Block_table.Src (Source_key.of_addr pkt.Dsim.Packet.src))
        Block_table.Drop ~escalate:false ~reason

let limit_src_endpoint t ~reason =
  match t.current with
  | None -> ()
  | Some pkt ->
      install t
        (Block_table.Src (Source_key.of_addr pkt.Dsim.Packet.src))
        (Block_table.Rate_limit { pps = t.p.rate_pps; burst = t.p.rate_burst })
        ~escalate:false ~reason

let protect_victim t ~victim ~reason =
  install t
    (Block_table.Dst (Source_key.host victim))
    (Block_table.Rate_limit { pps = t.p.rate_pps; burst = t.p.rate_burst })
    ~escalate:true ~reason

(* Parse failures are evidence against the endpoint that sent them: this
   many within [strike_window] of its first drop it like any
   alert-driven rule, for the policy's TTL. *)
let strikes = 8
let strike_window = Dsim.Time.of_sec 10.0

let charge_parse_failure t src =
  let key = Source_key.of_addr src in
  if Block_table.strike t.tbl ~now:(now t) ~window:strike_window ~threshold:strikes key then
    install t (Block_table.Src key) Block_table.Drop ~escalate:false ~reason:"malformed-source"

(* ---- forced call teardown ----------------------------------------- *)

let do_teardown t ~call_id ~at =
  let fb = Engine.fact_base t.eng in
  match Fact_base.find_call fb call_id with
  | None -> false
  | Some call ->
      Fact_base.arm_delete_at fb call at;
      t.teardowns <- t.teardowns + 1;
      trace t "teardown" call_id;
      bump t "vids_enforce_teardowns_total";
      true

let teardown t ~call_id =
  let at = now t in
  if do_teardown t ~call_id ~at then
    emit_ext t (Printf.sprintf "T %s %d" (Codec.hex call_id) (Dsim.Time.to_us at))

(* ---- the per-kind response map ------------------------------------ *)

let strip_prefix ~prefix s =
  if String.length s > String.length prefix && String.sub s 0 (String.length prefix) = prefix
  then Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let on_alert t (a : Alert.t) =
  let reason = Alert.kind_to_string a.Alert.kind in
  match a.Alert.kind with
  | Alert.Invite_flood -> drop_src_host t ~reason
  | Alert.Media_spam -> drop_src_endpoint t ~reason
  | Alert.Rtp_flood -> limit_src_endpoint t ~reason
  | Alert.Call_hijack | Alert.Cancel_dos | Alert.Registration_hijack ->
      teardown t ~call_id:a.Alert.subject;
      drop_src_host t ~reason
  | Alert.Bye_dos | Alert.Billing_fraud ->
      (* The triggering packet names — and can come from — the legitimate
         party, so only the call is torn down; no source is blocked. *)
      teardown t ~call_id:a.Alert.subject
  | Alert.Drdos ->
      (match strip_prefix ~prefix:"victim:" a.Alert.subject with
      | Some victim -> protect_victim t ~victim ~reason
      | None -> ());
      drop_src_host t ~reason
  | Alert.Spec_deviation | Alert.Resource_pressure | Alert.Engine_fault ->
      (* Engine health, not an attacker: acting on these would turn a
         contained fault into a self-inflicted outage. *)
      ()

let create ?(policy = default_policy) ?journal sched eng =
  let tbl = Block_table.create ~max_rules:policy.max_rules () in
  let t =
    {
      p = policy;
      sched;
      eng;
      tbl;
      journal;
      current = None;
      passed = 0;
      blocked = 0;
      teardowns = 0;
    }
  in
  Engine.on_alert eng (fun a -> on_alert t a);
  t

let table t = t.tbl

(* ---- the gate ----------------------------------------------------- *)

let ingest t pkt =
  let at = now t in
  let src = pkt.Dsim.Packet.src and dst = pkt.Dsim.Packet.dst in
  match Block_table.decide t.tbl ~now:at ~src ~dst with
  | Block_table.Pass ->
      t.passed <- t.passed + 1;
      t.current <- Some pkt;
      let failures = Engine.malformed_packets t.eng in
      Fun.protect
        ~finally:(fun () -> t.current <- None)
        (fun () -> Engine.process_packet t.eng pkt);
      if Engine.malformed_packets t.eng > failures then charge_parse_failure t src;
      true
  | Block_table.Blocked _ ->
      t.blocked <- t.blocked + 1;
      trace_drop t "drop" src;
      bump t ~labels:[ ("cause", "block") ] "vids_enforce_dropped_total";
      false
  | Block_table.Locked ->
      t.blocked <- t.blocked + 1;
      bump t ~labels:[ ("cause", "lockdown") ] "vids_enforce_dropped_total";
      false
  | Block_table.Limited r ->
      t.blocked <- t.blocked + 1;
      trace_drop t "rate-limit-drop" src;
      bump t ~labels:[ ("cause", "rate") ] "vids_enforce_dropped_total";
      if r.Block_table.escalate then
        install t
          (Block_table.Src (Source_key.of_addr src))
          Block_table.Drop ~escalate:false
          ~reason:("escalated:" ^ r.Block_table.reason);
      false

type stats = {
  passed : int;
  blocked : int;
  teardowns : int;
  table : Block_table.stats;
}

let stats (t : t) =
  {
    passed = t.passed;
    blocked = t.blocked;
    teardowns = t.teardowns;
    table = Block_table.stats t.tbl ~now:(now t);
  }

let digest t = Block_table.digest t.tbl ~now:(now t)
let rules_text t = Block_table.to_text t.tbl ~now:(now t)
let rules_json t = Block_table.to_json t.tbl ~now:(now t)

(* ---- crash safety ------------------------------------------------- *)

let snapshot_payload t = Block_table.serialize t.tbl ~now:(now t)
let ext t = [ (ext_tag, snapshot_payload t) ]

let restore t ~payload =
  match Block_table.restore t.tbl payload with
  | Ok () -> Ok ()
  | Error e ->
      if t.p.fail_closed then enter_lockdown t;
      Error e

let ( let* ) = Result.bind

(* The payload self-describes (the teardown line carries its own absolute
   time), so the entry timestamp only decides when recovery applies it. *)
let apply_payload t payload =
  match String.split_on_char ' ' payload with
  | "R" :: _ -> Block_table.apply_rule_line t.tbl ~keep_hits:true payload
  | [ "T"; callid_hex; t_us ] ->
      let* call_id = Codec.unhex callid_hex in
      let* at = Codec.time_tok t_us in
      ignore (do_teardown t ~call_id ~at);
      Ok ()
  | [ "L"; flag ] ->
      let* flag = Codec.int_tok flag in
      Block_table.set_lockdown t.tbl (flag <> 0);
      Ok ()
  | _ -> Error (Printf.sprintf "unrecognized enforcement journal payload %S" payload)

let apply_journal t ~payload =
  match apply_payload t payload with Ok () -> () | Error _ -> trace t "journal-skip" payload
