(* Prevention-mode tests: the block table's determinism contract (TTL
   boundaries, token buckets, refresh semantics, strike counts), the
   qcheck property that checkpoint ∘ crash ∘ recover preserves the table
   — rules, TTLs, bucket levels and strikes — and the enforcer
   end-to-end: an INVITE flood blocked at the gate while a bystander
   still passes, a source of parse failures dropped, the enforcing
   daemon under legitimate churn (containment, zero false blocks, offline
   replay, kill -9), and every attack scenario's mapped response on the
   Figure-7 testbed. *)

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let us = Dsim.Time.of_us
let sec = Dsim.Time.of_sec

module BT = Enforce.Block_table
module SK = Enforce.Source_key

let addr host port = Dsim.Addr.v host port

let check_verdict msg expected got =
  let show = function
    | BT.Pass -> "Pass"
    | BT.Blocked _ -> "Blocked"
    | BT.Limited _ -> "Limited"
    | BT.Locked -> "Locked"
  in
  Alcotest.(check string) msg (show expected) (show got)

(* ------------------------------------------------------------------ *)
(* Source_key                                                          *)
(* ------------------------------------------------------------------ *)

let test_source_key_normalize () =
  Alcotest.(check string)
    "host lowercased" "proxy.example"
    (SK.to_string (SK.host "Proxy.EXAMPLE"));
  Alcotest.(check bool)
    "case-insensitive equal" true
    (SK.host "A.example" = SK.host "a.EXAMPLE");
  Alcotest.(check string)
    "endpoint carries the port" "10.0.0.1:5060"
    (SK.to_string (SK.of_addr (addr "10.0.0.1" 5060)));
  Alcotest.(check string)
    "host_of_addr drops the port" "10.0.0.1"
    (SK.to_string (SK.host_of_addr (addr "10.0.0.1" 5060)))

let key_gen =
  QCheck.Gen.(
    let host =
      oneof
        [
          map
            (fun (a, b) -> Printf.sprintf "10.%d.0.%d" a b)
            (pair (int_range 0 255) (int_range 1 254));
          map (fun n -> Printf.sprintf "ua%d.example" n) (int_range 0 999);
          (* Mixed case: normalization must lowercase exactly these. *)
          map2
            (fun n upper -> Printf.sprintf (if upper then "UA%d.Example" else "Ua%d.eXample") n)
            (int_range 0 999) bool;
        ]
    in
    oneof
      [
        map SK.host host;
        map2 (fun h p -> SK.of_addr (Dsim.Addr.v h p)) host (int_range 1 65535);
      ])

let key_arb = QCheck.make ~print:SK.to_string key_gen

let prop_source_key_roundtrip =
  q "source_key: of_string (to_string k) = k" key_arb (fun k ->
      match SK.of_string (SK.to_string k) with
      | Ok k' -> k = k'
      | Error e -> QCheck.Test.fail_reportf "of_string: %s" e)

(* ------------------------------------------------------------------ *)
(* TTL boundaries and refresh semantics                                *)
(* ------------------------------------------------------------------ *)

let attacker = addr "198.51.100.99" 5060
let victim = addr "10.2.0.2" 5060

let test_ttl_boundary () =
  let t = BT.create () in
  let deadline = sec 60.0 in
  (match BT.install t ~now:Dsim.Time.zero (BT.Src (SK.host_of_addr attacker)) BT.Drop
           ~expires_at:deadline ~reason:"test" ()
   with
  | BT.Installed -> ()
  | _ -> Alcotest.fail "install refused");
  check_verdict "blocked 1 us before the deadline" (BT.Blocked (Obj.magic 0))
    (BT.decide t ~now:(Dsim.Time.sub deadline (us 1)) ~src:attacker ~dst:victim);
  check_verdict "passes at the deadline" BT.Pass
    (BT.decide t ~now:deadline ~src:attacker ~dst:victim);
  Alcotest.(check int) "expired rule reclaimed" 0 (BT.stats t ~now:deadline).BT.active;
  Alcotest.(check int) "expiry counted" 1 (BT.stats t ~now:deadline).BT.expired

let test_refresh_extends_and_drop_dominates () =
  let t = BT.create () in
  let scope = BT.Src (SK.host_of_addr attacker) in
  ignore
    (BT.install t ~now:Dsim.Time.zero scope
       (BT.Rate_limit { pps = 10; burst = 10 })
       ~expires_at:(sec 30.0) ~reason:"first" ());
  (match
     BT.install t ~now:(sec 1.0) scope BT.Drop ~expires_at:(sec 60.0) ~reason:"second" ()
   with
  | BT.Refreshed -> ()
  | _ -> Alcotest.fail "expected a refresh");
  let r = Option.get (BT.find t scope) in
  Alcotest.(check bool) "deadline extended" true (Dsim.Time.compare r.BT.expires_at (sec 60.0) = 0);
  Alcotest.(check bool) "drop dominates" true (r.BT.action = BT.Drop);
  Alcotest.(check string) "original reason stands" "first" r.BT.reason;
  (* The reverse refresh must not weaken a Drop back to a limiter, nor
     shrink the deadline. *)
  ignore
    (BT.install t ~now:(sec 2.0) scope
       (BT.Rate_limit { pps = 1; burst = 1 })
       ~expires_at:(sec 40.0) ~reason:"third" ());
  let r = Option.get (BT.find t scope) in
  Alcotest.(check bool) "drop sticky" true (r.BT.action = BT.Drop);
  Alcotest.(check bool) "deadline never shrinks" true
    (Dsim.Time.compare r.BT.expires_at (sec 60.0) = 0)

let test_token_bucket () =
  let t = BT.create () in
  ignore
    (BT.install t ~now:Dsim.Time.zero (BT.Src (SK.of_addr attacker))
       (BT.Rate_limit { pps = 10; burst = 3 })
       ~expires_at:(sec 600.0) ~reason:"limit" ());
  let verdicts =
    List.init 5 (fun _ -> BT.decide t ~now:(sec 1.0) ~src:attacker ~dst:victim)
  in
  let passed = List.length (List.filter (fun v -> v = BT.Pass) verdicts) in
  Alcotest.(check int) "burst of 3 passes, rest limited" 3 passed;
  (* 10 pps: 0.2 s refills two tokens. *)
  check_verdict "refilled after 200 ms" BT.Pass
    (BT.decide t ~now:(sec 1.2) ~src:attacker ~dst:victim);
  check_verdict "second refill token" BT.Pass
    (BT.decide t ~now:(sec 1.2) ~src:attacker ~dst:victim);
  check_verdict "then limited again" (BT.Limited (Obj.magic 0))
    (BT.decide t ~now:(sec 1.2) ~src:attacker ~dst:victim)

let test_match_order_drop_before_bucket () =
  let t = BT.create () in
  (* A destination limiter with plenty of tokens plus a source drop: the
     drop must win without charging the bucket. *)
  ignore
    (BT.install t ~now:Dsim.Time.zero (BT.Dst (SK.host_of_addr victim))
       (BT.Rate_limit { pps = 1000; burst = 1000 })
       ~expires_at:(sec 60.0) ~reason:"limit" ());
  ignore
    (BT.install t ~now:Dsim.Time.zero (BT.Src (SK.host_of_addr attacker)) BT.Drop
       ~expires_at:(sec 60.0) ~reason:"drop" ());
  check_verdict "drop outranks a flush bucket" (BT.Blocked (Obj.magic 0))
    (BT.decide t ~now:(sec 1.0) ~src:attacker ~dst:victim);
  check_verdict "other sources still limited, not dropped" BT.Pass
    (BT.decide t ~now:(sec 1.0) ~src:(addr "10.9.9.9" 5060) ~dst:victim)

let test_overflow_and_lockdown () =
  let t = BT.create ~max_rules:2 () in
  let install i =
    BT.install t ~now:Dsim.Time.zero
      (BT.Src (SK.host (Printf.sprintf "h%d.example" i)))
      BT.Drop ~expires_at:(sec 60.0) ~reason:"r" ()
  in
  Alcotest.(check bool) "first fits" true (install 0 = BT.Installed);
  Alcotest.(check bool) "second fits" true (install 1 = BT.Installed);
  Alcotest.(check bool) "third overflows" true (install 2 = BT.Overflow);
  Alcotest.(check int) "overflow counted" 1 (BT.stats t ~now:Dsim.Time.zero).BT.overflowed;
  BT.set_lockdown t true;
  check_verdict "lockdown blocks unmatched traffic" BT.Locked
    (BT.decide t ~now:(sec 1.0) ~src:(addr "10.1.1.1" 1) ~dst:(addr "10.1.1.2" 2))

(* The gate runs on every packet in prevention mode: with no rules it
   must not build a single key, and with rules it builds the four scope
   keys without formatting anything (string keys cost ≈1.4 KB). *)
let test_decide_allocation () =
  let t = BT.create () in
  let src = addr "10.1.1.1" 16384 and dst = addr "10.1.1.2" 20000 in
  let n = 1000 in
  (* [Gc.minor_words] is exact and allocates nothing; OCaml 5.1's
     [Gc.allocated_bytes] lags between minor collections. *)
  let per_decide () =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (BT.decide t ~now:(sec 1.0) ~src ~dst)
    done;
    8. *. (Gc.minor_words () -. w0) /. float_of_int n
  in
  let empty = per_decide () in
  if empty > 0. then Alcotest.failf "%.1f B per decide on an empty table, want 0" empty;
  ignore
    (BT.install t ~now:Dsim.Time.zero
       (BT.Src (SK.host "198.51.100.99"))
       BT.Drop ~expires_at:(sec 60.0) ~reason:"r" ());
  let one_rule = per_decide () in
  if one_rule > 1024. then
    Alcotest.failf "%.0f B per decide with one unrelated rule, limit 1024" one_rule

(* ------------------------------------------------------------------ *)
(* checkpoint ∘ crash ∘ recover preserves the table (qcheck)           *)
(* ------------------------------------------------------------------ *)

(* A random enforcement history: installs at increasing times with
   varying TTLs and actions, a sprinkling of decides to charge buckets
   and accumulate hits, and of parse failures charged as strikes (some
   reaching the threshold). *)
let history_gen =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (quad key_gen
         (oneof
            [
              return `Drop;
              map2 (fun pps burst -> `Rate (pps, burst)) (int_range 1 200) (int_range 1 50);
            ])
         (pair (int_range 0 5_000_000) (* install offset us *)
            (int_range 1 120_000_000) (* ttl us *))
         (int_range 0 9) (* strikes *)))

let strike_window = sec 10.0

let strike t ~now key = BT.strike t ~now ~window:strike_window ~threshold:8 key

let history_arb =
  QCheck.make
    ~print:(fun h -> Printf.sprintf "<history of %d installs>" (List.length h))
    history_gen

let build_table history =
  let t = BT.create () in
  let now = ref Dsim.Time.zero in
  List.iteri
    (fun i (key, act, (offset, ttl), strikes) ->
      now := Dsim.Time.add !now (us offset);
      let scope = if i mod 3 = 0 then BT.Dst key else BT.Src key in
      let action =
        match act with
        | `Drop -> BT.Drop
        | `Rate (pps, burst) -> BT.Rate_limit { pps; burst }
      in
      ignore
        (BT.install t ~now:!now scope action
           ~expires_at:(Dsim.Time.add !now (us ttl))
           ~escalate:(i mod 4 = 0) ~reason:(Printf.sprintf "alert-%d" i) ());
      (* Charge some buckets / accumulate hits so the volatile state is
         nonempty when the checkpoint lands. *)
      let h, p =
        match key with SK.Host h -> (h, 5060) | SK.Endpoint (h, p) -> (h, p)
      in
      for _ = 1 to i mod 5 do
        ignore (BT.decide t ~now:!now ~src:(addr h p) ~dst:(addr h p))
      done;
      for _ = 1 to strikes do
        ignore (strike t ~now:!now key)
      done)
    history;
  (t, !now)

let prop_checkpoint_recover_preserves_table =
  q ~count:300 "block_table: restore (serialize t) preserves rules, TTLs, buckets and strikes"
    history_arb (fun history ->
      let t, now = build_table history in
      let payload = BT.serialize t ~now in
      let t' = BT.create () in
      (match BT.restore t' payload with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "restore failed: %s" e);
      (* Volatile state: hits, exact bucket levels and strike counts
         round-trip too — re-serializing yields the identical payload.
         (Checked first: reading the table at a later horizon purges
         lapsed rules, which is the point of the next assertion.) *)
      let payload' = BT.serialize t' ~now in
      if not (String.equal payload payload') then
        QCheck.Test.fail_reportf "payload diverged:\nlive:\n%s\nrecovered:\n%s" payload
          payload';
      (* Durable state: digests agree now and at every later instant
         (TTLs expire identically across the crash). *)
      let horizons = [ now; Dsim.Time.add now (sec 1.0); Dsim.Time.add now (sec 400.0) ] in
      List.iter
        (fun h ->
          if not (String.equal (BT.digest t ~now:h) (BT.digest t' ~now:h)) then
            QCheck.Test.fail_reportf "digest diverged at %d:\nlive:\n%s\nrecovered:\n%s"
              (Dsim.Time.to_us h) (BT.serialize t ~now:h) (BT.serialize t' ~now:h))
        horizons;
      true)

let prop_recovered_gate_decides_identically =
  q ~count:300 "block_table: recovered gate = uninterrupted gate, packet for packet"
    QCheck.(pair history_arb (list_of_size (QCheck.Gen.int_range 1 30) key_arb))
    (fun (history, probes) ->
      let t, now = build_table history in
      let t' = BT.create () in
      (match BT.restore t' (BT.serialize t ~now) with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "restore failed: %s" e);
      (* Fire the same probe sequence at both tables, each probe also a
         parse failure charged to its key, and require the same verdict
         and the same strike outcome every time — this is the property
         that makes crash recovery invisible to the wire. *)
      let i = ref 0 in
      List.for_all
        (fun key ->
          incr i;
          let h, p =
            match key with SK.Host h -> (h, 5060) | SK.Endpoint (h, p) -> (h, p)
          in
          let at = Dsim.Time.add now (us (!i * 10_000)) in
          let src = addr h p and dst = addr "10.2.0.2" 5060 in
          let show = function
            | BT.Pass -> "P"
            | BT.Blocked _ -> "B"
            | BT.Limited _ -> "L"
            | BT.Locked -> "X"
          in
          String.equal
            (show (BT.decide t ~now:at ~src ~dst))
            (show (BT.decide t' ~now:at ~src ~dst))
          && strike t ~now:at key = strike t' ~now:at key)
        probes)

let test_restore_rejects_garbage () =
  let t = BT.create () in
  ignore
    (BT.install t ~now:Dsim.Time.zero (BT.Src (SK.host "a.example")) BT.Drop
       ~expires_at:(sec 9.0) ~reason:"r" ());
  (match BT.restore t "ENF 1 0\nR S 6161 bogus" with
  | Ok () -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  Alcotest.(check int) "failed restore leaves the table empty" 0
    (BT.stats t ~now:Dsim.Time.zero).BT.active

(* The window runs from a key's first strike: the threshold's strike
   counts up to exactly [window] after it, and one strike past that
   starts a fresh count. *)
let test_strike_window () =
  let t = BT.create () in
  let key = SK.of_addr attacker in
  let seven at =
    for _ = 1 to 7 do
      ignore (strike t ~now:at key)
    done
  in
  seven Dsim.Time.zero;
  Alcotest.(check bool) "8th strike just past the window starts over" false
    (strike t ~now:(Dsim.Time.add strike_window (us 1)) key);
  seven (sec 40.0);
  Alcotest.(check bool) "8th strike exactly at the window trips" true
    (strike t ~now:(Dsim.Time.add (sec 40.0) strike_window) key);
  Alcotest.(check bool) "a tripped count starts over" false
    (strike t ~now:(Dsim.Time.add (sec 40.0) strike_window) key)

(* A source cycling ports gets a fresh key per port: the counts stay in
   [max_rules] slots, and a restored table evicts exactly as the live
   one. *)
let test_strike_bound () =
  let t = BT.create ~max_rules:4 () in
  let key p = SK.of_addr (addr "203.0.113.9" p) in
  for p = 1 to 100 do
    ignore (strike t ~now:(sec 1.0) (key p))
  done;
  let strike_lines t =
    List.filter
      (fun l -> String.starts_with ~prefix:"S " l)
      (String.split_on_char '\n' (BT.serialize t ~now:(sec 1.0)))
  in
  Alcotest.(check bool) "at most max_rules counts held" true (List.length (strike_lines t) <= 4);
  let t' = BT.create ~max_rules:4 () in
  (match BT.restore t' (BT.serialize t ~now:(sec 1.0)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore: %s" e);
  for i = 1 to 300 do
    let k = key (95 + (i mod 6)) in
    Alcotest.(check bool) (Printf.sprintf "strike %d: same outcome" i) (strike t ~now:(sec 2.0) k)
      (strike t' ~now:(sec 2.0) k)
  done;
  Alcotest.(check (list string)) "same counts held" (strike_lines t) (strike_lines t')

(* ------------------------------------------------------------------ *)
(* Enforcer end-to-end                                                 *)
(* ------------------------------------------------------------------ *)

let invite ~call_id ~from_host ~callee =
  Printf.sprintf
    "INVITE sip:%s SIP/2.0\r\n\
     Via: SIP/2.0/UDP %s:5060;branch=z9hG4bK%s\r\n\
     From: <sip:mallory@%s>;tag=ta-%s\r\n\
     To: <sip:%s>\r\n\
     Call-ID: %s\r\n\
     CSeq: 1 INVITE\r\n\r\n"
    callee from_host call_id from_host call_id callee call_id

let palloc = Dsim.Packet.allocator ()

let packet ~src ~dst payload =
  Dsim.Packet.make palloc ~src ~dst ~sent_at:Dsim.Time.zero payload

let flood_setup ?policy () =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let e = Enforce.Enforcer.create ?policy sched engine in
  (sched, engine, e)

let run_flood sched e ~n =
  let src = addr "198.51.100.99" 5060 and dst = victim in
  let delivered = ref 0 in
  for i = 1 to n do
    Dsim.Scheduler.schedule_at sched
      (Dsim.Time.of_ms (float_of_int (100 * i)))
      (fun () ->
        let p =
          packet ~src ~dst
            (invite
               ~call_id:(Printf.sprintf "flood-%d" i)
               ~from_host:"198.51.100.99" ~callee:"victim@b.example")
        in
        if Enforce.Enforcer.ingest e p then incr delivered)
    |> ignore
  done;
  Dsim.Scheduler.run sched;
  !delivered

let test_enforcer_blocks_invite_flood () =
  let sched, engine, e = flood_setup () in
  let delivered = run_flood sched e ~n:40 in
  Alcotest.(check bool) "flood detected" true
    (Vids.Engine.alerts_of_kind engine Vids.Alert.Invite_flood <> []);
  let s = Enforce.Enforcer.stats e in
  Alcotest.(check bool)
    (Printf.sprintf "gate stopped the tail (%d delivered)" delivered)
    true
    (delivered < 40 && s.Enforce.Enforcer.blocked = 40 - delivered);
  (* A bystander from a different host still passes. *)
  Alcotest.(check bool) "bystander passes" true
    (Enforce.Enforcer.ingest e
       (packet ~src:(addr "10.1.0.2" 5060) ~dst:victim
          (invite ~call_id:"legit-1" ~from_host:"10.1.0.2" ~callee:"carol@b.example")));
  (* And the block names only the attacker. *)
  List.iter
    (fun (r : BT.rule) ->
      match r.BT.scope with
      | BT.Src k | BT.Dst k ->
          Alcotest.(check string) "rule names the attacker" "198.51.100.99" (SK.to_string k))
    (BT.rules (Enforce.Enforcer.table e) ~now:(Dsim.Scheduler.now sched))

let test_enforcer_block_expires () =
  let policy = { Enforce.Enforcer.default_policy with Enforce.Enforcer.block_ttl = sec 5.0 } in
  let sched, _engine, e = flood_setup ~policy () in
  let delivered = run_flood sched e ~n:40 in
  Alcotest.(check bool) "blocked during the flood" true (delivered < 40);
  (* 5 s after the last refresh the rule lapses and the source passes
     again — TTL'd containment, not a permanent ban. *)
  Dsim.Scheduler.schedule_at sched (sec 600.0) (fun () -> ()) |> ignore;
  Dsim.Scheduler.run sched;
  Alcotest.(check bool) "block lapsed after its TTL" true
    (Enforce.Enforcer.ingest e
       (packet ~src:(addr "198.51.100.99" 5060) ~dst:victim
          (invite ~call_id:"postban-1" ~from_host:"198.51.100.99" ~callee:"late@b.example")))

(* Eight parse failures within 10 s drop the endpoint (not its host) for
   the policy's TTL, through the journal like any rule. *)
let test_malformed_source_threshold_and_ttl () =
  let policy = { Enforce.Enforcer.default_policy with Enforce.Enforcer.block_ttl = sec 5.0 } in
  let sched = Dsim.Scheduler.create () in
  let journaled = ref [] in
  let e =
    Enforce.Enforcer.create ~policy
      ~journal:(fun entry -> journaled := entry :: !journaled)
      sched (Vids.Engine.create sched)
  in
  let src = addr "203.0.113.9" 1000 in
  let send ?(src = src) s =
    Dsim.Scheduler.advance_to sched (sec s);
    Enforce.Enforcer.ingest e (packet ~src ~dst:victim "GARBAGE")
  in
  let rules () = BT.rules (Enforce.Enforcer.table e) ~now:(Dsim.Scheduler.now sched) in
  for i = 0 to 6 do
    Alcotest.(check bool) (Printf.sprintf "failure %d passes" (i + 1)) true
      (send (0.1 *. float_of_int i))
  done;
  Alcotest.(check int) "no rule below the threshold" 0 (List.length (rules ()));
  Alcotest.(check bool) "the 8th failure passes" true (send 0.7);
  (match rules () with
  | [ r ] ->
      Alcotest.(check string) "the rule names the endpoint" "203.0.113.9:1000"
        (match r.BT.scope with BT.Src k | BT.Dst k -> SK.to_string k);
      Alcotest.(check bool) "a drop" true (r.BT.action = BT.Drop);
      Alcotest.(check string) "its reason" "malformed-source" r.BT.reason
  | rs -> Alcotest.failf "%d rules, want the one" (List.length rs));
  Alcotest.(check bool) "journaled as an R line" true
    (List.exists
       (function
         | Vids.Journal.Ext { payload; _ } -> String.starts_with ~prefix:"R S " payload
         | _ -> false)
       !journaled);
  Alcotest.(check bool) "the endpoint is blocked" false (send 0.8);
  Alcotest.(check bool) "same host, other port passes" true
    (send ~src:(addr "203.0.113.9" 1001) 0.8);
  Alcotest.(check bool) "still blocked before the TTL" false (send 5.6);
  Alcotest.(check bool) "released at the TTL" true (send 5.7)

(* Failures spread wider than the window never add up to the
   threshold. *)
let test_malformed_spread_never_trips () =
  let sched, _engine, e = flood_setup () in
  for i = 0 to 15 do
    Dsim.Scheduler.advance_to sched (sec (2.0 *. float_of_int i));
    Alcotest.(check bool) (Printf.sprintf "failure at %d s passes" (2 * i)) true
      (Enforce.Enforcer.ingest e (packet ~src:(addr "203.0.113.9" 2000) ~dst:victim "GARBAGE"))
  done;
  Alcotest.(check int) "never blocked" 0
    (List.length (BT.rules (Enforce.Enforcer.table e) ~now:(Dsim.Scheduler.now sched)))

let test_journal_audits_the_replay () =
  (* Recovery never applies the journal: it replays the capture and
     checks the replay against the journal.  This journal holds, after
     its marker, an install at 2 s and an alert that no packet of the
     capture causes: recovery installs nothing, and lists both by their
     journal lines as not reproduced. *)
  let snap = Test_ingest.tmp_path ".ck" and capture = Test_ingest.tmp_path ".trace" in
  let journal = snap ^ ".journal" in
  let sched = Dsim.Scheduler.create () in
  Vids.Snapshot.save ~path:snap
    (Vids.Snapshot.capture ~seq:1 ~at:Dsim.Time.zero (Vids.Engine.create sched));
  let line =
    let t = BT.create () in
    ignore
      (BT.install t ~now:(sec 2.0) (BT.Src (SK.host "198.51.100.99")) BT.Drop
         ~expires_at:(sec 62.0) ~reason:"INVITE-flood" ());
    BT.rule_to_line (Option.get (BT.find t (BT.Src (SK.host "198.51.100.99"))))
  in
  let w = Vids.Journal.create_writer journal in
  Vids.Journal.append w (Vids.Journal.Checkpoint { at = Dsim.Time.zero; seq = 1 });
  Vids.Journal.append w
    (Vids.Journal.Ext { at = sec 2.0; tag = Enforce.Enforcer.ext_tag; payload = line });
  Vids.Journal.append w
    (Vids.Journal.Alert
       (Vids.Alert.make ~kind:Vids.Alert.Invite_flood ~at:(sec 2.5) ~subject:"sip:x@b.example"
          "forged"));
  Vids.Journal.close_writer w;
  let oc = open_out_bin capture in
  Vids.Trace.save oc
    (List.map
       (fun s ->
         {
           Vids.Trace.at = sec s;
           src = attacker;
           dst = victim;
           payload =
             invite ~call_id:(Printf.sprintf "t-%g" s) ~from_host:"198.51.100.99"
               ~callee:"x@b.example";
         })
       [ 1.0; 2.0; 3.0 ]);
  close_out oc;
  let recovered =
    Enforce.Recover.recover_files ~journal_path:journal ~trace_path:capture ~until:(sec 4.0)
      ~snapshot_path:snap ()
  in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ snap; journal; capture ];
  match recovered with
  | Error err -> Alcotest.failf "recovery: %s" err
  | Ok (fr, e) ->
      let s = Enforce.Enforcer.stats e in
      Alcotest.(check int) "every packet passed" 3 s.Enforce.Enforcer.passed;
      Alcotest.(check int) "none blocked" 0 s.Enforce.Enforcer.blocked;
      Alcotest.(check int) "no rule installed" 0
        (List.length (BT.rules (Enforce.Enforcer.table e) ~now:(sec 4.0)));
      let o = fr.Vids.Recovery.outcome in
      Alcotest.(check int) "two entries after the marker audited" 2 o.Vids.Recovery.audited;
      Alcotest.(check (list int)) "the install and the forged alert, by journal line" [ 2; 3 ]
        (List.map fst o.Vids.Recovery.not_reproduced)

let test_fail_closed_on_corrupt_restore () =
  let open_policy = Enforce.Enforcer.default_policy in
  let closed_policy = { open_policy with Enforce.Enforcer.fail_closed = true } in
  let probe e =
    Enforce.Enforcer.ingest e
      (packet ~src:(addr "10.1.0.2" 5060) ~dst:victim
         (invite ~call_id:"probe" ~from_host:"10.1.0.2" ~callee:"p@b.example"))
  in
  let _, _, open_e = flood_setup ~policy:open_policy () in
  (match Enforce.Enforcer.restore open_e ~payload:"garbage" with
  | Ok () -> Alcotest.fail "corrupt payload accepted"
  | Error _ -> ());
  Alcotest.(check bool) "fail-open: detection continues" true (probe open_e);
  let _, _, closed_e = flood_setup ~policy:closed_policy () in
  (match Enforce.Enforcer.restore closed_e ~payload:"garbage" with
  | Ok () -> Alcotest.fail "corrupt payload accepted"
  | Error _ -> ());
  Alcotest.(check bool) "fail-closed: gate locks down" false (probe closed_e);
  Alcotest.(check bool) "lockdown flagged" true
    (BT.lockdown (Enforce.Enforcer.table closed_e))

(* ------------------------------------------------------------------ *)
(* Enforcing daemon: containment, replay, kill -9                      *)
(* ------------------------------------------------------------------ *)

(* 400 legitimate calls, each to its own callee so that nothing benign
   resembles a flood, and from 1 s in 60 INVITEs 40 ms apart from one
   host to one victim. *)
let flood_capture () =
  let flood =
    List.init 60 (fun i ->
        {
          Vids.Trace.at = Dsim.Time.add (sec 1.0) (Dsim.Time.of_ms (40. *. float_of_int i));
          src = attacker;
          dst = victim;
          payload =
            invite ~call_id:(Printf.sprintf "flood-%d" i) ~from_host:"198.51.100.99"
              ~callee:"victim@b.example";
        })
  in
  Test_ingest.by_time
    (Test_recovery.make_calls ~callee:(Printf.sprintf "peer%d") ~calls:400 @ flood)

(* A garbage endpoint whose eight parse failures straddle the 6 s
   checkpoint of the killed run below, five before it and three after,
   then one more datagram at the eighth's instant, which the live gate
   drops.  Recovery re-derives the endpoint's rule from its strikes, so
   it drops that datagram only if the checkpoint carried the first five
   failures.  One failure from the neighbouring port follows: its
   spec deviation is journaled, which puts the dropped datagram in the
   tee a kill leaves. *)
let garbage_src = addr "203.0.113.7" 7000

let garbage_around_checkpoint () =
  List.map
    (fun (s, src) -> { Vids.Trace.at = sec s; src; dst = victim; payload = "GARBAGE" })
    (List.map (fun s -> (s, garbage_src)) [ 5.5; 5.6; 5.7; 5.8; 5.9; 6.1; 6.2; 6.3; 6.3 ]
    @ [ (6.4, addr "203.0.113.7" 7001) ])

let enforcing_daemon (label, records, rule_keys, hostile, kill_batch) =
  let check what = Alcotest.(check bool) (label ^ ": " ^ what) true in
  let check_str what = Alcotest.(check string) (label ^ ": " ^ what) in
  let path = Test_ingest.tmp_path ".pcap" in
  let snap = Test_ingest.tmp_path ".ck" and capture = Test_ingest.tmp_path ".trace" in
  Ingest.Pcap.write_file path records;
  let policy = Enforce.Enforcer.default_policy in
  let config = { Ingest.Daemon.default with Ingest.Daemon.enforce = Some policy; batch = 64 } in
  let source = [ Ingest.Daemon.Pcap_file { path; pace = false } ] in
  let clean = Test_ingest.run_daemon ~config source in
  let e = Option.get clean.Ingest.Daemon.enforcer in
  let s = Enforce.Enforcer.stats e in
  let horizon = clean.Ingest.Daemon.horizon in
  check "flood detected"
    (Vids.Engine.alerts_of_kind clean.Ingest.Daemon.engine Vids.Alert.Invite_flood <> []);
  (* The detection window lets a few INVITEs through before the alert
     trips; everything after the rule lands dies at the gate. *)
  check
    (Printf.sprintf "%d of 60 flood INVITEs blocked, at least 48" s.Enforce.Enforcer.blocked)
    (s.Enforce.Enforcer.blocked >= 48 && s.Enforce.Enforcer.blocked > 0);
  (* Zero false blocks: every rule names the attacker or the garbage
     endpoint, and only their packets were stopped. *)
  let rules e now = BT.rules (Enforce.Enforcer.table e) ~now in
  let key (r : BT.rule) = match r.BT.scope with BT.Src k | BT.Dst k -> SK.to_string k in
  Alcotest.(check (list string))
    (label ^ ": rules name the attacker and the garbage endpoint")
    rule_keys
    (List.sort_uniq compare (List.map key (rules e horizon)));
  List.iter
    (fun r ->
      if key r = SK.to_string (SK.of_addr garbage_src) then
        check_str "the endpoint's rule" "malformed-source" r.BT.reason)
    (rules e horizon);
  check "blocked at most the hostile packets" (s.Enforce.Enforcer.blocked <= hostile);
  Alcotest.(check int) (label ^ ": passed + blocked = every record") (List.length records)
    (s.Enforce.Enforcer.passed + s.Enforce.Enforcer.blocked);
  (* A cold offline replay through a fresh gate lands on the same engine
     state, rule table and enforce payload. *)
  let md5 ~at engine = Digest.to_hex (Digest.string (Vids.Snapshot.digest ~at engine)) in
  let replay ~until records =
    let sched = Dsim.Scheduler.create () in
    let engine = Vids.Engine.create sched in
    let gate = Enforce.Enforcer.create ~policy sched engine in
    Vids.Trace.play ~until
      (Vids.Trace.player sched engine ~gate:(fun p -> ignore (Enforce.Enforcer.ingest gate p)))
      records;
    (engine, gate)
  in
  let agree what ~at (engine, gate) (engine', gate') =
    check_str (what ^ ": engine digest") (md5 ~at engine) (md5 ~at engine');
    check_str (what ^ ": enforcement digest") (Enforce.Enforcer.digest gate)
      (Enforce.Enforcer.digest gate');
    check_str (what ^ ": enforce payload") (Enforce.Enforcer.snapshot_payload gate)
      (Enforce.Enforcer.snapshot_payload gate')
  in
  agree "replay" ~at:horizon (clean.Ingest.Daemon.engine, e) (replay ~until:horizon records);
  (* kill -9 with the block live: recovery from snapshot + journal +
     capture restores the clean run's rules (their TTL outlives the
     capture, and none is installed after the kill) and its alerts, and
     agrees with the killed gate and a replay of its capture. *)
  let config =
    {
      config with
      Ingest.Daemon.checkpoint_every_s = 2.0;
      snapshot_path = Some snap;
      journal_path = Some (snap ^ ".journal");
      record_path = Some capture;
    }
  in
  let hard_kill = ref false and batches = ref 0 in
  let killed =
    Test_ingest.run_daemon ~config ~hard_kill
      ~on_batch:(fun () ->
        incr batches;
        if !batches = kill_batch then hard_kill := true)
      source
  in
  let active e = (Enforce.Enforcer.stats e).Enforce.Enforcer.table.BT.active in
  let live = Option.get killed.Ingest.Daemon.enforcer in
  check "killed mid-capture" (killed.Ingest.Daemon.stop_reason = Ingest.Daemon.Killed);
  check "a rule live at the kill" (active live > 0);
  let until = killed.Ingest.Daemon.horizon in
  let recovered =
    Enforce.Recover.recover_files ~policy ~journal_path:(snap ^ ".journal") ~trace_path:capture
      ~until ~snapshot_path:snap ()
  in
  let tee = Vids.Pcap.read_file capture in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; snap; snap ^ ".1"; snap ^ ".journal"; capture ];
  match (recovered, tee) with
  | Error err, _ | _, Error err -> Alcotest.failf "%s: recovery: %s" label err
  | Ok (fr, recovered), Ok (tee, _, _) ->
      check_str "recovered enforcement digest" (Enforce.Enforcer.digest e)
        (Enforce.Enforcer.digest recovered);
      Alcotest.(check (list string)) (label ^ ": recovered alert set")
        (Test_ingest.alert_keys clean.Ingest.Daemon.engine)
        (Test_ingest.alert_keys fr.Vids.Recovery.outcome.Vids.Recovery.engine);
      check "a rule still active" (active recovered > 0);
      check_str "recovered enforce payload = the killed gate's"
        (Enforce.Enforcer.snapshot_payload live)
        (Enforce.Enforcer.snapshot_payload recovered);
      agree "recovered" ~at:until
        (fr.Vids.Recovery.outcome.Vids.Recovery.engine, recovered)
        (replay ~until tee)

(* An INVITE of the flood from the attacker to the victim. *)
let flood_invite ~at call_id =
  {
    Vids.Trace.at;
    src = attacker;
    dst = victim;
    payload = invite ~call_id ~from_host:"198.51.100.99" ~callee:"victim@b.example";
  }

(* The daemon rebases time onto its first record: one at 0 s keeps the
   flood at the instants it is drawn at. *)
let pin =
  { Vids.Trace.at = Dsim.Time.zero; src = addr "10.1.0.10" 9; dst = addr "10.2.0.10" 9;
    payload = "pin" }

type killed_run = {
  live : Enforce.Enforcer.t;  (** The killed daemon's gate. *)
  until : Dsim.Time.t;  (** The killed run's horizon. *)
  recovered : Vids.Recovery.outcome * Enforce.Enforcer.t;
  replayed : Vids.Engine.t * Enforce.Enforcer.t;  (** A gated replay of the tee. *)
}

(* [f] over a pcap file of [records], removed when [f] returns or raises. *)
let with_capture records f =
  let path = Test_ingest.tmp_path ".pcap" in
  Ingest.Pcap.write_file path records;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* The enforcing daemon over the capture at [path] with batch 1, a
   journal, a tee and a checkpoint every [every] seconds, killed after
   batch [kill]; then recovery from its files and a gated replay of its
   tee, every file it wrote removed.  [Ok None] when the kill left no
   checkpoint. *)
let kill_and_recover ~every ~kill path =
  let snap = Test_ingest.tmp_path ".ck" and capture = Test_ingest.tmp_path ".trace" in
  let journal = snap ^ ".journal" in
  let policy = Enforce.Enforcer.default_policy in
  let config =
    {
      Ingest.Daemon.default with
      Ingest.Daemon.enforce = Some policy;
      batch = 1;
      checkpoint_every_s = every;
      snapshot_path = Some snap;
      journal_path = Some journal;
      record_path = Some capture;
    }
  in
  let hard_kill = ref false and batches = ref 0 in
  let killed =
    Test_ingest.run_daemon ~config ~hard_kill
      ~on_batch:(fun () ->
        incr batches;
        if !batches = kill then hard_kill := true)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  let until = killed.Ingest.Daemon.horizon in
  let files =
    if not (Sys.file_exists snap) then None
    else
      Some
        ( Enforce.Recover.recover_files ~policy ~journal_path:journal ~trace_path:capture ~until
            ~snapshot_path:snap (),
          Vids.Pcap.read_file capture )
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ snap; Vids.Snapshot.previous_path snap; journal; capture ];
  match files with
  | None -> Ok None
  | Some ((Error err, _) | (_, Error err)) -> Error err
  | Some (Ok (fr, e), Ok (tee, _, _)) ->
      let sched = Dsim.Scheduler.create () in
      let engine = Vids.Engine.create sched in
      let gate = Enforce.Enforcer.create ~policy sched engine in
      Vids.Trace.play ~until
        (Vids.Trace.player sched engine ~gate:(fun p -> ignore (Enforce.Enforcer.ingest gate p)))
        tee;
      Ok
        (Some
           {
             live = Option.get killed.Ingest.Daemon.enforcer;
             until;
             recovered = (fr.Vids.Recovery.outcome, e);
             replayed = (engine, gate);
           })

(* What a recovery must share with a gated replay of its tee, as (what,
   replayed, recovered): engine digest, enforcement digest and payload,
   and an audit that lists no journal line. *)
let replay_vs_recovery k =
  let o, e = k.recovered and engine, gate = k.replayed in
  let md5 engine = Digest.to_hex (Digest.string (Vids.Snapshot.digest ~at:k.until engine)) in
  [
    ("engine digest", md5 engine, md5 o.Vids.Recovery.engine);
    ("enforcement digest", Enforce.Enforcer.digest gate, Enforce.Enforcer.digest e);
    ( "enforce payload",
      Enforce.Enforcer.snapshot_payload gate,
      Enforce.Enforcer.snapshot_payload e );
    ( "journal lines not reproduced",
      "",
      String.concat " "
        (List.map (fun (line, _) -> string_of_int line) o.Vids.Recovery.not_reproduced) );
  ]

let check_recovery label k =
  List.iter
    (fun (what, replayed, recovered) ->
      Alcotest.(check string) (label ^ what) replayed recovered)
    (replay_vs_recovery k)

(* Several records at one instant, the rule tripped mid-burst: the 7th
   of twelve flood INVITEs 40 ms apart trips the rule at 1.24 s, and one
   more INVITE from the attacker shares that instant, which the live gate
   drops inside the same step.  A checkpoint at 0.9 s precedes the trip,
   and the kill follows a garbage datagram whose spec deviation is
   journaled.  Recovery must re-take the decision inside the tripping
   step, as the live gate did. *)
let test_same_instant_recovery () =
  let flood =
    List.init 11 (fun i ->
        flood_invite ~at:(sec (1.0 +. (0.04 *. float_of_int i))) (Printf.sprintf "burst-%d" i))
  in
  let records =
    (pin :: List.filteri (fun i _ -> i <= 6) flood)
    @ [ flood_invite ~at:(sec 1.24) "burst-extra" ]
    @ List.filteri (fun i _ -> i > 6) flood
    @ [ { Vids.Trace.at = sec 1.5; src = addr "203.0.113.8" 7000; dst = victim;
          payload = "GARBAGE" } ]
  in
  match with_capture records (kill_and_recover ~every:0.9 ~kill:14) with
  | Error err -> Alcotest.failf "recovery: %s" err
  | Ok None -> Alcotest.fail "no checkpoint before the kill"
  | Ok (Some k) ->
      let hits e =
        match BT.find (Enforce.Enforcer.table e) (BT.Src (SK.host "198.51.100.99")) with
        | Some r -> r.BT.hits
        | None -> Alcotest.fail "no flood rule"
      in
      Alcotest.(check int) "the killed gate's flood-rule hits" 5 (hits k.live);
      Alcotest.(check int) "the recovered flood rule's hits" (hits k.live) (hits (snd k.recovered));
      check_recovery "recovered vs a gated replay of the tee: " k

(* The enforcing daemon over the invite-flood capture, built as [vids-cli
   record invite-flood] builds it, with batch 1 and a 5 s checkpoint,
   killed after each batch in turn: every kill that leaves a checkpoint
   recovers to a gated replay of its tee, and the audit lists nothing. *)
let test_kill_after_every_batch () =
  let tb = Voip.Testbed.make ~seed:1 ~vids:Voip.Testbed.Off () in
  let recorder = Vids.Trace.recorder () in
  Dsim.Network.set_tap tb.Voip.Testbed.vids_node
    (Some (Vids.Trace.tap recorder tb.Voip.Testbed.sched));
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  Attack.Scenarios.schedule atk ~on_unknown:(fun _ -> ()) [ "invite-flood" ];
  Voip.Testbed.run_until tb (sec 65.0);
  let records = Vids.Trace.records recorder in
  let recovered_kills = ref 0 in
  with_capture records (fun path ->
      for kill = 1 to List.length records do
        match kill_and_recover ~every:5.0 ~kill path with
        | Error err -> Alcotest.failf "kill after batch %d: recovery: %s" kill err
        | Ok None -> ()
        | Ok (Some k) ->
            incr recovered_kills;
            check_recovery (Printf.sprintf "kill after batch %d: " kill) k
      done);
  Alcotest.(check bool) (Printf.sprintf "%d kills left a checkpoint" !recovered_kills) true
    (!recovered_kills > 0)

(* Flood bursts at one instant, under a kill at any batch: [instants]
   instants 40 ms apart from 1 s, each with 1 to 3 flood INVITEs, and a
   garbage datagram from a fresh port after the instants drawn for it.
   The daemon runs with batch 1 and a checkpoint every 0.9 s (so one
   falls before the flood trips) and is killed after batch [kill].
   Every kill that leaves a checkpoint recovers to a gated replay of its
   tee, and the audit lists nothing. *)
let burst_arb =
  QCheck.make
    ~print:(fun (bursts, kill) ->
      Printf.sprintf "bursts=[%s] kill=%d"
        (String.concat ";"
           (List.map (fun (n, g) -> Printf.sprintf "%d%s" n (if g then "+g" else "")) bursts))
        kill)
    QCheck.Gen.(
      pair
        (list_size (int_range 6 15) (pair (int_range 1 3) (map (fun k -> k = 0) (int_range 0 2))))
        (int_range 1 60))

let prop_burst_recovery =
  q ~count:30 "recovery: flood bursts at one instant, killed anywhere = a replay of the tee"
    burst_arb (fun (bursts, kill) ->
      let burst i (n, garbage) =
        let at = sec (1.0 +. (0.04 *. float_of_int i)) in
        List.init n (fun j -> flood_invite ~at (Printf.sprintf "b-%d-%d" i j))
        @
        if garbage then
          [ { Vids.Trace.at = Dsim.Time.add at (Dsim.Time.of_ms 10.);
              src = addr "203.0.113.8" (7000 + i); dst = victim; payload = "GARBAGE" } ]
        else []
      in
      let records = pin :: List.concat (List.mapi burst bursts) in
      match with_capture records (kill_and_recover ~every:0.9 ~kill) with
      | Error err -> QCheck.Test.fail_reportf "recovery: %s" err
      | Ok None -> true
      | Ok (Some k) ->
          List.for_all
            (fun (what, replayed, recovered) ->
              String.equal replayed recovered
              || QCheck.Test.fail_reportf "%s:\nreplay:\n%s\nrecovered:\n%s" what replayed
                   recovered)
            (replay_vs_recovery k))

let test_enforcing_daemon () =
  let flood = flood_capture () in
  let with_garbage = Test_ingest.by_time (flood @ garbage_around_checkpoint ()) in
  let last_garbage = ref 0 in
  List.iteri
    (fun i r -> if Dsim.Addr.host r.Vids.Trace.src = "203.0.113.7" then last_garbage := i)
    with_garbage;
  List.iter enforcing_daemon
    [
      (* Killed at 70% of the batches. *)
      ("flood", flood, [ "198.51.100.99" ], 60, ((List.length flood / 64) + 1) * 7 / 10);
      (* Killed once the batch holding the neighbour's failure is
         dispatched, before the next checkpoint, at 8 s. *)
      ( "flood and a garbage endpoint",
        with_garbage,
        [ "198.51.100.99"; SK.to_string (SK.of_addr garbage_src) ],
        61,
        (!last_garbage / 64) + 1 );
    ]

(* Process history cannot change a verdict.  The enforcing daemon, with
   journal and checkpoints, reads the flood, garbage and media capture,
   then a capture of other garbage, folded and many-headed messages, stray
   responses and a message refused mid-head, then the first capture
   again: the first and third runs report the same engine and enforcement
   digests, alerts and rules, so nothing the second run read (the SIP
   index the engine reads through, and the address-keyed spam detectors,
   among it) shows through. *)
let other_garbage () =
  let from = addr "192.0.2.44" 5060 in
  let stray i =
    Printf.sprintf
      "SIP/2.0 486 Busy Here\r\nVia: SIP/2.0/UDP 192.0.2.44:5060;branch=z9hG4bKs%d\r\n\
       From: <sip:x@192.0.2.44>;tag=f%d\r\nTo: <sip:y@b.example>;tag=t%d\r\n\
       Call-ID: stray-%d\r\nCSeq: %d INVITE\r\nContent-Length: 0\r\n\r\n"
      i i i i i
  in
  let folded i =
    Printf.sprintf "OPTIONS sip:y@b.example SIP/2.0\r\nCall-ID: folded-%d\r\n  continued\r\n%s\r\n"
      i (String.concat "\r\n" (List.init 30 (Printf.sprintf "X-Filler-%d: %d" i)))
  in
  List.concat
    (List.init 40 (fun i ->
         let at = sec (0.1 *. float_of_int i) in
         [
           { Vids.Trace.at; src = garbage_src; dst = victim; payload = "GARBAGE" };
           { Vids.Trace.at; src = from; dst = victim; payload = folded i };
           { Vids.Trace.at; src = from; dst = victim; payload = stray i };
         ]))
  (* Last, between endpoints no rule names, a message refused after a
     field was read. *)
  @ [
      {
        Vids.Trace.at = sec 4.0;
        src = addr "192.0.2.77" 5060;
        dst = addr "10.3.0.3" 5060;
        payload =
          "OPTIONS sip:y@b.example SIP/2.0\r\nCall-ID: refused\r\nno colon\r\n\
           Max-Forwards: 70\r\n\r\n";
      };
    ]

(* A stream in order for 4 s at 50 packets a second, and at 2 s a burst
   into it from another source under a foreign SSRC above 2^31, which its
   spam detector flags. *)
let stream_and_spam_burst () =
  let dst = addr "10.2.0.20" 20000 in
  let rtp ~ssrc seq =
    Rtp.Rtp_packet.encode
      (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:seq ~timestamp:(Int32.of_int (160 * seq))
         ~ssrc (String.make 20 'm'))
  in
  List.init 200 (fun i ->
      {
        Vids.Trace.at = Dsim.Time.of_ms (20. *. float_of_int i);
        src = addr "10.1.0.20" 20000;
        dst;
        payload = rtp ~ssrc:0x1234l (i + 1);
      })
  @ List.init 10 (fun i ->
        {
          Vids.Trace.at = Dsim.Time.add (sec 2.0) (Dsim.Time.of_ms (float_of_int i));
          src = addr "198.51.100.23" 40000;
          dst;
          payload = rtp ~ssrc:0x8000_4321l (30_000 + i);
        })

let test_history_independent () =
  let attack =
    Test_ingest.by_time
      (flood_capture () @ garbage_around_checkpoint () @ stream_and_spam_burst ())
  in
  let run records =
    let path = Test_ingest.tmp_path ".pcap" and snap = Test_ingest.tmp_path ".ck" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; snap; snap ^ ".1"; snap ^ ".journal"; snap ^ ".tee" ])
      (fun () ->
        Ingest.Pcap.write_file path records;
        let config =
          {
            Ingest.Daemon.default with
            Ingest.Daemon.enforce = Some Enforce.Enforcer.default_policy;
            batch = 64;
            checkpoint_every_s = 2.0;
            snapshot_path = Some snap;
            journal_path = Some (snap ^ ".journal");
            record_path = Some (snap ^ ".tee");
          }
        in
        let r = Test_ingest.run_daemon ~config [ Ingest.Daemon.Pcap_file { path; pace = false } ] in
        let e = Option.get r.Ingest.Daemon.enforcer and at = r.Ingest.Daemon.horizon in
        [
          ( "engine digest",
            Digest.to_hex (Digest.string (Vids.Snapshot.digest ~at r.Ingest.Daemon.engine)) );
          ("enforcement digest", Enforce.Enforcer.digest e);
          ( "alerts",
            String.concat "\n"
              (List.map (Format.asprintf "%a" Vids.Alert.pp)
                 (Vids.Engine.alerts r.Ingest.Daemon.engine)) );
          ( "rules",
            String.concat "\n"
              (List.map BT.rule_to_line (BT.rules (Enforce.Enforcer.table e) ~now:at)) );
        ])
  in
  let first = run attack in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "the burst is flagged on its stream" true
    (contains (List.assoc "alerts" first) "stream:10.2.0.20:20000");
  ignore (run (other_garbage ()));
  let third = run attack in
  List.iter2
    (fun (what, a) (_, b) -> Alcotest.(check string) ("first and third run: " ^ what) a b)
    first third

(* ------------------------------------------------------------------ *)
(* Response coverage on the Figure-7 testbed                           *)
(* ------------------------------------------------------------------ *)

(* What the response map owes each scenario's alert: a forced teardown,
   a rule, both, or a rule after which packets die at the gate. *)
let owed_responses =
  [
    ("bye-dos", Vids.Alert.Bye_dos, `Teardown);
    ("cancel-dos", Vids.Alert.Cancel_dos, `Both);
    ("hijack", Vids.Alert.Call_hijack, `Both);
    ("media-spam", Vids.Alert.Media_spam, `Rule_stops);
    ("billing-fraud", Vids.Alert.Billing_fraud, `Teardown);
    ("invite-flood", Vids.Alert.Invite_flood, `Rule_stops);
    ("rtp-flood", Vids.Alert.Rtp_flood, `Rule_stops);
    ("drdos", Vids.Alert.Drdos, `Rule);
  ]

let test_response_coverage () =
  let module T = Voip.Testbed in
  Alcotest.(check (list string)) "every scenario owes a response" Attack.Scenarios.names
    (List.map (fun (name, _, _) -> name) owed_responses);
  List.iter
    (fun (name, kind, owed) ->
      let tb = T.make ~seed:11 ~vids:T.Monitor () in
      let engine = T.engine_exn tb in
      let e = Enforce.Enforcer.create tb.T.sched engine in
      Dsim.Network.set_tap tb.T.vids_node
        (Some (fun pkt -> ignore (Enforce.Enforcer.ingest e pkt)));
      let check what = Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true in
      let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
      (* The first attack of a schedule starts at 5 s against UA pair 0. *)
      Attack.Scenarios.schedule atk [ name ] ~on_unknown:(fun _ -> check "launched" false);
      T.run_until tb (sec 40.0);
      let s = Enforce.Enforcer.stats e in
      let rules = s.Enforce.Enforcer.table.BT.installed
      and teardowns = s.Enforce.Enforcer.teardowns in
      check "alert" (Vids.Engine.alerts_of_kind engine kind <> []);
      (match owed with
      | `Teardown -> check "teardown" (teardowns > 0)
      | `Rule -> check "rule" (rules > 0)
      | `Both -> check "teardown and rule" (teardowns > 0 && rules > 0)
      | `Rule_stops ->
          check "rule and blocked packets" (rules > 0 && s.Enforce.Enforcer.blocked > 0)))
    owed_responses

let suite =
  [
    ( "enforce.source_key",
      [
        Alcotest.test_case "normalization and addr projection" `Quick
          test_source_key_normalize;
        prop_source_key_roundtrip;
      ] );
    ( "enforce.table",
      [
        Alcotest.test_case "TTL boundary: blocked at T-1us, free at T" `Quick
          test_ttl_boundary;
        Alcotest.test_case "refresh extends, Drop dominates" `Quick
          test_refresh_extends_and_drop_dominates;
        Alcotest.test_case "token bucket charges and refills" `Quick test_token_bucket;
        Alcotest.test_case "drop outranks limiter" `Quick test_match_order_drop_before_bucket;
        Alcotest.test_case "overflow and lockdown" `Quick test_overflow_and_lockdown;
        Alcotest.test_case "restore is total on garbage" `Quick test_restore_rejects_garbage;
        Alcotest.test_case "decide: nothing allocated on an empty table, <=1 KB with a rule"
          `Quick test_decide_allocation;
        Alcotest.test_case "strike window: from a key's first strike" `Quick
          test_strike_window;
        Alcotest.test_case "strikes stay in max_rules slots, evicted alike after restore" `Quick
          test_strike_bound;
      ] );
    ( "enforce.recovery",
      [
        prop_checkpoint_recover_preserves_table;
        prop_recovered_gate_decides_identically;
        prop_burst_recovery;
      ] );
    ( "enforce.e2e",
      [
        Alcotest.test_case "INVITE flood blocked at the gate" `Quick
          test_enforcer_blocks_invite_flood;
        Alcotest.test_case "block lapses after its TTL" `Quick test_enforcer_block_expires;
        Alcotest.test_case "parse failures drop the endpoint: 8 in 10 s, until the TTL" `Quick
          test_malformed_source_threshold_and_ttl;
        Alcotest.test_case "parse failures wider than the window never drop" `Quick
          test_malformed_spread_never_trips;
        Alcotest.test_case "a journal entry the capture does not cause is listed, not applied"
          `Quick test_journal_audits_the_replay;
        Alcotest.test_case "fail-open vs fail-closed on corrupt state" `Quick
          test_fail_closed_on_corrupt_restore;
        Alcotest.test_case "enforcing daemon contains a flood, replays and recovers" `Quick
          test_enforcing_daemon;
        Alcotest.test_case "recovery re-takes a decision inside the step that tripped it" `Quick
          test_same_instant_recovery;
        Alcotest.test_case "every kill of the enforcing daemon recovers to a replay of its tee"
          `Quick test_kill_after_every_batch;
        Alcotest.test_case "every attack scenario gets its mapped response" `Quick
          test_response_coverage;
        Alcotest.test_case "a daemon run reads the same after a run over other traffic" `Quick
          test_history_independent;
      ] );
  ]
