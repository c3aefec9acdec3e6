(* TTL'd block/rate-limit rule table.  See block_table.mli for the
   determinism contract (absolute deadlines, lazy expiry, exact bucket
   round-trip, idempotent upsert). *)

module Codec = Vids.Codec

type scope = Src of Source_key.t | Dst of Source_key.t
type action = Drop | Rate_limit of { pps : int; burst : int }
type bucket = { mutable tokens : float; mutable last : Dsim.Time.t }

type rule = {
  scope : scope;
  mutable action : action;
  mutable installed_at : Dsim.Time.t;
  mutable expires_at : Dsim.Time.t;
  mutable escalate : bool;
  mutable reason : string;
  mutable hits : int;
  serial : int;
  buckets : (string, bucket) Hashtbl.t;
}

type stats = {
  active : int;
  installed : int;
  refreshed : int;
  expired : int;
  overflowed : int;
  dropped : int;
  limited : int;
}

type strike = { s_key : Source_key.t; mutable count : int; mutable until : Dsim.Time.t }

type t = {
  table : (scope, rule) Hashtbl.t;
  strikes : (int, strike) Hashtbl.t;  (** By slot; see [strike]. *)
  t_max_rules : int;
  on_expire : scope -> unit;
  mutable next_serial : int;
  mutable t_lockdown : bool;
  mutable s_installed : int;
  mutable s_refreshed : int;
  mutable s_expired : int;
  mutable s_overflowed : int;
  mutable s_dropped : int;
  mutable s_limited : int;
}

(* A rule's buckets are keyed by offending source, which is
   attacker-controlled: past this many distinct sources the overflow
   shares one bucket, keeping the rule's footprint bounded (and the
   degradation deterministic — insertion order decides who shares). *)
let max_buckets_per_rule = 4096

let create ?(max_rules = 4096) ?(on_expire = fun _ -> ()) () =
  if max_rules <= 0 then invalid_arg "Block_table.create: max_rules must be positive";
  {
    table = Hashtbl.create 64;
    strikes = Hashtbl.create 16;
    t_max_rules = max_rules;
    on_expire;
    next_serial = 0;
    t_lockdown = false;
    s_installed = 0;
    s_refreshed = 0;
    s_expired = 0;
    s_overflowed = 0;
    s_dropped = 0;
    s_limited = 0;
  }

let lockdown t = t.t_lockdown
let set_lockdown t v = t.t_lockdown <- v

let expire_rule t r =
  Hashtbl.remove t.table r.scope;
  t.s_expired <- t.s_expired + 1;
  t.on_expire r.scope

let lookup t ~now scope =
  match Hashtbl.find_opt t.table scope with
  | None -> None
  | Some r ->
      if Dsim.Time.( >= ) now r.expires_at then (
        expire_rule t r;
        None)
      else Some r

let find t scope = Hashtbl.find_opt t.table scope

let purge_expired t ~now =
  let stale =
    Hashtbl.fold
      (fun _ r acc -> if Dsim.Time.( >= ) now r.expires_at then r :: acc else acc)
      t.table []
  in
  List.iter (expire_rule t) stale;
  List.length stale

type install_outcome = Installed | Refreshed | Overflow

let install t ~now scope action ~expires_at ?(escalate = false) ~reason () =
  ignore (purge_expired t ~now);
  match Hashtbl.find_opt t.table scope with
  | Some r ->
      (* Refresh: deadline extends, Drop dominates, escalate is sticky,
         the original reason/install time (first cause) stand. *)
      r.expires_at <- Dsim.Time.max r.expires_at expires_at;
      (match (r.action, action) with
      | Drop, _ -> ()
      | _, a -> r.action <- a);
      r.escalate <- r.escalate || escalate;
      t.s_refreshed <- t.s_refreshed + 1;
      Refreshed
  | None ->
      if Hashtbl.length t.table >= t.t_max_rules then (
        t.s_overflowed <- t.s_overflowed + 1;
        Overflow)
      else (
        let r =
          {
            scope;
            action;
            installed_at = now;
            expires_at;
            escalate;
            reason;
            hits = 0;
            serial = t.next_serial;
            buckets = Hashtbl.create 4;
          }
        in
        t.next_serial <- t.next_serial + 1;
        Hashtbl.replace t.table scope r;
        t.s_installed <- t.s_installed + 1;
        Installed)

(* --------------------------------------------------------------- *)
(* The per-packet gate                                              *)
(* --------------------------------------------------------------- *)

let bucket_for r key =
  match Hashtbl.find_opt r.buckets key with
  | Some b -> Some b
  | None ->
      if Hashtbl.length r.buckets >= max_buckets_per_rule then Hashtbl.find_opt r.buckets "*"
      else None

let take_token r ~now ~key ~pps ~burst =
  let b =
    match bucket_for r key with
    | Some b -> b
    | None ->
        let key =
          if Hashtbl.length r.buckets >= max_buckets_per_rule then "*" else key
        in
        let b = { tokens = float_of_int burst; last = now } in
        Hashtbl.replace r.buckets key b;
        b
  in
  let dt = float_of_int (Dsim.Time.to_us (Dsim.Time.sub now b.last)) /. 1e6 in
  let dt = if dt < 0.0 then 0.0 else dt in
  b.tokens <- Float.min (float_of_int burst) (b.tokens +. (float_of_int pps *. dt));
  b.last <- now;
  if b.tokens >= 1.0 then (
    b.tokens <- b.tokens -. 1.0;
    true)
  else false

type verdict = Pass | Blocked of rule | Limited of rule | Locked

let decide t ~now ~src ~dst =
  if t.t_lockdown then (
    t.s_dropped <- t.s_dropped + 1;
    Locked)
  else if Hashtbl.length t.table = 0 then Pass
  else
    let matched =
      List.filter_map (lookup t ~now)
        [
          Src (Source_key.of_addr src);
          Src (Source_key.host_of_addr src);
          Dst (Source_key.of_addr dst);
          Dst (Source_key.host_of_addr dst);
        ]
    in
    (* Drops first across every matching scope: a drop must never be
       masked by a limiter that still has tokens. *)
    match List.find_opt (fun r -> r.action = Drop) matched with
    | Some r ->
        r.hits <- r.hits + 1;
        t.s_dropped <- t.s_dropped + 1;
        Blocked r
    | None ->
        let rec charge = function
          | [] -> Pass
          | r :: rest -> (
              match r.action with
              | Drop -> charge rest
              | Rate_limit { pps; burst } ->
                  let key =
                    match r.scope with
                    | Src _ -> ""
                    | Dst _ -> Source_key.to_string (Source_key.of_addr src)
                  in
                  if take_token r ~now ~key ~pps ~burst then charge rest
                  else (
                    r.hits <- r.hits + 1;
                    t.s_limited <- t.s_limited + 1;
                    Limited r))
        in
        charge matched

(* --------------------------------------------------------------- *)
(* Strikes                                                          *)
(* --------------------------------------------------------------- *)

(* A key counts in the one slot its hash picks out of [t_max_rules], and
   a key charged into a slot that another key holds takes it over.  The
   slot depends on the key alone, never on the table's history, so a
   restored table evicts exactly as the live one would.  A count whose
   window has lapsed restarts on its next charge, so it is as good as an
   empty slot, and [serialize] leaves it out. *)
let slot t key = Hashtbl.hash key mod t.t_max_rules

let strike t ~now ~window ~threshold key =
  let slot = slot t key in
  let s =
    match Hashtbl.find_opt t.strikes slot with
    | Some s when s.s_key = key && Dsim.Time.( <= ) now s.until -> s
    | _ ->
        let s = { s_key = key; count = 0; until = Dsim.Time.add now window } in
        Hashtbl.replace t.strikes slot s;
        s
  in
  s.count <- s.count + 1;
  if s.count < threshold then false
  else (
    Hashtbl.remove t.strikes slot;
    true)

let rules t ~now =
  ignore (purge_expired t ~now);
  let all = Hashtbl.fold (fun _ r acc -> r :: acc) t.table [] in
  List.sort (fun a b -> Stdlib.compare a.serial b.serial) all

let stats t ~now =
  ignore (purge_expired t ~now);
  {
    active = Hashtbl.length t.table;
    installed = t.s_installed;
    refreshed = t.s_refreshed;
    expired = t.s_expired;
    overflowed = t.s_overflowed;
    dropped = t.s_dropped;
    limited = t.s_limited;
  }

(* --------------------------------------------------------------- *)
(* Serialization                                                    *)
(* --------------------------------------------------------------- *)

let scope_tokens = function
  | Src k -> ("S", Codec.hex (Source_key.to_string k))
  | Dst k -> ("D", Codec.hex (Source_key.to_string k))

let action_tokens = function
  | Drop -> ("drop", 0, 0)
  | Rate_limit { pps; burst } -> ("rate", pps, burst)

let rule_line ~hits r =
  let stag, keyhex = scope_tokens r.scope in
  let atag, pps, burst = action_tokens r.action in
  Printf.sprintf "R %s %s %s %d %d %d %d %d %d %s" stag keyhex atag pps burst
    (Dsim.Time.to_us r.installed_at)
    (Dsim.Time.to_us r.expires_at)
    (if r.escalate then 1 else 0)
    hits (Codec.hex r.reason)

let rule_to_line r = rule_line ~hits:0 r

let bucket_lines r =
  let entries = Hashtbl.fold (fun k b acc -> (k, b) :: acc) r.buckets [] in
  let entries = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  List.map
    (fun (k, b) ->
      Printf.sprintf "B %s %h %d" (Codec.hex k) b.tokens (Dsim.Time.to_us b.last))
    entries

let strike_lines t ~now =
  let live =
    Hashtbl.fold
      (fun _ s acc ->
        if Dsim.Time.( <= ) now s.until then (Source_key.to_string s.s_key, s) :: acc else acc)
      t.strikes []
  in
  List.map
    (fun (k, s) -> Printf.sprintf "S %s %d %d" (Codec.hex k) s.count (Dsim.Time.to_us s.until))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) live)

let serialize t ~now =
  let buf = Buffer.create 256 in
  let add l =
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  add (Printf.sprintf "ENF 1 %d" (if t.t_lockdown then 1 else 0));
  List.iter
    (fun r ->
      add (rule_line ~hits:r.hits r);
      List.iter add (bucket_lines r))
    (rules t ~now);
  List.iter add (strike_lines t ~now);
  Buffer.contents buf

let ( let* ) = Result.bind

let parse_scope stag keyhex =
  let* key_str = Codec.unhex keyhex in
  let* key = Source_key.of_string key_str in
  match stag with
  | "S" -> Ok (Src key)
  | "D" -> Ok (Dst key)
  | s -> Error (Printf.sprintf "unknown rule scope %S" s)

let parse_action atag pps burst =
  let* pps = Codec.int_tok pps in
  let* burst = Codec.int_tok burst in
  match atag with
  | "drop" -> Ok Drop
  | "rate" -> Ok (Rate_limit { pps; burst })
  | s -> Error (Printf.sprintf "unknown rule action %S" s)

type parsed_rule = {
  p_scope : scope;
  p_action : action;
  p_installed : Dsim.Time.t;
  p_expires : Dsim.Time.t;
  p_escalate : bool;
  p_hits : int;
  p_reason : string;
}

let parse_rule_tokens = function
  | [ stag; keyhex; atag; pps; burst; installed; expires; esc; hits; reasonhex ] ->
      let* p_scope = parse_scope stag keyhex in
      let* p_action = parse_action atag pps burst in
      let* p_installed = Codec.time_tok installed in
      let* p_expires = Codec.time_tok expires in
      let* esc = Codec.int_tok esc in
      let* p_hits = Codec.int_tok hits in
      let* p_reason = Codec.unhex reasonhex in
      Ok { p_scope; p_action; p_installed; p_expires; p_escalate = esc <> 0; p_hits; p_reason }
  | _ -> Error "malformed rule line"

(* A rule exactly as the payload records it; no overflow or
   refresh-merge semantics. *)
let put_rule t p =
  let r =
    {
      scope = p.p_scope;
      action = p.p_action;
      installed_at = p.p_installed;
      expires_at = p.p_expires;
      escalate = p.p_escalate;
      reason = p.p_reason;
      hits = p.p_hits;
      serial = t.next_serial;
      buckets = Hashtbl.create 4;
    }
  in
  t.next_serial <- t.next_serial + 1;
  Hashtbl.replace t.table p.p_scope r;
  r

let parse_bucket_tokens = function
  | [ keyhex; tokens; last ] ->
      let* key = Codec.unhex keyhex in
      let* last = Codec.time_tok last in
      (match float_of_string_opt tokens with
      | Some tk -> Ok (key, { tokens = tk; last })
      | None -> Error (Printf.sprintf "bad bucket level %S" tokens))
  | _ -> Error "malformed bucket line"

let restore t payload =
  Hashtbl.reset t.table;
  Hashtbl.reset t.strikes;
  t.next_serial <- 0;
  let lines = String.split_on_char '\n' payload in
  let lines = List.filter (fun l -> l <> "") lines in
  let current = ref None in
  let step line =
    match String.split_on_char ' ' line with
    | [ "ENF"; "1"; lock ] ->
        let* lock = Codec.int_tok lock in
        t.t_lockdown <- lock <> 0;
        Ok ()
    | "R" :: rest ->
        let* p = parse_rule_tokens rest in
        current := Some (put_rule t p);
        Ok ()
    | "B" :: rest -> (
        let* key, b = parse_bucket_tokens rest in
        match !current with
        | Some r ->
            Hashtbl.replace r.buckets key b;
            Ok ()
        | None -> Error "bucket line before any rule")
    | [ "S"; keyhex; count; until ] ->
        let* key = Result.bind (Codec.unhex keyhex) Source_key.of_string in
        let* count = Codec.int_tok count in
        let* until = Codec.time_tok until in
        Hashtbl.replace t.strikes (slot t key) { s_key = key; count; until };
        Ok ()
    | _ -> Error (Printf.sprintf "unrecognized enforcement line %S" line)
  in
  let rec go = function
    | [] -> Ok ()
    | l :: rest -> (
        match step l with
        | Ok () -> go rest
        | Error e ->
            Hashtbl.reset t.table;
            Hashtbl.reset t.strikes;
            Error e)
  in
  go lines

let digest t ~now =
  let canonical =
    String.concat "\n"
      (Printf.sprintf "ENF 1 %d" (if t.t_lockdown then 1 else 0)
      :: List.map rule_to_line (rules t ~now))
  in
  Digest.to_hex (Digest.string canonical)

(* --------------------------------------------------------------- *)
(* Operator export                                                  *)
(* --------------------------------------------------------------- *)

let scope_to_string = function
  | Src k -> "src " ^ Source_key.to_string k
  | Dst k -> "dst " ^ Source_key.to_string k

let action_to_string = function
  | Drop -> "drop"
  | Rate_limit { pps; burst } -> Printf.sprintf "rate-limit %d pps (burst %d)" pps burst

let to_text t ~now =
  let rs = rules t ~now in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d active rule(s); lockdown %s\n" (List.length rs)
       (if t.t_lockdown then "ON" else "off"));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %-26s expires %8.3f s  hits %-6d %s\n"
           (scope_to_string r.scope) (action_to_string r.action)
           (Dsim.Time.to_sec r.expires_at)
           r.hits r.reason))
    rs;
  Buffer.contents buf

let to_json t ~now =
  let module J = Obs.Json in
  let rule_json r =
    let base =
      [
        ( "scope",
          J.quote (match r.scope with Src _ -> "src" | Dst _ -> "dst") );
        ( "key",
          J.quote
            (Source_key.to_string (match r.scope with Src k | Dst k -> k)) );
        ("action", J.quote (match r.action with Drop -> "drop" | Rate_limit _ -> "rate-limit"));
      ]
    in
    let rate =
      match r.action with
      | Drop -> []
      | Rate_limit { pps; burst } -> [ ("pps", J.int pps); ("burst", J.int burst) ]
    in
    J.obj
      (base @ rate
      @ [
          ("installed_us", J.int (Dsim.Time.to_us r.installed_at));
          ("expires_us", J.int (Dsim.Time.to_us r.expires_at));
          ("escalate", J.bool r.escalate);
          ("hits", J.int r.hits);
          ("reason", J.quote r.reason);
        ])
  in
  J.obj
    [
      ("lockdown", J.bool t.t_lockdown);
      ("rules", J.arr (List.map rule_json (rules t ~now)));
    ]
