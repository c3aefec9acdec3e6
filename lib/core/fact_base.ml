type call = {
  call_id : string;
  serial : int; (* unique per record: tells a reused Call-ID's records apart *)
  system : Efsm.System.t;
  sip : Efsm.Machine.t;
  rtp : Efsm.Machine.t;
  created_at : Dsim.Time.t;
  mutable media_addrs : Dsim.Addr.t list;
  mutable closing : bool;
  mutable finish_pending : bool;
  (* Absolute deadlines of the lifecycle timers, recorded so a checkpoint
     can re-arm them at the same virtual time after a restore. *)
  mutable delete_at : Dsim.Time.t option;
  mutable recheck_at : Dsim.Time.t option;
}

type detector = {
  d_system : Efsm.System.t;
  d_machine : Efsm.Machine.t;
  d_created : Dsim.Time.t;
  d_serial : int;
  (* Last lookup time: detectors are keyed by attacker-controlled values
     (media streams, victim addresses), so an idle record is reclaimed by
     the ageing sweep just like an abandoned call.  Persisted in snapshots
     so a recovered engine sweeps at the same virtual times. *)
  mutable d_touched : Dsim.Time.t;
}

type detector_kind = [ `Flood | `Spam | `Drdos ]

type _ key = Dst : string key | Stream : Dsim.Addr.t key | Victim : string key

(* A creation-order entry: the record's key, and its serial. *)
type entry = Entry : 'k key * 'k * int -> entry

(* Calls are keyed by attacker-controlled strings.  FNV-1a reads every
   byte, so Call-IDs that share a long prefix still spread over the table;
   over native ints it keeps the low 63 bits of the 64-bit FNV product,
   and allocates nothing. *)
module Key = struct
  type t = string

  let equal = String.equal
  let offset = Int64.to_int 0xcbf29ce484222325L
  let prime = 0x100000001b3

  let hash s =
    let h = ref offset in
    for i = 0 to String.length s - 1 do
      h := (!h lxor Char.code (String.unsafe_get s i)) * prime
    done;
    !h land max_int
end

module Key_tbl = Hashtbl.Make (Key)
module Addr_tbl = Hashtbl.Make (Dsim.Addr)

type t = {
  config : Config.t;
  (* The compiled machines, shared by every record of this base: a record
     owns only its machines' state, variable arrays, history and timers. *)
  sip_program : Efsm.Machine.program Lazy.t;
  rtp_program : Efsm.Machine.program Lazy.t;
  flood_program : Efsm.Machine.program Lazy.t;
  spam_program : Efsm.Machine.program Lazy.t;
  drdos_program : Efsm.Machine.program Lazy.t;
  timer_host : Efsm.System.timer_host;
  (* One hooks record per record kind, shared by all its systems; a
     detector's alert subject is built from its key when the alert fires. *)
  call_hooks : Efsm.System.hooks;
  flood_hooks : Efsm.System.hooks;
  spam_hooks : Efsm.System.hooks;
  drdos_hooks : Efsm.System.hooks;
  on_pressure : subject:string -> detail:string -> unit;
  calls : call Key_tbl.t; (* by Call-ID *)
  media_index : call Addr_tbl.t;
  (* Detectors by key, hashed and compared by structure. *)
  floods : (string, detector) Hashtbl.t;
  spams : (Dsim.Addr.t, detector) Hashtbl.t;
  drdoses : (string, detector) Hashtbl.t;
  (* Creation-order queues back oldest-first eviction in O(1) amortized:
     entries are validated lazily against the live tables, so a record
     deleted through the normal lifecycle just leaves a stale entry to be
     skipped.  The per-record serial tells a key reused after deletion
     apart; amortized compaction keeps the queues proportional to the
     live record count under sustained churn.  Entries hold the key, not
     the record, so a deleted record's machines are not kept alive. *)
  call_order : (string * int) Queue.t; (* Call-ID, serial *)
  detector_order : entry Queue.t;
  mutable next_serial : int;
  mutable peak : int;
  mutable created : int;
  mutable deleted : int;
  mutable calls_evicted : int;
  mutable detectors_evicted : int;
  mutable swept : int;
  mutable dswept : int;
  mutable sweep_timer : Dsim.Scheduler.timer option;
  mutable sweep_next : Dsim.Time.t option;
}

(* A spec depends only on the config, so it is elaborated and compiled
   once per base: on first use, which keeps engine set-up cheap.  A
   [.vspec] override, keyed by machine name (e.g. "SIP"), replaces the
   builtin. *)
let shared_program ~overrides ~config name =
  lazy
    (Efsm.Machine.compile
       (match List.assoc_opt name overrides with
       | Some spec -> spec
       | None -> Spec_load.spec config name))

let detector_subject kind key =
  (match kind with `Flood -> "dst:" | `Spam -> "stream:" | `Drdos -> "victim:") ^ key

(* The hooks of one record kind: [subject] turns a system's owner (a
   Call-ID or a detector key) into its alerts' subject. *)
let hooks ~on_alert ~on_anomaly subject =
  {
    Efsm.System.on_alert =
      (fun owner (n : Efsm.System.notification) ->
        on_alert ~machine:n.machine ~state:n.state ~subject:(subject owner) ~detail:n.detail);
    on_anomaly =
      (fun owner (n : Efsm.System.notification) ->
        on_anomaly ~machine:n.machine ~state:n.state ~subject:(subject owner) ~event:n.event
          ~detail:n.detail);
  }

let create ?(on_pressure = fun ~subject:_ ~detail:_ -> ()) ?(overrides = []) ~config
    ~timer_host ~on_alert ~on_anomaly () =
  let program = shared_program ~overrides ~config in
  let hooks = hooks ~on_alert ~on_anomaly in
  {
    config;
    sip_program = program Keys.sip_machine;
    rtp_program = program Keys.rtp_machine;
    flood_program = program Keys.flood_machine;
    spam_program = program Keys.spam_machine;
    drdos_program = program Keys.drdos_machine;
    timer_host;
    call_hooks = hooks Fun.id;
    flood_hooks = hooks (detector_subject `Flood);
    spam_hooks = hooks (detector_subject `Spam);
    drdos_hooks = hooks (detector_subject `Drdos);
    on_pressure;
    calls = Key_tbl.create 256;
    media_index = Addr_tbl.create 256;
    floods = Hashtbl.create 64;
    spams = Hashtbl.create 256;
    drdoses = Hashtbl.create 64;
    call_order = Queue.create ();
    detector_order = Queue.create ();
    next_serial = 0;
    peak = 0;
    created = 0;
    deleted = 0;
    calls_evicted = 0;
    detectors_evicted = 0;
    swept = 0;
    dswept = 0;
    sweep_timer = None;
    sweep_next = None;
  }

let find_call t call_id = Key_tbl.find_opt t.calls call_id

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

(* Stale queue entries are skipped lazily, but under sustained churn the
   skip debt itself is a leak: rebuild the queue once it outgrows twice the
   live population (amortized O(1) per deletion). *)
let compact_call_order t =
  if Queue.length t.call_order > (2 * Key_tbl.length t.calls) + 64 then begin
    let keep = Queue.create () in
    Queue.iter
      (fun ((call_id, serial) as entry) ->
        match Key_tbl.find_opt t.calls call_id with
        | Some call when call.serial = serial -> Queue.add entry keep
        | Some _ | None -> ())
      t.call_order;
    Queue.clear t.call_order;
    Queue.transfer keep t.call_order
  end

let delete_call t call =
  match Key_tbl.find_opt t.calls call.call_id with
  | Some live when live == call ->
      Efsm.System.release call.system;
      List.iter
        (fun addr ->
          match Addr_tbl.find_opt t.media_index addr with
          | Some c when c == call -> Addr_tbl.remove t.media_index addr
          | Some _ | None -> ())
        call.media_addrs;
      Key_tbl.remove t.calls call.call_id;
      t.deleted <- t.deleted + 1;
      compact_call_order t
  | Some _ | None -> () (* already deleted, or the Call-ID was reused *)

(* Drop the oldest live call; stale queue entries (normal deletions,
   Call-ID reuse) are skipped. *)
let rec evict_oldest_call t =
  match Queue.take_opt t.call_order with
  | None -> ()
  | Some (call_id, serial) -> (
      match Key_tbl.find_opt t.calls call_id with
      | Some call when call.serial = serial ->
          delete_call t call;
          t.calls_evicted <- t.calls_evicted + 1;
          (* Constant subject: the engine dedups alerts by kind|subject, so
             a sustained flood logs one alert while counters carry the
             totals — the alert log must not grow with the attack. *)
          t.on_pressure ~subject:"fact-base/calls"
            ~detail:
              (Printf.sprintf "call %s evicted: %d-call cap reached" call.call_id
                 t.config.Config.max_calls)
      | Some _ | None -> evict_oldest_call t)

(* Builds a call record on the shared programs and registers it; creation
   counters and the cap are the caller's business. *)
let add_call t ~call_id ~created_at =
  let system = Efsm.System.create ~hooks:t.call_hooks ~owner:call_id t.timer_host in
  let sip = Efsm.System.add_machine system (Lazy.force t.sip_program) in
  let rtp = Efsm.System.add_machine system (Lazy.force t.rtp_program) in
  let call =
    {
      call_id;
      serial = fresh_serial t;
      system;
      sip;
      rtp;
      created_at;
      media_addrs = [];
      closing = false;
      finish_pending = false;
      delete_at = None;
      recheck_at = None;
    }
  in
  Key_tbl.replace t.calls call_id call;
  Queue.add (call_id, call.serial) t.call_order;
  call

let create_call t ~call_id =
  match Key_tbl.find_opt t.calls call_id with
  | Some call ->
      (* Attacker-controlled input must never raise: a duplicate Call-ID
         resumes the existing record. *)
      call
  | None ->
      let cap = t.config.Config.max_calls in
      if cap > 0 && Key_tbl.length t.calls >= cap then evict_oldest_call t;
      let call = add_call t ~call_id ~created_at:(t.timer_host.Efsm.System.now ()) in
      t.created <- t.created + 1;
      let active = Key_tbl.length t.calls in
      if active > t.peak then t.peak <- active;
      call

let register_media t call addr =
  if not (List.exists (Dsim.Addr.equal addr) call.media_addrs) then begin
    call.media_addrs <- addr :: call.media_addrs;
    Addr_tbl.replace t.media_index addr call
  end

let call_for_media t addr = Addr_tbl.find t.media_index addr

let known_media t addr = Addr_tbl.mem t.media_index addr

let kind_of : type k. k key -> detector_kind = function
  | Dst -> `Flood
  | Stream -> `Spam
  | Victim -> `Drdos

let key_text : type k. k key -> k -> string =
 fun kind key -> match kind with Dst -> key | Stream -> Dsim.Addr.to_string key | Victim -> key

let table : type k. t -> k key -> (k, detector) Hashtbl.t =
 fun t -> function Dst -> t.floods | Stream -> t.spams | Victim -> t.drdoses

(* The live record an entry names, if any. *)
let live t (Entry (kind, key, serial)) =
  match Hashtbl.find (table t kind) key with
  | d when d.d_serial = serial -> Some d
  | _ | (exception Not_found) -> None

let detector_count t = Hashtbl.length t.floods + Hashtbl.length t.spams + Hashtbl.length t.drdoses

let occupancy t = Key_tbl.length t.calls + detector_count t

let kind_label = function `Flood -> "flood" | `Spam -> "spam" | `Drdos -> "drdos"

let compact_detector_order t =
  if Queue.length t.detector_order > (2 * detector_count t) + 64 then begin
    let keep = Queue.create () in
    Queue.iter
      (fun entry -> if Option.is_some (live t entry) then Queue.add entry keep)
      t.detector_order;
    Queue.clear t.detector_order;
    Queue.transfer keep t.detector_order
  end

let remove_detector t kind key =
  match Hashtbl.find (table t kind) key with
  | exception Not_found -> ()
  | d ->
      Efsm.System.release d.d_system;
      Hashtbl.remove (table t kind) key;
      compact_detector_order t

let rec evict_oldest_detector t =
  match Queue.take_opt t.detector_order with
  | None -> ()
  | Some (Entry (kind, key, _) as entry) -> (
      match live t entry with
      | Some d ->
          remove_detector t kind key;
          t.detectors_evicted <- t.detectors_evicted + 1;
          t.on_pressure ~subject:"fact-base/detectors"
            ~detail:
              (Printf.sprintf "detector %s evicted: %d-detector cap reached"
                 (kind_label (kind_of kind) ^ ":" ^ Efsm.System.owner d.d_system)
                 t.config.Config.max_detectors)
      | None -> evict_oldest_detector t)

let detector_program t = function
  | `Flood -> Lazy.force t.flood_program
  | `Spam -> Lazy.force t.spam_program
  | `Drdos -> Lazy.force t.drdos_program

let detector_hooks t = function
  | `Flood -> t.flood_hooks
  | `Spam -> t.spam_hooks
  | `Drdos -> t.drdos_hooks

(* Builds a detector on the shared program and registers it; the cap is
   the caller's business.  [name], the key's text, is its system's owner:
   its alerts' subject and its snapshot line. *)
let add_detector t kind key ~name ~created_at ~touched =
  let label = kind_of kind in
  let d_system = Efsm.System.create ~hooks:(detector_hooks t label) ~owner:name t.timer_host in
  let d_machine = Efsm.System.add_machine d_system (detector_program t label) in
  let d =
    { d_system; d_machine; d_created = created_at; d_serial = fresh_serial t; d_touched = touched }
  in
  Hashtbl.replace (table t kind) key d;
  Queue.add (Entry (kind, key, d.d_serial)) t.detector_order;
  d

(* A lookup raises [Not_found] rather than return an option, so that it
   allocates nothing. *)
let detector t kind key =
  match Hashtbl.find (table t kind) key with
  | d ->
      d.d_touched <- t.timer_host.Efsm.System.now ();
      d
  | exception Not_found ->
      let cap = t.config.Config.max_detectors in
      if cap > 0 && detector_count t >= cap then evict_oldest_detector t;
      let now = t.timer_host.Efsm.System.now () in
      add_detector t kind key ~name:(key_text kind key) ~created_at:now ~touched:now

(* --------------------------------------------------------------- *)
(* Fault quarantine                                                 *)
(* --------------------------------------------------------------- *)

let quarantine_call t call = delete_call t call
let quarantine_detector = remove_detector

let rtp_done call =
  Efsm.Machine.is_final call.rtp
  || String.equal (Efsm.Machine.state call.rtp) Keys.st_init

(* Lifecycle timers are armed against an absolute deadline that is also
   recorded on the call, so a checkpoint can re-arm them at the same
   virtual time after a restore. *)
let delay_until t at =
  let now = t.timer_host.Efsm.System.now () in
  if Dsim.Time.( > ) at now then Dsim.Time.sub at now else Dsim.Time.zero

let arm_delete_at t call at =
  call.closing <- true;
  call.delete_at <- Some at;
  ignore (t.timer_host.Efsm.System.set (delay_until t at) (fun () -> delete_call t call))

let schedule_delete t call =
  arm_delete_at t call
    (Dsim.Time.add (t.timer_host.Efsm.System.now ()) t.config.Config.closed_call_linger)

let arm_recheck_at t call at =
  call.finish_pending <- true;
  call.recheck_at <- Some at;
  ignore
    (t.timer_host.Efsm.System.set (delay_until t at) (fun () ->
         call.recheck_at <- None;
         if (not call.closing) && Efsm.Machine.is_final call.sip && rtp_done call then
           schedule_delete t call))

let maybe_finish t call =
  if (not call.closing) && Efsm.Machine.is_final call.sip then
    if rtp_done call then schedule_delete t call
    else if not call.finish_pending then
      (* The RTP machine is waiting out the in-flight grace timer; no
         further packet may arrive to re-trigger this check, so look once
         more after the grace period.  A single re-check only: a machine
         parked in an attack state never becomes final, and re-polling
         forever would keep an otherwise-drained scheduler alive — such
         records are left for [sweep]. *)
      arm_recheck_at t call
        (Dsim.Time.add
           (t.timer_host.Efsm.System.now ())
           (Dsim.Time.add t.config.Config.bye_inflight_timer (Dsim.Time.of_ms 50.0)))

let sweep t ~max_age =
  let now = t.timer_host.Efsm.System.now () in
  let stale =
    Key_tbl.fold
      (fun _ call acc ->
        if Dsim.Time.( > ) (Dsim.Time.sub now call.created_at) max_age then call :: acc else acc)
      t.calls []
  in
  List.iter (delete_call t) stale;
  List.length stale

(* Detectors have no final state and no lifecycle deletion: without ageing,
   every distinct media stream or victim address ever seen keeps a record
   (and its machine history) forever — unbounded growth under key churn.
   A detector untouched for [max_age] has produced any alert it ever will
   for that traffic; reclaim it and let a fresh instance be built if the
   key recurs. *)
let sweep_detectors t ~max_age =
  let now = t.timer_host.Efsm.System.now () in
  let stale =
    Queue.fold
      (fun acc entry ->
        match live t entry with
        | Some d when Dsim.Time.( > ) (Dsim.Time.sub now d.d_touched) max_age -> entry :: acc
        | Some _ | None -> acc)
      [] t.detector_order
  in
  List.iter (fun (Entry (kind, key, _)) -> remove_detector t kind key) stale;
  List.length stale

let arm_sweep t ~delay =
  let interval = t.config.Config.sweep_interval in
  let max_age = t.config.Config.call_max_age in
  let rec arm delay =
    t.sweep_next <- Some (Dsim.Time.add (t.timer_host.Efsm.System.now ()) delay);
    t.sweep_timer <- Some (t.timer_host.Efsm.System.set delay tick)
  and tick () =
    let reclaimed = sweep t ~max_age in
    let d_reclaimed = sweep_detectors t ~max_age in
    if reclaimed + d_reclaimed > 0 then begin
      t.swept <- t.swept + reclaimed;
      t.dswept <- t.dswept + d_reclaimed;
      t.on_pressure ~subject:"sweep"
        ~detail:
          (Printf.sprintf
             "scheduled sweep reclaimed %d call(s) and %d idle detector(s) older than %.0f s"
             reclaimed d_reclaimed (Dsim.Time.to_sec max_age))
    end;
    arm interval
  in
  arm delay

let sweep_enabled t =
  Dsim.Time.( > ) t.config.Config.sweep_interval Dsim.Time.zero
  && Dsim.Time.( > ) t.config.Config.call_max_age Dsim.Time.zero

let schedule_sweep t = if sweep_enabled t then arm_sweep t ~delay:t.config.Config.sweep_interval

let next_sweep_at t = t.sweep_next

let set_next_sweep t at =
  (match t.sweep_timer with
  | Some handle ->
      t.timer_host.Efsm.System.cancel handle;
      t.sweep_timer <- None;
      t.sweep_next <- None
  | None -> ());
  match at with
  | None -> ()
  | Some at ->
      if sweep_enabled t then
        arm_sweep t
          ~delay:
            (let now = t.timer_host.Efsm.System.now () in
             if Dsim.Time.( > ) at now then Dsim.Time.sub at now else Dsim.Time.zero)

(* --------------------------------------------------------------- *)
(* Checkpoint support                                               *)
(* --------------------------------------------------------------- *)

let kind_of_label = function
  | "flood" -> Some `Flood
  | "spam" -> Some `Spam
  | "drdos" -> Some `Drdos
  | _ -> None

(* Live records in creation order, straight from the eviction queues
   (stale entries skipped).  Creation order is deterministic for a given
   packet stream, which keeps snapshots canonical: two engines that
   processed the same traffic serialize identically. *)
let calls_in_creation_order t =
  Queue.fold
    (fun acc (call_id, serial) ->
      match Key_tbl.find_opt t.calls call_id with
      | Some call when call.serial = serial -> call :: acc
      | Some _ | None -> acc)
    [] t.call_order
  |> List.rev

let detectors_in_creation_order t =
  Queue.fold
    (fun acc (Entry (kind, _, _) as entry) ->
      match live t entry with
      | Some d -> (kind_of kind, Efsm.System.owner d.d_system, d) :: acc
      | None -> acc)
    [] t.detector_order
  |> List.rev

(* Rebuild a record from a snapshot: fresh machines wired to the usual
   callbacks, but no counter bumps and no eviction — aggregate counters are
   restored separately and a snapshot never exceeds the caps it was taken
   under. *)
let restore_call t ~call_id ~created_at =
  if Key_tbl.mem t.calls call_id then
    invalid_arg (Printf.sprintf "Fact_base.restore_call: duplicate call %S" call_id);
  add_call t ~call_id ~created_at

(* A spam detector's key is the text of its stream's address; a snapshot
   comes from outside, so one that does not parse is refused by name. *)
let restore_detector t label ~key:name ~created_at ~touched =
  let restore kind key =
    if Hashtbl.mem (table t kind) key then
      invalid_arg
        (Printf.sprintf "Fact_base.restore_detector: duplicate %s detector %S"
           (kind_label label) name);
    add_detector t kind key ~name ~created_at ~touched
  in
  match label with
  | `Flood -> restore Dst name
  | `Drdos -> restore Victim name
  | `Spam -> (
      match Dsim.Addr.of_string name with
      | Some addr -> restore Stream addr
      | None ->
          invalid_arg
            (Printf.sprintf
               "Fact_base.restore_detector: spam detector key %S is not host:port" name))

let set_counters t ~peak ~created ~deleted ~calls_evicted ~detectors_evicted ~swept
    ~detectors_swept =
  t.peak <- peak;
  t.created <- created;
  t.deleted <- deleted;
  t.calls_evicted <- calls_evicted;
  t.detectors_evicted <- detectors_evicted;
  t.swept <- swept;
  t.dswept <- detectors_swept

type stats = {
  active_calls : int;
  peak_calls : int;
  calls_created : int;
  calls_deleted : int;
  calls_evicted : int;
  detectors_evicted : int;
  calls_swept : int;
  detectors_swept : int;
  detectors : int;
  modeled_bytes : int;
  measured_bytes : int;
}

let stats t =
  let active = Key_tbl.length t.calls in
  let per_call = t.config.Config.sip_state_bytes + t.config.Config.rtp_state_bytes in
  let measured =
    Key_tbl.fold (fun _ call acc -> acc + Efsm.System.estimated_bytes call.system) t.calls 0
  in
  {
    active_calls = active;
    peak_calls = t.peak;
    calls_created = t.created;
    calls_deleted = t.deleted;
    calls_evicted = t.calls_evicted;
    detectors_evicted = t.detectors_evicted;
    calls_swept = t.swept;
    detectors_swept = t.dswept;
    detectors = detector_count t;
    modeled_bytes = active * per_call;
    measured_bytes = measured;
  }
