(* Differential tests of the compiled EFSM stepper against the reference
   model in [Efsm_reference]: on random event sequences over each builtin
   machine and a toy machine with overlapping guards and shared lets,
   both must agree after every step on the outcome, the configuration,
   the global variables and the transition history.  Long sequences
   through the machines that step on every RTP packet, and restores at
   every window length, hold the history's ring to the reference's list.
   Random RTP streams hold the media-spam machine's spam guard and
   baseline update to the host code they replaced, and the IR's wrap to
   RTP's serial-number arithmetic. *)

module M = Efsm.Machine
module E = Efsm.Event
module V = Efsm.Value
module Env = Efsm.Env
module Ir = Efsm.Ir
module R = Efsm_reference

(* Small thresholds, so that short sequences reach the flood states. *)
let config =
  {
    Vids.Config.default with
    Vids.Config.invite_flood_threshold = 3;
    rtp_flood_threshold = 3;
    drdos_threshold = 3;
  }

(* ------------------------------------------------------------------ *)
(* A toy machine with overlapping guards                               *)
(* ------------------------------------------------------------------ *)

(* The guards of A share the lets [xv] and [odd], those of B [odd] and
   [bare]; a compiled program evaluates each once per step, the
   reference on every read.  [xv] is undefined on a non-int x, and so are
   the comparisons that read it.  [odd] is x's low bit, through a 1-bit
   wrap.  [small]'s guard reads [nv] and its actions read it again after
   assigning n: an action reads a let's body afresh. *)
let toy_spec =
  let x = Ir.Int_of (Ir.Field "x") and n = Ir.Int_or0 (Ir.Var (Env.Local, "n")) in
  let xv = Ir.Int_let ("xv", x) and nv = Ir.Int_let ("nv", n) in
  let odd = Ir.Pred_let ("odd", Ir.Cmp (Ir.Ine, Ir.Wrap (1, xv), Ir.Int_const 0)) in
  let bare = Ir.Pred_let ("bare", Ir.Not (Ir.Has_field "y")) in
  let tr = M.ir_transition in
  let y_copy = Ir.Var (Env.Local, "y_copy") in
  {
    M.spec_name = "TOY";
    initial = "A";
    finals = [ "DONE" ];
    attack_states = [ ("BAD", "toy attack") ];
    transitions =
      [
        tr ~label:"small" ~from_state:"A" (M.On_event "e") ~to_state:"A"
          ~guard:
            (Ir.And [ Ir.Cmp (Ir.Lt, xv, Ir.Int_const 5); Ir.Cmp (Ir.Le, nv, Ir.Int_const 1000) ])
          ~acts:
            [
              Ir.Assign ((Env.Local, "n"), Ir.Of_int (Ir.Add (nv, Ir.Int_const 1)));
              Ir.If
                ( Ir.Cmp (Ir.Gt, nv, Ir.Int_const 2),
                  [ Ir.Set_timer { id = "t"; delay = 10 } ],
                  [ Ir.Cancel_timer "t" ] );
            ]
          ();
        tr ~label:"big" ~from_state:"A" (M.On_event "e") ~to_state:"B"
          ~guard:(Ir.Cmp (Ir.Gt, xv, Ir.Int_const 3))
          ();
        tr ~label:"odd" ~from_state:"A" (M.On_event "e") ~to_state:"BAD" ~guard:odd ();
        tr ~label:"chan" ~from_state:"A" (M.On_channel "RTP") ~to_state:"B"
          ~guard:(Ir.Has_field "y")
          ~acts:
            [
              Ir.Assign ((Env.Local, "y_copy"), Ir.Field "y");
              Ir.Send_sync
                {
                  target = "PEER";
                  event_name = "ping";
                  args = [ ("y", Ir.Field "y"); ("x", Ir.Of_int x) ];
                };
            ]
          ();
        tr ~label:"sync_in" ~from_state:"B" (M.On_sync "ping") ~to_state:"A"
          ~guard:(Ir.Cmp (Ir.Ieq, nv, Ir.Int_const 2))
          ~acts:
            [
              Ir.Assign ((Env.Local, "n"), Ir.Const (V.Int 0));
              Ir.Assign
                ( (Env.Global, "total"),
                  Ir.Of_int (Ir.Add (Ir.Int_or0 (Ir.Var (Env.Global, "total")), Ir.Int_const 1)) );
            ]
          ();
        tr ~label:"tick" ~from_state:"B" (M.On_timer "t") ~to_state:"DONE"
          ~guard:(Ir.Or [ Ir.Eq (y_copy, Ir.Const (V.Str "a")); Ir.Not (Ir.Has_field "x") ])
          ();
        tr ~label:"tick_b" ~from_state:"B" (M.On_timer "t") ~to_state:"BAD"
          ~guard:(Ir.Member (y_copy, [ V.Str "a"; V.Str "b" ]))
          ();
        tr ~label:"loop" ~from_state:"B" (M.On_event "e") ~to_state:"B"
          ~guard:
            (Ir.And
               [
                 Ir.Cmp (Ir.Ge, xv, Ir.Int_const 0);
                 Ir.Not odd;
                 Ir.Cmp (Ir.Le, Ir.Add (xv, nv), Ir.Int_const 100);
               ])
          ~acts:
            [
              Ir.Assign ((Env.Local, "n"), Ir.Of_int (Ir.Sub (n, x)));
              Ir.Assign ((Env.Local, "m"), Ir.Field "y");
              Ir.Cancel_timer "t";
              Ir.Set_timer { id = "t"; delay = 5 };
              Ir.Assign ((Env.Local, "k"), Ir.Of_pred (Ir.Has_field "y"));
            ]
          ();
        tr ~label:"loop_bare" ~from_state:"B" (M.On_event "e") ~to_state:"B"
          ~guard:bare
          ();
        tr ~label:"done_more" ~from_state:"DONE" (M.On_event "e") ~to_state:"DONE" ();
        tr ~label:"bad_more" ~from_state:"BAD" (M.On_channel "RTP") ~to_state:"BAD" ();
      ];
  }

(* ------------------------------------------------------------------ *)
(* Event sequences                                                     *)
(* ------------------------------------------------------------------ *)

type ev = { name : string; channel : E.channel; args : (string * V.t) list }

let sync = E.Sync { from_machine = "SIP" }

(* Every trigger of the spec, as the event that fires it. *)
let triggers (spec : M.spec) =
  List.concat_map
    (fun (tr : M.transition) ->
      match tr.M.trigger with
      | M.On_event n -> [ (E.Data "SIP", n); (E.Data "RTP", n) ]
      | M.On_channel p -> [ (E.Data p, "any") ]
      | M.On_sync n -> [ (sync, n) ]
      | M.On_timer id -> [ (E.Timer, id) ])
    spec.M.transitions
  |> List.sort_uniq compare

(* Names no transition accepts, and accepted names on the wrong
   channel. *)
let strays (spec : M.spec) =
  [ (E.Data "SIP", "NO_SUCH_EVENT"); (sync, "delta_none"); (E.Timer, "no_timer") ]
  @ List.filter_map
      (fun (tr : M.transition) ->
        match tr.M.trigger with
        | M.On_event n -> Some (E.Timer, n)
        | M.On_sync n -> Some (E.Data "SIP", n)
        | M.On_timer id -> Some (sync, id)
        | M.On_channel _ -> None)
      spec.M.transitions

(* Every field a guard or action of the spec reads. *)
let fields (spec : M.spec) =
  let of_expr e = Ir.pred_fields (Ir.Eq (e, Ir.Const V.Unset)) in
  List.concat_map
    (fun (tr : M.transition) ->
      let { Ir.guard; acts } = tr.M.syntax in
      Ir.pred_fields guard
      @ Ir.acts_fold
          (fun acc -> function
            | Ir.Assign (_, e) -> of_expr e @ acc
            | Ir.If (p, _, _) -> Ir.pred_fields p @ acc
            | Ir.Send_sync { args; _ } -> List.concat_map (fun (_, e) -> of_expr e) args @ acc
            | Ir.Set_timer _ | Ir.Cancel_timer _ -> acc)
          [] acts)
    spec.M.transitions
  |> List.sort_uniq String.compare

(* Values of a small pool per field, so that the guards that compare a
   field with a constant or a remembered value hold often; one time in
   eight a value of any type, or a present [Unset]. *)
let plausible field =
  let ints l = List.map (fun n -> V.Int n) l and strs l = List.map (fun s -> V.Str s) l in
  match field with
  | "code" -> ints [ 100; 180; 200; 299; 300; 487; 699; 700 ]
  | "cseq_method" -> strs [ "INVITE"; "BYE"; "ACK"; "CANCEL" ]
  | "src_ip" | "dst_ip" | "contact_host" | "media_host" | "bye_sender_ip" ->
      strs [ "10.0.0.1"; "10.0.0.2" ]
  | "call_id" | "from_tag" | "to_tag" | "branch" | "y" -> strs [ "a"; "b" ]
  | "src_port" | "dst_port" | "media_port" -> ints [ 5060; 16384 ]
  | "media_pt" | "ssrc" -> ints [ 7; 18 ]
  | "seq" | "x" -> ints [ 0; 1; 2; 3; 4; 5; 6; 7; 65535 ]
  | "ts" -> ints [ 0; 160; 320; 480; 5000; 700_000 ]
  | "src_matched" -> [ V.Bool true; V.Bool false ]
  | _ -> strs [ "a" ] @ ints [ 0 ]

let any_value =
  QCheck.Gen.oneofl
    [ V.Int 1; V.Int 200; V.Str "a"; V.Str ""; V.Bool true; V.Addr ("10.0.0.1", 16384); V.Unset ]

let value_gen field =
  QCheck.Gen.(frequency [ (7, oneofl (plausible field)); (1, any_value) ])

(* [rtp] weighs an RTP packet against the 8 of any trigger. *)
let event_gen ?(rtp = 0) spec =
  let triggers = triggers spec and strays = strays spec in
  let fields = "unread" :: fields spec in
  QCheck.Gen.(
    let* channel, name =
      frequency
        [ (rtp, return (E.Data "RTP", "RTP")); (8, oneofl triggers); (1, oneofl strays) ]
    in
    let* args =
      flatten_l
        (List.map
           (fun f ->
             frequency
               [ (3, map (fun v -> Some (f, v)) (value_gen f)); (1, return None) ])
           fields)
    in
    return { name; channel; args = List.filter_map Fun.id args })

let show_channel = function
  | E.Data p -> p
  | E.Sync { from_machine } -> "sync<" ^ from_machine ^ ">"
  | E.Timer -> "timer"

let show_args args =
  String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ V.to_string v) args)

let show_ev ev = Printf.sprintf "%s?%s(%s)" (show_channel ev.channel) ev.name (show_args ev.args)

let arb ?rtp ~length spec =
  QCheck.make
    ~print:(fun evs -> String.concat "\n" (List.map show_ev evs))
    QCheck.Gen.(list_size length (event_gen ?rtp spec))

(* ------------------------------------------------------------------ *)
(* Agreement                                                           *)
(* ------------------------------------------------------------------ *)

let show_effect = function
  | M.Send_sync { target; event_name; args } ->
      Printf.sprintf "sync %s.%s(%s)" target event_name (show_args args)
  | M.Set_timer { id; delay } -> Printf.sprintf "set %s %d" id delay
  | M.Cancel_timer id -> "cancel " ^ id

let show_outcome = function
  | Ok (M.Moved { transition; effects; attack }) ->
      Printf.sprintf "moved %s [%s] %s" transition.M.label
        (String.concat "; " (List.map show_effect effects))
        (Option.value attack ~default:"-")
  | Ok M.Rejected -> "rejected"
  | Ok (M.Nondeterministic labels) -> "nondeterministic " ^ String.concat "," labels
  | Error e -> "raised " ^ e

let show_trace trace =
  String.concat " " (List.map (fun (at, label) -> Printf.sprintf "%d:%s" at label) trace)

let trace_of (ats, labels) = List.combine (Array.to_list ats) (Array.to_list labels)

let agree what show got want =
  String.equal (show got) (show want)
  || QCheck.Test.fail_reportf "%s differs:\n  compiled:  %s\n  reference: %s" what (show got)
       (show want)

let attempt f = match f () with o -> Ok o | exception e -> Error (Printexc.to_string e)

let event_at i ev = E.make ~args:ev.args ev.channel ~at:(1000 * i) ev.name

(* One event through both steppers, which must agree after it ([agree]
   fails the test otherwise); true when it took a transition. *)
let step_agrees m r i event =
  let got = attempt (fun () -> M.step m event) in
  let want = attempt (fun () -> R.step r event) in
  agree ("outcome of event " ^ string_of_int i) show_outcome got want
  && agree "configuration"
       (fun (state, vars) -> state ^ " " ^ show_args vars)
       (M.state m, Env.local_bindings (M.env m)) (R.configuration r)
  && agree "globals" show_args (Env.global_bindings (M.env m)) (R.global_bindings r)
  && agree "trace" show_trace (trace_of (M.history m)) (R.trace r)
  && match got with Ok (M.Moved _) -> true | Ok _ | Error _ -> false

(* The sequence must take at least [min_moves] transitions. *)
let agrees ?(min_moves = 0) spec evs =
  let m = M.instantiate (M.compile spec) ~globals:(Env.globals ()) in
  let r = R.create spec ~globals:(Env.globals ()) in
  let moves =
    List.fold_left
      (fun (i, moves) ev ->
        (i + 1, if step_agrees m r i (event_at i ev) then moves + 1 else moves))
      (0, 0) evs
    |> snd
  in
  moves >= min_moves
  || QCheck.Test.fail_reportf "%d transitions taken, fewer than %d" moves min_moves

let builtin ?(config = config) name = Vids.Spec_load.spec config name

let differential ?rtp ?min_moves ?(length = QCheck.Gen.int_range 1 100) ~count name spec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (arb ?rtp ~length spec) (agrees ?min_moves spec))

(* ------------------------------------------------------------------ *)
(* Restores at every window length                                     *)
(* ------------------------------------------------------------------ *)

(* Every event of these streams takes a transition: RTP opens the call
   and carries packets, the answer interleaved; MEDIA_SPAM sees in-order
   packets, its window timer firing after every second one so that the
   flood threshold of 3 is never passed. *)
let accepted_stream machine i =
  let rtp k =
    {
      name = "RTP";
      channel = E.Data "RTP";
      args =
        [ ("seq", V.Int k); ("ts", V.Int (160 * k)); ("ssrc", V.Int 7); ("src_ip", V.Str "10.0.0.1") ];
    }
  in
  let sync name = { name; channel = sync; args = [] } in
  if String.equal machine Vids.Keys.rtp_machine then
    if i = 0 then sync "delta_media_offer"
    else if i mod 5 = 3 then sync "delta_media_answer"
    else rtp i
  else if i mod 3 = 2 then { name = "rate_window"; channel = E.Timer; args = [] }
  else rtp (1 + i - (i / 3))

(* A machine restored from another's configuration and history carries on
   as the reference restored from the same: at every window length a
   snapshot can hold, both agree with each other and with the machine
   they were captured from over the next 70 steps, long enough for the
   window to be cut back once more. *)
let restore_round_trip machine () =
  let spec = builtin machine in
  let program = M.compile spec in
  let ev = accepted_stream machine in
  for len = 0 to 64 do
    let original = M.instantiate program ~globals:(Env.globals ()) in
    for i = 0 to len - 1 do
      ignore (M.step original (event_at i (ev i)))
    done;
    let held = Array.length (fst (M.history original)) in
    if held <> len then Alcotest.failf "%d transitions held, not %d" held len;
    let state = M.state original and vars = Env.local_bindings (M.env original) in
    let history = M.history original in
    let m = M.instantiate program ~globals:(Env.globals ()) in
    (match M.restore m ~state ~vars ~history with
    | Ok () -> ()
    | Error e -> Alcotest.failf "window of %d refused: %s" len e);
    let r = R.create spec ~globals:(Env.globals ()) in
    R.restore r ~state ~vars ~trace:(trace_of history);
    for i = len to len + 69 do
      let event = event_at i (ev i) in
      ignore (M.step original event);
      if not (step_agrees m r i event) then
        Alcotest.failf "window of %d: event %d took no transition" len i;
      if M.history m <> M.history original then
        Alcotest.failf "window of %d: step %d differs from the unrestored machine" len i
    done
  done

(* ------------------------------------------------------------------ *)
(* Serial-number arithmetic                                            *)
(* ------------------------------------------------------------------ *)

let wrap_layout = Env.layout [ "d" ]

(* [wrap<bits>($b - $a)] assigned to a local, compiled and interpreted. *)
let wrapped bits a b =
  let acts =
    [
      Ir.Assign
        ( (Env.Local, "d"),
          Ir.Of_int
            (Ir.Wrap (bits, Ir.Sub (Ir.Int_of (Ir.Field "b"), Ir.Int_of (Ir.Field "a")))) );
    ]
  in
  let event = E.make ~args:[ ("a", V.Int a); ("b", V.Int b) ] (E.Data "RTP") ~at:0 "RTP" in
  let run action =
    let env = Env.create wrap_layout (Env.globals ()) in
    ignore (action env event : M.effect list);
    Env.get env Env.Local "d"
  in
  (run (Ir.compile_acts M.builders wrap_layout acts), run (Ir.run_acts M.builders acts))

(* Over the full 16-bit sequence-number and signed 32-bit timestamp
   ranges, boundary values one time in three; the reference's [wrap], on
   which its [is_spam] rests, too. *)
let wrap_is_serial_arithmetic =
  let serial edges range = QCheck.Gen.frequency [ (1, QCheck.Gen.oneofl edges); (2, range) ] in
  let seq = serial [ 0; 1; 0x7FFF; 0x8000; 0xFFFE; 0xFFFF ] (QCheck.Gen.int_range 0 0xFFFF) in
  let ts = serial [ Int32.min_int; -1l; 0l; 1l; Int32.max_int ] QCheck.Gen.int32 in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"wrap = Rtp_packet.seq_delta and ts_delta" ~count:2000
       (QCheck.make
          ~print:QCheck.Print.(pair (pair int int) (pair int32 int32))
          QCheck.Gen.(pair (pair seq seq) (pair ts ts)))
       (fun ((a, b), (x, y)) ->
         let seq_delta = Rtp.Rtp_packet.seq_delta a b and ts_delta = Rtp.Rtp_packet.ts_delta x y in
         let x = Int32.to_int x and y = Int32.to_int y in
         R.wrap 16 (b - a) = seq_delta
         && wrapped 16 a b = (V.Int seq_delta, V.Int seq_delta)
         && R.wrap 32 (y - x) = ts_delta
         && wrapped 32 x y = (V.Int ts_delta, V.Int ts_delta)))

(* ------------------------------------------------------------------ *)
(* The media-spam machine's baseline update                            *)
(* ------------------------------------------------------------------ *)

(* RTP streams as the engine builds their events: a 16-bit sequence
   number and a signed 32-bit timestamp.  A sender walks forward from a
   start near the wrap points or anywhere; on the way it goes silent,
   reorders within and beyond the tolerance, repeats a sequence number
   with a nearby timestamp, skips ahead, changes SSRC, and jumps in
   sequence number and timestamp apart, often to a spam threshold or
   just past it; and the rate window fires, twice in a row now and then
   so that the machine goes dormant. *)
let rtp_stream =
  let open QCheck.Gen in
  let packet seq ts ssrc =
    {
      name = "RTP";
      channel = E.Data "RTP";
      args =
        [
          ("seq", V.Int (seq land 0xFFFF));
          ("ts", V.Int (Int32.to_int (Int32.of_int ts)));
          ("ssrc", V.Int ssrc);
        ];
    }
  in
  let window = { name = "rate_window"; channel = E.Timer; args = [] } in
  let c = Vids.Config.default in
  let tolerance = c.Vids.Config.spam_reorder_tolerance in
  (* A threshold of [is_spam], and the first value past it. *)
  let edge x = oneofl [ x; x + 1 ] in
  let jump =
    pair
      (oneof
         [
           int_range (-12) 60;
           int_range 0 3;
           edge c.Vids.Config.spam_seq_gap;
           edge (-tolerance - 1);
         ])
      (oneof
         [
           int_range (-20_000) 20_000;
           edge c.Vids.Config.spam_ts_gap;
           edge c.Vids.Config.spam_silence_ts_gap;
           edge (-4 * c.Vids.Config.spam_ts_gap - 1);
         ])
  in
  let rec walk n ((seq, ts, ssrc) as at) acc =
    let next seq ts ssrc = walk (n - 1) (seq, ts, ssrc) (packet seq ts ssrc :: acc) in
    if n = 0 then return (List.rev acc)
    else
      let* move =
        frequency
          [
            (40, return `Next);
            (3, map (fun k -> `Silence k) (int_range 2 3200));
            (3, map (fun d -> `Late d) (int_range 1 tolerance));
            (1, map (fun d -> `Late d) (int_range (tolerance + 1) 64));
            (1, map (fun r -> `Repeat r) (int_range (-3) 3));
            (2, map (fun j -> `Skip j) (int_range 2 60));
            (3, map (fun (ds, dt) -> `Jump (ds, dt)) jump);
            (1, return `Ssrc);
            (2, map (fun k -> `Window k) (int_range 1 2));
          ]
      in
      match move with
      | `Next -> next (seq + 1) (ts + 160) ssrc
      | `Silence k -> next (seq + 1) (ts + (160 * k)) ssrc
      | `Skip j -> next (seq + j) (ts + (160 * j)) ssrc
      | `Jump (ds, dt) -> next (seq + ds) (ts + dt) ssrc
      | `Ssrc -> next (seq + 1) (ts + 160) (ssrc + 1)
      | `Late d -> walk (n - 1) at (packet (seq - d) (ts - (160 * d)) ssrc :: acc)
      | `Repeat r -> walk (n - 1) at (packet seq (ts + (160 * r)) ssrc :: acc)
      | `Window k -> walk (n - 1) at (List.init k (fun _ -> window) @ acc)
  in
  let* seq = frequency [ (1, int_range (0xFFFF - 40) 0xFFFF); (1, int_range 0 0xFFFF) ] in
  let* ts =
    frequency
      [
        (1, map (fun k -> Int32.to_int Int32.max_int - (160 * k)) (int_range 0 40));
        (1, map (fun k -> -160 * k) (int_range 0 40));
        (1, map Int32.to_int int32);
      ]
  in
  let* n = int_range 20 200 in
  walk n (seq, ts, 7) []

(* The reference runs MEDIA_SPAM with [in_order]'s actions taken out and
   the host code they replaced run in their place. *)
let baseline_agrees evs =
  let spec = builtin ~config:Vids.Config.default Vids.Keys.spam_machine in
  let without_baseline (tr : M.transition) =
    if String.equal tr.M.label "in_order" then
      { tr with M.syntax = { tr.M.syntax with Ir.acts = [] } }
    else tr
  in
  let m = M.instantiate (M.compile spec) ~globals:(Env.globals ()) in
  let r =
    R.create
      ~host:[ ("in_order", R.advance_baseline) ]
      { spec with M.transitions = List.map without_baseline spec.M.transitions }
      ~globals:(Env.globals ())
  in
  List.iteri (fun i ev -> ignore (step_agrees m r i (event_at i ev) : bool)) evs;
  true

let show_stream evs = String.concat "\n" (List.map show_ev evs)

let baseline_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"MEDIA_SPAM baseline agrees with the host update" ~count:300
       (QCheck.make ~print:show_stream rtp_stream)
       baseline_agrees)

(* The reference runs MEDIA_SPAM with the guards of [spam] and [in_order]
   as the host code they replaced: the rate test, then [is_spam]. *)
let spam_guard_agrees evs =
  let config = Vids.Config.default in
  let spec = builtin ~config Vids.Keys.spam_machine in
  let under_rate env =
    R.get_int env "l_window_count" + 1 <= config.Vids.Config.rtp_flood_threshold
  in
  let m = M.instantiate (M.compile spec) ~globals:(Env.globals ()) in
  let r =
    R.create
      ~guards:
        [
          ("spam", fun env event -> under_rate env && R.is_spam config env event);
          ("in_order", fun env event -> under_rate env && not (R.is_spam config env event));
        ]
      spec ~globals:(Env.globals ())
  in
  List.iteri (fun i ev -> ignore (step_agrees m r i (event_at i ev) : bool)) evs;
  true

let spam_guard_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"MEDIA_SPAM spam guard agrees with the host is_spam" ~count:500
       (QCheck.make ~print:show_stream rtp_stream)
       spam_guard_agrees)

let suite =
  [
    ( "efsm.differential",
      List.map
        (fun machine ->
          differential ~count:200
            (machine ^ " steps agree with the reference")
            (builtin machine))
        Vids.Keys.[ sip_machine; rtp_machine; flood_machine; spam_machine; drdos_machine ]
      @ [ differential ~count:300 "toy steps agree with the reference" toy_spec ]
      (* A flood threshold of 40 lets the spam detector stay in
         PACKET_RCVD for a while before it floods. *)
      @ List.map
          (fun machine ->
            differential ~count:40 ~rtp:24 ~min_moves:200
              ~length:(QCheck.Gen.int_range 400 600)
              (machine ^ " agrees over 200+ transitions")
              (builtin ~config:{ config with Vids.Config.rtp_flood_threshold = 40 } machine))
          Vids.Keys.[ rtp_machine; spam_machine ]
      @ List.map
          (fun machine ->
            Alcotest.test_case
              (machine ^ " restored at every window length agrees")
              `Quick (restore_round_trip machine))
          Vids.Keys.[ rtp_machine; spam_machine ]
      @ [ wrap_is_serial_arithmetic; baseline_differential; spam_guard_differential ] );
  ]
