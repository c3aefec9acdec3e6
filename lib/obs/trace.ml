(* Bounded ring-buffer flight recorder.  See trace.mli for the contract. *)

type event =
  | Packet of { proto : string; src : Dsim.Addr.t; dst : Dsim.Addr.t }
  | Dispatch of { target : string; subject : string }
  | Transition of { machine : string; subject : string; state : string }
  | Alert of { kind : string; subject : string }
  | Quarantine of { subject : string; origin : string }
  | Eviction of { subject : string; detail : string }
  | Checkpoint of { seq : int }
  | Ingest of { action : string; detail : string }
  | Enforce of { action : string; subject : string }
  | Span of { stage : string; self_s : float; words : float }
  | Note of { label : string; detail : string }

type entry = { seq : int; at : Dsim.Time.t; ev : event }

(* Sentinel-filled array rather than [entry option]: recording is hot-path
   code, and the sentinel saves the [Some] cell per event. *)
let sentinel = { seq = -1; at = Dsim.Time.zero; ev = Note { label = ""; detail = "" } }

type t = {
  ring : entry array;
  mutable cursor : int; (* next slot to overwrite *)
  mutable next : int; (* total events recorded *)
  mutable sinks : (reason:string -> entry list -> unit) list;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity must be positive";
  { ring = Array.make capacity sentinel; cursor = 0; next = 0; sinks = [] }

let recorded t = t.next

let record t ~at ev =
  t.ring.(t.cursor) <- { seq = t.next; at; ev };
  let c = t.cursor + 1 in
  t.cursor <- (if c = Array.length t.ring then 0 else c);
  t.next <- t.next + 1

let entries t =
  let cap = Array.length t.ring in
  let n = Stdlib.min t.next cap in
  let first = if t.next < cap then 0 else t.cursor in
  List.init n (fun i -> t.ring.((first + i) mod cap))

let on_dump t sink = t.sinks <- sink :: t.sinks

let dump t ~reason =
  let tail = entries t in
  List.iter
    (fun sink ->
      (* A failing sink must not unwind the pipeline being observed. *)
      try sink ~reason tail with _ -> ())
    (List.rev t.sinks);
  tail

let event_to_json = function
  | Packet { proto; src; dst } ->
      Json.obj
        [ ("type", Json.quote "packet"); ("proto", Json.quote proto);
          ("src", Json.quote (Dsim.Addr.to_string src));
          ("dst", Json.quote (Dsim.Addr.to_string dst)) ]
  | Dispatch { target; subject } ->
      Json.obj
        [ ("type", Json.quote "dispatch"); ("target", Json.quote target);
          ("subject", Json.quote subject) ]
  | Transition { machine; subject; state } ->
      Json.obj
        [ ("type", Json.quote "transition"); ("machine", Json.quote machine);
          ("subject", Json.quote subject); ("state", Json.quote state) ]
  | Alert { kind; subject } ->
      Json.obj
        [ ("type", Json.quote "alert"); ("kind", Json.quote kind);
          ("subject", Json.quote subject) ]
  | Quarantine { subject; origin } ->
      Json.obj
        [ ("type", Json.quote "quarantine"); ("subject", Json.quote subject);
          ("origin", Json.quote origin) ]
  | Eviction { subject; detail } ->
      Json.obj
        [ ("type", Json.quote "eviction"); ("subject", Json.quote subject);
          ("detail", Json.quote detail) ]
  | Checkpoint { seq } ->
      Json.obj [ ("type", Json.quote "checkpoint"); ("seq", Json.int seq) ]
  | Ingest { action; detail } ->
      Json.obj
        [ ("type", Json.quote "ingest"); ("action", Json.quote action);
          ("detail", Json.quote detail) ]
  | Enforce { action; subject } ->
      Json.obj
        [ ("type", Json.quote "enforce"); ("action", Json.quote action);
          ("subject", Json.quote subject) ]
  | Span { stage; self_s; words } ->
      Json.obj
        [ ("type", Json.quote "span"); ("stage", Json.quote stage);
          ("self_s", Json.float self_s); ("words", Json.float words) ]
  | Note { label; detail } ->
      Json.obj
        [ ("type", Json.quote "note"); ("label", Json.quote label);
          ("detail", Json.quote detail) ]

let entry_to_json e =
  Json.obj
    [ ("seq", Json.int e.seq); ("at_us", Json.int (Dsim.Time.to_us e.at));
      ("event", event_to_json e.ev) ]
