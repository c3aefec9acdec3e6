(* Instance-scoped metrics registry: counters, gauges, log-bucket
   histograms, snapshots.  See metrics.mli for the contract. *)

let bucket_bounds =
  (* Powers of two from 1e-6 to ~9e9: spans sub-microsecond durations (in
     seconds) through dimensionless counts in the billions, so one shared
     ladder serves every histogram. *)
  Array.init 54 (fun i -> 1e-6 *. Float.of_int (1 lsl i))

let n_buckets = Array.length bucket_bounds + 1 (* + overflow *)

(* First bound >= x, by binary search — observe is hot-path code. *)
let bucket_index x =
  let n = Array.length bucket_bounds in
  if x > bucket_bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x <= bucket_bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  hb : int array;
  mutable hcount : int;
  mutable hsum : float;
  hq : Dsim.Stat.Quantiles.t;
}

type instrument = C of counter | G of gauge | H of histogram

type registered = {
  r_name : string;
  r_help : string;
  r_labels : (string * string) list; (* sorted by label name *)
  r_inst : instrument;
}

type t = {
  mutable clock : unit -> Dsim.Time.t;
  table : (string, registered) Hashtbl.t; (* keyed by name + rendered labels *)
  mutable order : registered list; (* newest first; snapshot sorts anyway *)
}

let create ?(clock = fun () -> Dsim.Time.zero) () =
  { clock; table = Hashtbl.create 64; order = [] }

let set_clock t clock = t.clock <- clock

let render_labels labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_label = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t ~help ~labels name make match_inst =
  let labels = sort_labels labels in
  let key = name ^ "{" ^ render_labels labels ^ "}" in
  match Hashtbl.find_opt t.table key with
  | Some r -> (
      match match_inst r.r_inst with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" key
               (kind_label r.r_inst)))
  | None ->
      let inst, handle = make () in
      let r = { r_name = name; r_help = help; r_labels = labels; r_inst = inst } in
      Hashtbl.replace t.table key r;
      t.order <- r :: t.order;
      handle

let counter t ?(help = "") ?(labels = []) name =
  register t ~help ~labels name
    (fun () ->
      let c = { c = 0 } in
      (C c, c))
    (function C c -> Some c | G _ | H _ -> None)

let incr c = c.c <- c.c + 1
let add c n = if n > 0 then c.c <- c.c + n

let gauge t ?(help = "") ?(labels = []) name =
  register t ~help ~labels name
    (fun () ->
      let g = { g = 0.0 } in
      (G g, g))
    (function G g -> Some g | C _ | H _ -> None)

let set g x = g.g <- x

let histogram t ?(help = "") ?(labels = []) name =
  register t ~help ~labels name
    (fun () ->
      let h =
        { hb = Array.make n_buckets 0; hcount = 0; hsum = 0.0; hq = Dsim.Stat.Quantiles.create () }
      in
      (H h, h))
    (function H h -> Some h | C _ | G _ -> None)

let observe h x =
  let i = bucket_index x in
  h.hb.(i) <- h.hb.(i) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. x;
  Dsim.Stat.Quantiles.add h.hq x

(* --------------------------------------------------------------- *)
(* Snapshots                                                        *)
(* --------------------------------------------------------------- *)

type hist_snap = {
  buckets : int array;
  count : int;
  sum : float;
  quantiles : Dsim.Stat.Quantiles.t;
}

type value = Counter of int | Gauge of float | Histogram of hist_snap

type row = { name : string; help : string; labels : (string * string) list; value : value }

type snapshot = { at : Dsim.Time.t; rows : row list }

let row_key r = r.name ^ "{" ^ render_labels r.labels ^ "}"

let row_order a b = String.compare (row_key a) (row_key b)

let snapshot t =
  let rows =
    List.rev_map
      (fun r ->
        let value =
          match r.r_inst with
          | C c -> Counter c.c
          | G g -> Gauge g.g
          | H h ->
              Histogram
                {
                  buckets = Array.copy h.hb;
                  count = h.hcount;
                  sum = h.hsum;
                  quantiles = Dsim.Stat.Quantiles.merge h.hq (Dsim.Stat.Quantiles.create ());
                  (* merge-with-empty: a private copy, so later observes
                     into the live histogram never mutate the snapshot *)
                }
          in
        { name = r.r_name; help = r.r_help; labels = r.r_labels; value })
      t.order
  in
  { at = t.clock (); rows = List.sort row_order rows }

let find snap ?(labels = []) name =
  let labels = sort_labels labels in
  List.find_map
    (fun r -> if String.equal r.name name && r.labels = labels then Some r.value else None)
    snap.rows

let total snap name =
  List.fold_left
    (fun acc r ->
      match r.value with
      | Counter n when String.equal r.name name -> acc + n
      | Counter _ | Gauge _ | Histogram _ -> acc)
    0 snap.rows
