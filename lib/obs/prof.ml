(* Hot-path profiler.  See prof.mli for the contract.

   The span stack is an array of preallocated mutable frames, so a
   balanced enter/exit pair allocates nothing beyond the two boxed floats
   the clock and allocation counters return.  Self time is attributed by
   subtraction: every exit adds its *elapsed* time to the parent frame's
   child accumulator, so the parent's own accounting later removes it. *)

type stage =
  | Sip_parse
  | Sdp_parse
  | Rtp_parse
  | Efsm_dispatch
  | Detect
  | Enforce_gate
  | Journal_fsync
  | Checkpoint
  | Ingest_poll
  | Drive

let all_stages =
  [
    Sip_parse; Sdp_parse; Rtp_parse; Efsm_dispatch; Detect; Enforce_gate; Journal_fsync;
    Checkpoint; Ingest_poll; Drive;
  ]

let index = function
  | Sip_parse -> 0
  | Sdp_parse -> 1
  | Rtp_parse -> 2
  | Efsm_dispatch -> 3
  | Detect -> 4
  | Enforce_gate -> 5
  | Journal_fsync -> 6
  | Checkpoint -> 7
  | Ingest_poll -> 8
  | Drive -> 9

let stage_name = function
  | Sip_parse -> "sip-parse"
  | Sdp_parse -> "sdp-parse"
  | Rtp_parse -> "rtp-parse"
  | Efsm_dispatch -> "efsm-dispatch"
  | Detect -> "detect"
  | Enforce_gate -> "enforce-gate"
  | Journal_fsync -> "journal-fsync"
  | Checkpoint -> "checkpoint"
  | Ingest_poll -> "ingest-poll"
  | Drive -> "drive"

(* Deep enough for every real nesting (driver > ingest > engine > parse is
   depth 4); a runaway recursion hits the overflow counter instead of
   growing state. *)
let max_depth = 16

type frame = {
  mutable f_stage : int;
  mutable f_t0 : float;
  mutable f_a0 : float;
  mutable f_child_s : float; (* elapsed seconds consumed by nested spans *)
  mutable f_child_w : float; (* words allocated by nested spans *)
}

type t = {
  clock : unit -> float;
  alloc : unit -> float;
  reg : Metrics.t;
  hist : Metrics.histogram array; (* self seconds, per stage *)
  words_c : Metrics.counter array;
  spans_c : Metrics.counter array;
  mismatch : Metrics.counter;
  overflow : Metrics.counter;
  g_heap : Metrics.gauge;
  g_top_heap : Metrics.gauge;
  g_minor : Metrics.gauge;
  g_major : Metrics.gauge;
  g_compactions : Metrics.gauge;
  g_allocated : Metrics.gauge;
  stack : frame array;
  mutable depth : int;
  flight : Trace.t option;
  mutable vclock : unit -> Dsim.Time.t;
  sample_every : int;
  mutable until_sample : int;
}

let default_clock () = Unix.gettimeofday ()
let default_alloc () = Gc.minor_words ()

let create ?registry ?flight ?(sample_every = 1024) ?(clock = default_clock)
    ?(alloc = default_alloc) ?(vclock = fun () -> Dsim.Time.zero) () =
  let reg = match registry with Some r -> r | None -> Metrics.create () in
  let per name help =
    Array.of_list
      (List.map
         (fun s -> name reg ~help ~labels:[ ("stage", stage_name s) ])
         all_stages)
  in
  {
    clock;
    alloc;
    reg;
    hist =
      per
        (fun r ~help ~labels -> Metrics.histogram r "vids_stage_seconds" ~help ~labels)
        "Per-span self wall seconds, by pipeline stage";
    words_c =
      per
        (fun r ~help ~labels -> Metrics.counter r "vids_stage_alloc_words_total" ~help ~labels)
        "Minor-heap words allocated inside the stage's own spans";
    spans_c =
      per
        (fun r ~help ~labels -> Metrics.counter r "vids_stage_spans_total" ~help ~labels)
        "Completed spans, by pipeline stage";
    mismatch =
      Metrics.counter reg "vids_prof_mismatch_total"
        ~help:"Span exits without a matching enter (dropped, not raised)";
    overflow =
      Metrics.counter reg "vids_prof_depth_overflow_total"
        ~help:"Spans opened beyond the profiler's fixed stack depth";
    g_heap = Metrics.gauge reg "vids_gc_heap_words" ~help:"Major heap size in words";
    g_top_heap =
      Metrics.gauge reg "vids_gc_top_heap_words" ~help:"Largest major heap size reached, words";
    g_minor = Metrics.gauge reg "vids_gc_minor_collections" ~help:"Minor collections so far";
    g_major = Metrics.gauge reg "vids_gc_major_collections" ~help:"Major collection cycles so far";
    g_compactions = Metrics.gauge reg "vids_gc_compactions" ~help:"Heap compactions so far";
    g_allocated =
      Metrics.gauge reg "vids_gc_allocated_words"
        ~help:"Words allocated over the process lifetime (minor + direct major)";
    stack =
      Array.init max_depth (fun _ ->
          { f_stage = -1; f_t0 = 0.0; f_a0 = 0.0; f_child_s = 0.0; f_child_w = 0.0 });
    depth = 0;
    flight;
    vclock;
    sample_every;
    until_sample = sample_every;
  }

let registry t = t.reg
let set_vclock t vclock = t.vclock <- vclock
let depth t = t.depth

let enter t stage =
  let d = t.depth in
  t.depth <- d + 1;
  if d >= max_depth then Metrics.incr t.overflow
  else begin
    let f = t.stack.(d) in
    f.f_stage <- index stage;
    f.f_child_s <- 0.0;
    f.f_child_w <- 0.0;
    f.f_t0 <- t.clock ();
    f.f_a0 <- t.alloc ()
  end

let sample t stage ~self_s ~self_w =
  if t.sample_every > 0 then begin
    t.until_sample <- t.until_sample - 1;
    if t.until_sample <= 0 then begin
      t.until_sample <- t.sample_every;
      match t.flight with
      | None -> ()
      | Some fl ->
          Trace.record fl ~at:(t.vclock ())
            (Trace.Span { stage = stage_name stage; self_s; words = self_w })
    end
  end

let exit t stage =
  if t.depth = 0 then Metrics.incr t.mismatch
  else begin
    let d = t.depth - 1 in
    t.depth <- d;
    if d < max_depth then begin
      let f = t.stack.(d) in
      if f.f_stage <> index stage then Metrics.incr t.mismatch
      else begin
        (* Read the counters before any accounting so the profiler's own
           bookkeeping is charged to the parent, not to this span. *)
        let elapsed = t.clock () -. f.f_t0 in
        let allocated = t.alloc () -. f.f_a0 in
        let self_s = Float.max 0.0 (elapsed -. f.f_child_s) in
        let self_w = Float.max 0.0 (allocated -. f.f_child_w) in
        let i = f.f_stage in
        Metrics.observe t.hist.(i) self_s;
        Metrics.add t.words_c.(i) (int_of_float self_w);
        Metrics.incr t.spans_c.(i);
        if d > 0 && d <= max_depth then begin
          let parent = t.stack.(d - 1) in
          parent.f_child_s <- parent.f_child_s +. elapsed;
          parent.f_child_w <- parent.f_child_w +. allocated
        end;
        sample t stage ~self_s ~self_w
      end
    end
  end

let sample_gc t =
  let s = Gc.quick_stat () in
  Metrics.set t.g_heap (float_of_int s.Gc.heap_words);
  Metrics.set t.g_top_heap (float_of_int s.Gc.top_heap_words);
  Metrics.set t.g_minor (float_of_int s.Gc.minor_collections);
  Metrics.set t.g_major (float_of_int s.Gc.major_collections);
  Metrics.set t.g_compactions (float_of_int s.Gc.compactions);
  Metrics.set t.g_allocated (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

(* --------------------------------------------------------------- *)
(* Reports                                                          *)
(* --------------------------------------------------------------- *)

type stage_report = {
  r_stage : string;
  r_spans : int;
  r_seconds : float;
  r_words : float;
  r_p50_s : float;
  r_p95_s : float;
  r_p99_s : float;
}

let report_of_snapshot snap =
  let rows =
    List.filter_map
      (fun stage ->
        let labels = [ ("stage", stage_name stage) ] in
        let spans =
          match Metrics.find snap ~labels "vids_stage_spans_total" with
          | Some (Metrics.Counter n) -> n
          | Some _ | None -> 0
        in
        if spans = 0 then None
        else
          let words =
            match Metrics.find snap ~labels "vids_stage_alloc_words_total" with
            | Some (Metrics.Counter n) -> float_of_int n
            | Some _ | None -> 0.0
          in
          match Metrics.find snap ~labels "vids_stage_seconds" with
          | Some (Metrics.Histogram h) ->
              Some
                {
                  r_stage = stage_name stage;
                  r_spans = spans;
                  r_seconds = h.Metrics.sum;
                  r_words = words;
                  r_p50_s = Dsim.Stat.Quantiles.p50 h.Metrics.quantiles;
                  r_p95_s = Dsim.Stat.Quantiles.p95 h.Metrics.quantiles;
                  r_p99_s = Dsim.Stat.Quantiles.p99 h.Metrics.quantiles;
                }
          | Some _ | None -> None)
      all_stages
  in
  List.sort (fun a b -> Float.compare b.r_seconds a.r_seconds) rows

let total_seconds rows = List.fold_left (fun acc r -> acc +. r.r_seconds) 0.0 rows

let bytes_per_record ~records words =
  if records <= 0 then 0.0 else words *. 8.0 /. float_of_int records

let pp_table ?records ?total_s ppf rows =
  let total = match total_s with Some t when t > 0.0 -> t | _ -> total_seconds rows in
  let us v = if Float.is_nan v then 0.0 else v *. 1e6 in
  Format.fprintf ppf "%-14s %10s %10s %7s %9s %9s" "stage" "spans" "self s" "share" "p50 us"
    "p99 us";
  (match records with Some _ -> Format.fprintf ppf " %9s@." "B/record" | None -> Format.fprintf ppf "@.");
  List.iter
    (fun r ->
      let share = if total > 0.0 then 100.0 *. r.r_seconds /. total else 0.0 in
      Format.fprintf ppf "%-14s %10d %10.4f %6.1f%% %9.1f %9.1f" r.r_stage r.r_spans r.r_seconds
        share (us r.r_p50_s) (us r.r_p99_s);
      match records with
      | Some n -> Format.fprintf ppf " %9.0f@." (bytes_per_record ~records:n r.r_words)
      | None -> Format.fprintf ppf "@.")
    rows;
  Format.fprintf ppf "%-14s %10s %10.4f@." "total" "" (total_seconds rows)

let report_json ?records ?total_s rows =
  let total = match total_s with Some t when t > 0.0 -> t | _ -> total_seconds rows in
  Json.arr
    (List.map
       (fun r ->
         let share = if total > 0.0 then r.r_seconds /. total else 0.0 in
         let base =
           [
             ("stage", Json.quote r.r_stage);
             ("spans", Json.int r.r_spans);
             ("self_s", Json.float r.r_seconds);
             ("share", Json.float share);
             ("alloc_words", Json.float r.r_words);
             ("p50_s", Json.float r.r_p50_s);
             ("p95_s", Json.float r.r_p95_s);
             ("p99_s", Json.float r.r_p99_s);
           ]
         in
         Json.obj
           (match records with
           | Some n ->
               base @ [ ("bytes_per_record", Json.float (bytes_per_record ~records:n r.r_words)) ]
           | None -> base))
       rows)
