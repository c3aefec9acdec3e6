(* Bench-side measurement: a nanosecond clock, summary statistics, and the
   span recorder of the traced run.  Nothing here reaches into lib/: the
   suite times calls into public functions from its own files. *)

(* CLOCK_MONOTONIC in nanoseconds; the stub neither allocates nor rounds
   to microseconds the way [Unix.gettimeofday] does. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Words allocated anywhere (minor heap plus direct major allocations). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* Summary statistics                                                  *)
(* ------------------------------------------------------------------ *)

type summary = { median : float; q1 : float; q3 : float; lo : float; hi : float; n : int }

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so the suite's spreads read the same
   as any script that post-processes its output. *)
let summarize samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then { median = 0.; q1 = 0.; q3 = 0.; lo = 0.; hi = 0.; n = 0 }
  else
    let median = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2. in
    let lo = a.(0) and hi = a.(n - 1) in
    if n = 1 then { median; q1 = median; q3 = median; lo; hi; n }
    else
      let cut i =
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
      in
      { median; q1 = cut 1; q3 = cut 3; lo; hi; n }

let median samples = (summarize samples).median

(* Spread of the repeats relative to their median. *)
let relative_iqr s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

(* [percentile sorted p] by nearest rank over an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* Other tenants of a shared host slow memory-bound work by up to 2x for
   stretches of seconds to minutes, without any steal time to show for
   it; a wall time taken then measures the neighbours.  [Host] times a
   fixed kernel around each timed phase: SIP-like formatting and
   splitting from the standard library alone, whose allocations all die
   young, so its speed depends on the host and not on the code under test
   or the heap it leaves.  A phase's wall time times [speed] is its time
   at the reference host's speed.

   The phases slow less than the kernel does: over 480 phases of the four
   workloads on the reference host, the log-log slope of phase time
   against kernel time was 0.66-0.89, and with the exponent 0.75 the
   corrected times of phases run at under 0.7 of the kernel's nominal
   speed came within 5% of those run at over 0.9 for 8 of the 12
   workload-phase pairs (mostly 5-15% below them with the exponent 1). *)
module Host = struct
  let kernel () =
    let acc = ref 0 in
    for i = 0 to 30_000 do
      let s = Printf.sprintf "INVITE sip:%d@example.com SIP/2.0" i in
      acc := !acc + List.length (String.split_on_char ' ' s) + String.index s ':'
    done;
    !acc

  (* The kernel's median time on the reference host (2 vCPUs of a shared
     x86-64 host, OCaml 5.1.1) while quiet. *)
  let nominal_s = 0.0074
  let elasticity = 0.75

  let sample () = snd (timed (fun () -> ignore (Sys.opaque_identity (kernel ()))))

  (* [f ()] between three kernel samples on each side, and the speed
     around it: [nominal_s] over the median sample, to the power
     [elasticity]. *)
  let around f =
    let before = List.init 3 (fun _ -> sample ()) in
    let r = f () in
    let after = List.init 3 (fun _ -> sample ()) in
    (r, (nominal_s /. median (before @ after)) ** elasticity)
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans of the traced run, kept in preallocated arrays so that recording
   one allocates nothing.  [exit] charges each span's self time (its
   duration minus the time its child spans cover) to its name, for every
   span; only the first [capacity] are kept for the JSONL dump. *)
module Spans = struct
  let max_depth = 16

  type t = {
    names : string array;
    s_name : int array;
    s_start : int array;
    s_stop : int array;
    s_parent : int array;
    mutable len : int;
    mutable dropped : int;
    self_ns : int array;
    st_slot : int array;
    st_name : int array;
    st_start : int array;
    st_child : int array;
    mutable depth : int;
  }

  let create ~names ~capacity =
    {
      names;
      s_name = Array.make capacity 0;
      s_start = Array.make capacity 0;
      s_stop = Array.make capacity 0;
      s_parent = Array.make capacity 0;
      len = 0;
      dropped = 0;
      self_ns = Array.make (Array.length names) 0;
      st_slot = Array.make max_depth 0;
      st_name = Array.make max_depth 0;
      st_start = Array.make max_depth 0;
      st_child = Array.make max_depth 0;
      depth = 0;
    }

  let enter t name =
    let d = t.depth in
    if d >= max_depth then invalid_arg "Spans.enter: too deep";
    t.st_name.(d) <- name;
    t.st_child.(d) <- 0;
    if t.len < Array.length t.s_name then begin
      t.st_slot.(d) <- t.len;
      t.len <- t.len + 1
    end
    else begin
      t.st_slot.(d) <- -1;
      t.dropped <- t.dropped + 1
    end;
    t.depth <- d + 1;
    t.st_start.(d) <- now_ns ()

  (* Closes the innermost span and returns its duration in ns. *)
  let exit t =
    let stop = now_ns () in
    let d = t.depth - 1 in
    if d < 0 then invalid_arg "Spans.exit: no open span";
    t.depth <- d;
    let start = t.st_start.(d) and name = t.st_name.(d) in
    let dur = stop - start in
    t.self_ns.(name) <- t.self_ns.(name) + dur - t.st_child.(d);
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let slot = t.st_slot.(d) in
    if slot >= 0 then begin
      t.s_name.(slot) <- name;
      t.s_start.(slot) <- start;
      t.s_stop.(slot) <- stop;
      t.s_parent.(slot) <- (if d > 0 then t.st_slot.(d - 1) else -1)
    end;
    dur

  let span t name f =
    enter t name;
    match f () with
    | r ->
        ignore (exit t);
        r
    | exception e ->
        ignore (exit t);
        raise e

  let self_s t name = float_of_int t.self_ns.(name) *. 1e-9

  (* One JSON object per kept span, in opening order. *)
  let dump t oc =
    for i = 0 to t.len - 1 do
      output_string oc
        (Obs.Json.obj
           [
             ("id", string_of_int i);
             ("name", Obs.Json.quote t.names.(t.s_name.(i)));
             ("start_ns", string_of_int t.s_start.(i));
             ("end_ns", string_of_int t.s_stop.(i));
             ("parent", if t.s_parent.(i) < 0 then "null" else string_of_int t.s_parent.(i));
           ]);
      output_char oc '\n'
    done

  let kept t = t.len
  let dropped t = t.dropped
end
