(* Wall-clock abstraction: the single point where real time enters the
   daemon.  The system clock is made monotone (a backwards NTP step holds
   the reported time still); the manual clock lets tests and benches run
   paced ingestion instantly. *)

type t = { now : unit -> float; sleep : float -> unit }

let system () =
  let last = ref neg_infinity in
  let now () =
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last
  in
  { now; sleep = (fun d -> if d > 0.0 then Unix.sleepf d) }

(* Manual clocks advance themselves when asked to sleep. *)
let manual ?(start = 0.0) () =
  let cell = ref start in
  { now = (fun () -> !cell); sleep = (fun d -> if d > 0.0 then cell := !cell +. d) }
