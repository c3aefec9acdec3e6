(* Capped exponential backoff with a retry budget.  All float arithmetic
   with an explicit clamp, so a huge factor or a long failure streak can
   never overflow into a negative or absurd delay. *)

type t = {
  initial_s : float;
  factor : float;
  cap_s : float;
  budget : int;
  mutable used : int;
}

let create ?(initial_s = 0.1) ?(factor = 2.0) ?(cap_s = 30.0) ?(budget = 8) () =
  if initial_s <= 0.0 then invalid_arg "Backoff.create: initial_s must be positive";
  if factor < 1.0 then invalid_arg "Backoff.create: factor must be >= 1";
  if cap_s < initial_s then invalid_arg "Backoff.create: cap_s below initial_s";
  { initial_s; factor; cap_s; budget; used = 0 }

let next t =
  if t.used >= t.budget then None
  else begin
    let d = t.initial_s *. (t.factor ** float_of_int t.used) in
    t.used <- t.used + 1;
    (* [d] may be infinite for large exponents; min with the finite cap
       yields the cap, so the clamp doubles as overflow protection. *)
    Some (if d > t.cap_s then t.cap_s else d)
  end

let reset t = t.used <- 0
