(* Reference model for [Dsim.Rng]: SplitMix64 with its state in a mutable
   [int64] field, as the generator was written before its state moved into
   bytes.  Every update of the field boxes a new [int64], so each draw
   allocated; [test_dsim] holds the generator to this model draw for
   draw. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

(* Uniform float in [0,1): use the top 53 bits. *)
let unit_float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively;
     modulo bias is negligible for the tiny bounds used here. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let bool t p = unit_float t < p

let exponential t mean =
  let u = unit_float t in
  (* 1 - u is in (0,1], avoiding log 0. *)
  -.mean *. log (1.0 -. u)

let uniform t lo hi = lo +. (unit_float t *. (hi -. lo))

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
