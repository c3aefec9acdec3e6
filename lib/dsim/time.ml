type t = int

let zero = 0
let of_sec s = int_of_float (Float.round (s *. 1e6))
let to_sec t = float_of_int t /. 1e6
let of_ms ms = int_of_float (Float.round (ms *. 1e3))
let to_ms t = float_of_int t /. 1e3
let of_us us = us
let to_us t = t
let add = ( + )
let sub = ( - )
let compare = Int.compare
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let min (a : t) b = Stdlib.min a b
let max (a : t) b = Stdlib.max a b
let pp ppf t = Format.fprintf ppf "%d.%06ds" (t / 1_000_000) (abs (t mod 1_000_000))
