module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let pp ppf t =
    Format.fprintf ppf "n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g" t.count (mean t) (stddev t)
      (min t) (max t)
end

module Series = struct
  type t = { mutable samples : (Time.t * float) list; mutable n : int }

  let create () = { samples = []; n = 0 }

  let add t at x =
    t.samples <- (at, x) :: t.samples;
    t.n <- t.n + 1

  let length t = t.n
  let to_list t = List.rev t.samples
  let values t = Array.of_list (List.rev_map snd t.samples)

  let summary t =
    let s = Summary.create () in
    List.iter (fun (_, x) -> Summary.add s x) t.samples;
    s

  let bucket_mean t ~bucket =
    if bucket <= 0 then invalid_arg "Series.bucket_mean: bucket must be positive";
    let tbl = Hashtbl.create 64 in
    let record (at, x) =
      let key = at / bucket in
      let sum, n = try Hashtbl.find tbl key with Not_found -> (0.0, 0) in
      Hashtbl.replace tbl key (sum +. x, n + 1)
    in
    List.iter record t.samples;
    Hashtbl.fold (fun key (sum, n) acc -> (key * bucket, sum /. float_of_int n) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Time.compare a b)
end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

module Quantiles = struct
  type t = {
    capacity : int;
    rng : Rng.t;
    samples : float array; (* retained reservoir; first [filled] slots live *)
    mutable filled : int;
    mutable seen : int;
  }

  let create ?(capacity = 8192) ?(seed = 0x51a7) () =
    if capacity <= 0 then invalid_arg "Quantiles.create: capacity must be positive";
    { capacity; rng = Rng.create seed; samples = Array.make capacity 0.0; filled = 0; seen = 0 }

  let add t x =
    t.seen <- t.seen + 1;
    if t.filled < t.capacity then begin
      t.samples.(t.filled) <- x;
      t.filled <- t.filled + 1
    end
    else begin
      (* Algorithm R: keep each of the [seen] samples with equal probability. *)
      let slot = Rng.int t.rng t.seen in
      if slot < t.capacity then t.samples.(slot) <- x
    end

  let count t = t.seen

  let quantile t p = percentile (Array.sub t.samples 0 t.filled) p

  let p50 t = quantile t 50.0
  let p95 t = quantile t 95.0
  let p99 t = quantile t 99.0

  let merge a b =
    let merged = create ~capacity:(a.capacity + b.capacity) () in
    Array.iter (add merged) (Array.sub a.samples 0 a.filled);
    Array.iter (add merged) (Array.sub b.samples 0 b.filled);
    merged.seen <- a.seen + b.seen;
    merged

end
