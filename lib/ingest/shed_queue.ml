(* Bounded ingest queue with watermark shedding: media refused above the
   high watermark, oldest displaced at capacity.  Backed by the stdlib
   Queue; depth is tracked explicitly so push/pop stay O(1). *)

type t = {
  q : Vids.Trace.record Queue.t;
  capacity : int;
  high_water : int;
  mutable enqueued : int;
  mutable shed_media : int;
  mutable shed_oldest : int;
  mutable peak_depth : int;
}

type verdict = Enqueued | Shed_media | Displaced_oldest

type stats = {
  enqueued : int;
  shed_media : int;
  shed_oldest : int;
  peak_depth : int;
  capacity : int;
  high_water : int;
}

let create ?high_water ~capacity () =
  let high_water = match high_water with Some h -> h | None -> max 1 (capacity * 3 / 4) in
  if capacity <= 0 then invalid_arg "Shed_queue.create: capacity must be positive";
  if high_water <= 0 || high_water > capacity then
    invalid_arg "Shed_queue.create: need 0 < high_water <= capacity";
  {
    q = Queue.create ();
    capacity;
    high_water;
    enqueued = 0;
    shed_media = 0;
    shed_oldest = 0;
    peak_depth = 0;
  }

let is_signaling payload =
  String.length payload > 0
  &&
  match payload.[0] with 'A' .. 'Z' | 'a' .. 'z' -> true | _ -> false

let enqueue t r =
  Queue.push r t.q;
  t.enqueued <- t.enqueued + 1;
  let depth = Queue.length t.q in
  if depth > t.peak_depth then t.peak_depth <- depth

let push t (r : Vids.Trace.record) =
  let depth = Queue.length t.q in
  if depth >= t.capacity then begin
    ignore (Queue.pop t.q);
    t.shed_oldest <- t.shed_oldest + 1;
    enqueue t r;
    Displaced_oldest
  end
  else if depth >= t.high_water && not (is_signaling r.Vids.Trace.payload) then begin
    t.shed_media <- t.shed_media + 1;
    Shed_media
  end
  else begin
    enqueue t r;
    Enqueued
  end

let pop t = Queue.take_opt t.q

let length t = Queue.length t.q

let stats (t : t) =
  {
    enqueued = t.enqueued;
    shed_media = t.shed_media;
    shed_oldest = t.shed_oldest;
    peak_depth = t.peak_depth;
    capacity = t.capacity;
    high_water = t.high_water;
  }
