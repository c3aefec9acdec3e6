type t = { id : int; src : Addr.t; dst : Addr.t; payload : string; sent_at : Time.t }

let header_overhead = 28
let size t = String.length t.payload + header_overhead

type allocator = { mutable next : int }

let allocator () = { next = 0 }

let make alloc ~src ~dst ~sent_at payload =
  let id = alloc.next in
  alloc.next <- alloc.next + 1;
  { id; src; dst; payload; sent_at }

let with_payload t payload = { t with payload }
