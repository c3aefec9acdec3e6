type pos = { file : string; line : int; col : int }

type span = { s : pos; e : pos }

let is_dummy sp = sp.s.line = 0

let merge a b =
  let before (p : pos) (q : pos) = p.line < q.line || (p.line = q.line && p.col <= q.col) in
  { s = (if before a.s b.s then a.s else b.s); e = (if before a.e b.e then b.e else a.e) }

let pos_to_string p = Printf.sprintf "%s:%d:%d" p.file p.line p.col

let to_string sp = pos_to_string sp.s
