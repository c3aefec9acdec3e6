type t = { number : int; meth : Msg_method.t }

let make number meth = { number; meth }

(* Exactly two tokens, separated by spaces: the number and the method. *)
let parse_range s start stop =
  let a = Scan.skip_space s start stop in
  let b = Scan.trim_end s a stop in
  let number_stop = Scan.until s a b ' ' in
  let meth_start = Scan.skip s number_stop b ' ' in
  let meth_stop = Scan.until s meth_start b ' ' in
  if meth_start = b || Scan.skip s meth_stop b ' ' < b then
    Error (Printf.sprintf "CSeq: malformed %S" (Scan.sub s start stop))
  else
    let number = Scan.decimal s a number_stop in
    if number < 0 then Error (Printf.sprintf "CSeq: bad number %S" (Scan.sub s a number_stop))
    else Ok { number; meth = Msg_method.of_range s meth_start meth_stop }

let parse s = parse_range s 0 (String.length s)

let to_string t = Printf.sprintf "%d %s" t.number (Msg_method.to_string t.meth)
