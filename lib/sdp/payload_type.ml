type info = { number : int; encoding : string; clock_rate : int }

let all =
  [
    { number = 0; encoding = "PCMU"; clock_rate = 8000 };
    { number = 3; encoding = "GSM"; clock_rate = 8000 };
    { number = 8; encoding = "PCMA"; clock_rate = 8000 };
    { number = 9; encoding = "G722"; clock_rate = 8000 };
    { number = 15; encoding = "G728"; clock_rate = 8000 };
    { number = 18; encoding = "G729"; clock_rate = 8000 };
  ]
let find number = List.find_opt (fun i -> i.number = number) all
let rtpmap i = Printf.sprintf "%d %s/%d" i.number i.encoding i.clock_rate
