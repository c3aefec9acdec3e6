type t =
  | INVITE
  | ACK
  | BYE
  | CANCEL
  | REGISTER
  | OPTIONS
  | INFO
  | UPDATE
  | PRACK
  | SUBSCRIBE
  | NOTIFY
  | REFER
  | MESSAGE
  | Extension of string

let to_string = function
  | INVITE -> "INVITE"
  | ACK -> "ACK"
  | BYE -> "BYE"
  | CANCEL -> "CANCEL"
  | REGISTER -> "REGISTER"
  | OPTIONS -> "OPTIONS"
  | INFO -> "INFO"
  | UPDATE -> "UPDATE"
  | PRACK -> "PRACK"
  | SUBSCRIBE -> "SUBSCRIBE"
  | NOTIFY -> "NOTIFY"
  | REFER -> "REFER"
  | MESSAGE -> "MESSAGE"
  | Extension s -> s

let known =
  [ INVITE; ACK; BYE; CANCEL; REGISTER; OPTIONS; INFO; UPDATE; PRACK; SUBSCRIBE; NOTIFY; REFER;
    MESSAGE ]

let rec of_known s start stop = function
  | [] -> Extension (Scan.sub s start stop)
  | m :: rest -> if Scan.equal s start stop (to_string m) then m else of_known s start stop rest

let of_range s start stop = of_known s start stop known
let of_string s = of_range s 0 (String.length s)

let equal a b = String.equal (to_string a) (to_string b)
let pp ppf t = Format.pp_print_string ppf (to_string t)
