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

let of_string = function
  | "INVITE" -> INVITE
  | "ACK" -> ACK
  | "BYE" -> BYE
  | "CANCEL" -> CANCEL
  | "REGISTER" -> REGISTER
  | "OPTIONS" -> OPTIONS
  | "INFO" -> INFO
  | "UPDATE" -> UPDATE
  | "PRACK" -> PRACK
  | "SUBSCRIBE" -> SUBSCRIBE
  | "NOTIFY" -> NOTIFY
  | "REFER" -> REFER
  | "MESSAGE" -> MESSAGE
  | s -> Extension s

let equal a b = String.equal (to_string a) (to_string b)
let pp ppf t = Format.pp_print_string ppf (to_string t)
