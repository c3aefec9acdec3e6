type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Addr of string * int
  | Unset

let equal a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Addr (h1, p1), Addr (h2, p2) -> String.equal h1 h2 && Int.equal p1 p2
  | Unset, Unset -> true
  | (Int _ | Str _ | Bool _ | Addr _ | Unset), _ -> false

let pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.fprintf ppf "%b" b
  | Addr (h, p) -> Format.fprintf ppf "%s:%d" h p
  | Unset -> Format.fprintf ppf "<unset>"

let to_string t = Format.asprintf "%a" pp t

(* Wire tokens for checkpointing: compact, space-free, and exact (strings
   round-trip through hex).  A
   checkpoint encodes and a recovery decodes megabytes of this, so hex
   goes through a digit table, never a formatting call per byte. *)

let hex_digits = "0123456789abcdef"

let hex_of_string s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

let add_hex buf s =
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Buffer.add_char buf hex_digits.[c lsr 4];
    Buffer.add_char buf hex_digits.[c land 0xf]
  done

(* Digits of [n <= 0], most significant first.  Working on the
   non-positive side covers [min_int], whose negation overflows; a
   top-level function, unlike a local closure, allocates nothing. *)
let rec add_nonpos_digits buf n =
  if n <= -10 then add_nonpos_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_decimal buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_nonpos_digits buf n
  end
  else add_nonpos_digits buf (-n)

(* Exactly [0-9a-fA-F]; -1 for anything else.  [int_of_string] would
   also take a sign or a '_' separator. *)
let nibble = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Decodes [h.[off] .. h.[off + len - 1]]. *)
let unhex_sub h ~off ~len =
  if len mod 2 <> 0 then Error "odd-length hex"
  else
    let out = Bytes.create (len / 2) in
    let rec go i =
      if i = len / 2 then Ok (Bytes.unsafe_to_string out)
      else
        let hi = nibble h.[off + (2 * i)] and lo = nibble h.[off + (2 * i) + 1] in
        if hi < 0 || lo < 0 then Error "invalid hex digit"
        else begin
          Bytes.unsafe_set out i (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
    in
    go 0

let string_of_hex h = unhex_sub h ~off:0 ~len:(String.length h)

let add_token buf = function
  | Int n ->
      Buffer.add_char buf 'i';
      add_decimal buf n
  | Str s ->
      Buffer.add_char buf 's';
      add_hex buf s
  | Bool b -> Buffer.add_string buf (if b then "b1" else "b0")
  | Addr (h, p) ->
      Buffer.add_char buf 'a';
      add_hex buf h;
      Buffer.add_char buf ':';
      add_decimal buf p
  | Unset -> Buffer.add_char buf 'u'

let of_token token =
  let n = String.length token in
  if n = 0 then Error "empty value token"
  else
    let body () = String.sub token 1 (n - 1) in
    match token.[0] with
    | 'i' -> (
        match int_of_string_opt (body ()) with
        | Some n -> Ok (Int n)
        | None -> Error "bad int token")
    | 's' -> Result.map (fun s -> Str s) (unhex_sub token ~off:1 ~len:(n - 1))
    | 'b' -> (
        match body () with
        | "0" -> Ok (Bool false)
        | "1" -> Ok (Bool true)
        | _ -> Error "bad bool token")
    | 'a' -> (
        match String.index_from_opt token 1 ':' with
        | None -> Error "bad addr token"
        | Some i -> (
            let port_str = String.sub token (i + 1) (n - i - 1) in
            match (unhex_sub token ~off:1 ~len:(i - 1), int_of_string_opt port_str) with
            | Ok host, Some port -> Ok (Addr (host, port))
            | Error e, _ -> Error e
            | _, None -> Error "bad addr port"))
    | 'u' -> if n = 1 then Ok Unset else Error "bad unset token"
    | _ -> Error "unknown value token"
