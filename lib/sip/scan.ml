let is_space = function ' ' | '\t' | '\r' | '\n' | '\012' -> true | _ -> false
let rec skip_space s i stop = if i < stop && is_space s.[i] then skip_space s (i + 1) stop else i

let rec trim_end s start stop =
  if stop > start && is_space s.[stop - 1] then trim_end s start (stop - 1) else stop

let rec index s i stop c = if i >= stop then -1 else if s.[i] = c then i else index s (i + 1) stop c
let rec until s i stop c = if i < stop && s.[i] <> c then until s (i + 1) stop c else i
let rec skip s i stop c = if i < stop && s.[i] = c then skip s (i + 1) stop c else i
let sub s start stop = String.sub s start (stop - start)

let rec equal_from s i stop t j = i = stop || (s.[i] = t.[j] && equal_from s (i + 1) stop t (j + 1))
let equal s start stop t = stop - start = String.length t && equal_from s start stop t 0

let rec equal_ci_at s i stop t j =
  i = stop
  || Char.lowercase_ascii s.[i] = Char.lowercase_ascii t.[j]
     && equal_ci_at s (i + 1) stop t (j + 1)

let equal_ci s start stop t = stop - start = String.length t && equal_ci_at s start stop t 0

(* The quote and bracket states reset at every item boundary: a comma
   splits only when both are closed. *)
let rec item_end_from s i stop quoted bracketed =
  if i >= stop then stop
  else
    match s.[i] with
    | '"' -> item_end_from s (i + 1) stop (not quoted) bracketed
    | '<' when not quoted -> item_end_from s (i + 1) stop quoted true
    | '>' when not quoted -> item_end_from s (i + 1) stop quoted false
    | ',' when (not quoted) && not bracketed -> i
    | _ -> item_end_from s (i + 1) stop quoted bracketed

let item_end s start stop = item_end_from s start stop false false

let rec params s i stop =
  let e = until s i stop ';' in
  let rest = if e < stop then params s (e + 1) stop else [] in
  let a = skip_space s i e in
  let b = trim_end s a e in
  if a = b then rest
  else
    match index s a b '=' with
    | -1 -> (sub s a b, None) :: rest
    | eq -> (sub s a eq, Some (sub s (eq + 1) b)) :: rest

(* Each end takes 31 bits, so both fit one immediate [int]. *)
let span i j = (i lsl 31) lor j
let span_start p = p lsr 31
let span_stop p = p land 0x7FFF_FFFF
let sub_span s p = sub s (span_start p) (span_stop p)

(* The items as [params] reads them, searched instead of listed. *)
let rec param_value s i stop name =
  let e = until s i stop ';' in
  let a = skip_space s i e in
  let b = trim_end s a e in
  let eq = index s a b '=' in
  if equal s a (if eq < 0 then b else eq) name then if eq < 0 then -1 else span (eq + 1) b
  else if e < stop then param_value s (e + 1) stop name
  else -1

let rec line_end s i stop = if i < stop && s.[i] <> '\n' then line_end s (i + 1) stop else i
let content_end s start nl = if nl > start && s.[nl - 1] = '\r' then nl - 1 else nl
let folded s i stop = i < stop && (s.[i] = ' ' || s.[i] = '\t')

let rec decimal_from s i stop n =
  if i = stop then n
  else
    match s.[i] with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if n > (max_int - d) / 10 then -1 else decimal_from s (i + 1) stop ((n * 10) + d)
    | _ -> -1

let decimal s start stop = if start >= stop then -1 else decimal_from s start stop 0
