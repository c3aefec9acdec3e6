type t = (string, Dsim.Addr.t) Hashtbl.t

let create () = Hashtbl.create 32
let bind t ~aor ~contact = Hashtbl.replace t aor contact
let unbind t ~aor = Hashtbl.remove t aor
let lookup t ~aor = Hashtbl.find_opt t aor

let aor_of_uri (uri : Sip.Uri.t) =
  Option.value uri.Sip.Uri.user ~default:"" ^ "@" ^ uri.Sip.Uri.host
