(** Digest-style SIP authentication (RFC 3261 §22 shape).

    The paper's threat model §3.1 observes that "a great deal of the
    discussion of possible attacks centers around an assumption of lack of
    proper authentication"; this module supplies the challenge/response
    mechanism so experiments can contrast {e prevention} (auth on) with
    {e detection} (vIDS).  The digest function is a deterministic
    keyed hash standing in for MD5 — the protocol shape (401 challenge,
    nonce, response over method+uri+password) is what matters to the
    simulation, not cryptographic strength. *)

type challenge = { realm : string; nonce : string }

val challenge_header : challenge -> string
(** The [WWW-Authenticate] value: [Digest realm="...", nonce="..."]. *)

val parse_challenge : string -> (challenge, string) result

val authorization_header :
  username:string -> password:string -> challenge:challenge -> meth:Msg_method.t ->
  uri:Uri.t -> string
(** The [Authorization] value carrying the response. *)

val verify :
  password_of:(string -> string option) -> realm:string -> nonce_valid:(string -> bool) ->
  Msg.t -> bool
(** Checks a request's Authorization header against the credential store.
    False when the header is absent, malformed, for another realm, carries
    a stale nonce, or the response does not match. *)

val fresh_nonce : Ident.t -> string
