(** Scripted attack scenarios against the Figure-7 testbed.

    Each function schedules an attack at [at] (simulation time) and returns
    immediately; run the scheduler to execute it.  Attacker knowledge that
    the paper grants the adversary (SDP contents, SSRC identifiers, dialog
    tags — "a third party knowing the SDP information ... could fabricate
    RTP packets") is obtained by inspecting the victim UAs, which stands in
    for on-path eavesdropping. *)

type t
(** An attacker with a host on the Internet side of the cloud. *)

val create : Voip.Testbed.t -> host:string -> t

(** {1 Signaling attacks (paper §3.1)} *)

val invite_flood :
  t -> target:Sip.Uri.t -> via_proxy:bool -> count:int -> interval:Dsim.Time.t ->
  at:Dsim.Time.t -> unit
(** [count] INVITEs with distinct Call-IDs to one destination.  [via_proxy]
    sends through network B's proxy (the normal path); otherwise straight to
    the phone. *)

val spoofed_bye_call : t -> caller:Voip.Ua.t -> callee:Voip.Ua.t -> at:Dsim.Time.t -> unit
(** Starts a call between the two UAs at [at], then (2 s after answer
    windows close) tears it down with a BYE forged from the attacker's host
    claiming the caller's identity.  The caller keeps streaming — the BYE
    DoS signature. *)

val cancel_dos_call : t -> caller:Voip.Ua.t -> callee:Voip.Ua.t -> at:Dsim.Time.t -> unit
(** Starts a call and CANCELs it from a third-party source while ringing. *)

val hijack_call : t -> caller:Voip.Ua.t -> callee:Voip.Ua.t -> at:Dsim.Time.t -> unit
(** Starts a call, then injects an in-dialog INVITE with foreign tags. *)

val drdos : t -> victim_host:string -> reflectors:int -> responses:int -> at:Dsim.Time.t -> unit
(** Unsolicited responses from many spoofed reflector sources to the
    victim. *)

val register_hijack : t -> victim:Voip.Ua.t -> at:Dsim.Time.t -> unit
(** REGISTERs the victim's address-of-record with the attacker's contact at
    network B's registrar, redirecting the victim's future inbound calls. *)

(** {1 Media attacks (paper §3.2)} *)

val media_spam_call : t -> caller:Voip.Ua.t -> callee:Voip.Ua.t -> at:Dsim.Time.t -> unit
(** Starts a call, then injects RTP with the caller's SSRC but jumped
    sequence numbers/timestamps toward the callee. *)

val rtp_flood :
  t -> target:Dsim.Addr.t -> rate_pps:int -> duration:Dsim.Time.t -> at:Dsim.Time.t -> unit
(** High-rate in-order RTP from the attacker's own SSRC. *)

val billing_fraud_call : t -> caller:Voip.Ua.t -> callee:Voip.Ua.t -> at:Dsim.Time.t -> unit
(** Marks the caller fraudulent, runs a short call; after its genuine BYE
    the caller keeps streaming. *)

(** {1 The named scenario list} *)

val names : string list
(** The eight attacks {!schedule} knows, in the order [detect] runs them:
    bye-dos, cancel-dos, hijack, media-spam, billing-fraud, invite-flood,
    rtp-flood, drdos. *)

val schedule : t -> on_unknown:(string -> unit) -> string list -> unit
(** One attack every 25 s from t = 5 s, cycling through the eight UA
    pairs (caller in network A, callee in network B): 25 INVITEs 40 ms
    apart for invite-flood, 2 s of 400 pps for rtp-flood, 60 responses
    from 20 reflectors for drdos.  [on_unknown] receives each name not in
    {!names}. *)
