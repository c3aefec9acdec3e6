(** SIP user agent (phone) model.

    Each UA owns a network node, speaks SIP through the transaction layer
    (so retransmission under loss is real) and streams RTP media during
    established calls.  The UA switches between UAC and UAS roles per call,
    as in the paper's §2.1 description.

    For the attack experiments a UA can be marked {e fraudulent}: it sends
    BYE to stop billing but keeps transmitting RTP — the toll-fraud
    behaviour of paper §3.1. *)

type t

type call_info = {
  call_id : string;
  role : [ `Caller | `Callee ];
  state : [ `Setup | `Active | `Ended ];
  local_media : Dsim.Addr.t;
  remote_media : Dsim.Addr.t option;
  ssrc : int32 option;  (** Our sender's SSRC once media started. *)
  next_seq : int option;
  next_ts : int32 option;
  peer_contact : Dsim.Addr.t option;
  from_tag : string option;
  to_tag : string option;
}

val create :
  Dsim.Network.t ->
  Dsim.Network.node ->
  name:string ->
  host:string ->
  domain:string ->
  proxy:Dsim.Addr.t ->
  rng:Dsim.Rng.t ->
  metrics:Metrics.t ->
  ?codec:Rtp.Codec.t ->
  ?max_concurrent:int ->
  ?vad:bool ->
  ?password:string ->
  unit ->
  t
(** Also installs the UA as the node's packet handler.  [password] (default
    ["pw-<name>"]) answers the registrar's digest challenge when the proxy
    enforces authentication. *)

val aor : t -> Sip.Uri.t
(** [sip:name\@domain]. *)

val addr : t -> Dsim.Addr.t

val register : t -> unit
(** Sends REGISTER to the configured proxy. *)

val call : t -> callee:Sip.Uri.t -> duration:Dsim.Time.t -> unit
(** Originates a call; the UA hangs up [duration] after establishment.
    Silently refused (and counted as failed) when at capacity. *)

val hangup_all : t -> unit

val reinvite_all : t -> unit
(** Test seam: renegotiates the media endpoint of every active call via
    an in-dialog re-INVITE (a fresh RTP port is allocated and advertised
    in new SDP), for the mid-call renegotiation tests. *)

val set_fraudulent : t -> bool -> unit
(** When true, BYE does not stop this UA's RTP sender. *)

val active_calls : t -> call_info list
(** Snapshot, including recently ended calls not yet reaped. *)
