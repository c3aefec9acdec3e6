(** Alerts raised by the analysis engine. *)

type kind =
  | Invite_flood
  | Bye_dos
  | Cancel_dos
  | Media_spam
  | Rtp_flood
  | Call_hijack
  | Billing_fraud
  | Drdos
  | Registration_hijack
      (** A REGISTER crossing the enterprise boundary: someone outside is
          (re)binding a protected user's contact — our extension; the
          paper's threat model only hints at it via "misconfiguration". *)
  | Spec_deviation  (** Any other departure from the protocol state machines. *)
  | Resource_pressure
      (** The engine shed state or analysis to protect itself: a cap
          eviction, an ageing sweep, or a degraded-mode transition. *)
  | Engine_fault
      (** An exception escaped a state machine or analysis step and was
          contained; the offending call or detector was quarantined. *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}; used by the snapshot and journal codecs. *)

val all_kinds : kind list

val pp_kind : Format.formatter -> kind -> unit

val is_attack : kind -> bool
(** Whether this kind reports hostile traffic, as opposed to the engine's
    own health ([Engine_fault], [Resource_pressure]) or bare protocol
    deviations.  Drives the CLI's attacks-detected exit status. *)

type severity = Info | Warning | Critical

val severity_to_string : severity -> string

val severity_of_string : string -> severity option

type t = {
  kind : kind;
  severity : severity;
  at : Dsim.Time.t;
  subject : string;
      (** What the alert is about: a Call-ID, a destination address, or a
          stream key.  Used for de-duplication. *)
  detail : string;
}

val make : kind:kind -> ?severity:severity -> at:Dsim.Time.t -> subject:string -> string -> t

val dedup_key : t -> string

val pp : Format.formatter -> t -> unit
