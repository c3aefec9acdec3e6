(** Simplified ITU-T G.107 E-model: voice quality from delay and loss.

    Computes the transmission rating R and maps it to a mean opinion score
    (MOS).  Only the terms that the vIDS experiments move are modeled: the
    one-way-delay impairment Id and the equipment/loss impairment Ie for
    G.729.  Good enough to quantify the paper's claim that the IDS's 1.5 ms
    of added media delay "will not be perceived by VoIP service
    subscribers". *)

val mos : one_way_delay:float -> loss_fraction:float -> float
(** [one_way_delay] in seconds (mouth-to-ear), [loss_fraction] in [0,1].
    Base R for G.729 is ≈ 82.2 (R0 94.2 − Ie 11 − Is 1); delay starts to
    hurt beyond ≈ 177 ms per the E-model's Id curve.  R maps to MOS by
    ITU-T G.107 Annex B, clamped to [1.0, 4.5]. *)

val verdict : float -> string
(** Conventional MOS bands: ≥4.0 "good", ≥3.6 "fair", ≥3.1 "poor",
    otherwise "bad". *)
