(** Bounded satisfiability for conjunctions of guard predicates.

    Decides the fragment the shipped specs live in exactly — single
    variable/field subjects under comparisons, equalities against
    constants, set membership, and boolean structure — by propositional
    enumeration over a canonical atom table plus per-subject candidate
    checking.  A let reads as its body.  Everything else
    (compound-subject comparisons, variable-to-variable equalities)
    becomes an uninterpreted atom.

    The over-approximation is one-sided: [Sat] may be spurious, [Unsat]
    is trustworthy. *)

type verdict =
  | Unsat
  | Sat of string  (** Human-readable witness, e.g. ["$code=Int 200"]. *)
  | Unknown of string  (** Formula exceeded the enumeration budget. *)

val satisfiable : ?domains:(Efsm.Ir.var * Efsm.Ir.domain) list -> Efsm.Ir.pred list -> verdict
(** Satisfiability of the conjunction of [preds].  [domains] restricts the
    values declared variables may take (besides [Unset], which is always
    possible). *)
