(** Flag-constraint verification — the paper's "Constraints Verification"
    component (§4.1), with the DPLL solver standing in for Z3.

    Dependency and conflict rules are compiled to CNF once per profile;
    candidate flag vectors produced by the genetic algorithm are checked
    by the solver, and invalid ones are repaired (the paper eliminates
    them; repair keeps the population size stable and is strictly more
    search-efficient). *)

val valid : Flags.profile -> bool array -> bool
(** Check a complete vector against the rules via
    {!Sat.Dpll.solve_with_assumptions} with every flag bit assumed. *)

val violations : Flags.profile -> bool array -> Flags.constraint_decl list
(** The rules the vector breaks (empty iff {!valid}). *)

val repair : Flags.profile -> Util.Rng.t -> bool array -> bool array
(** Return a valid vector near the input: broken [Requires (a, b)] is
    fixed by either enabling [b] or disabling [a] (coin flip); broken
    [Conflicts] by disabling one side.  Iterates to a fixpoint; the
    result always satisfies {!valid}. *)
