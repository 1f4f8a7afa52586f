"""Certifying equivalence prover for finite-state process expressions.

Decides strong, branching and divergence-preserving branching
bisimilarity plus rooted congruence, and emits machine-checkable
equational proof certificates for congruent pairs.
"""

from .syntax import (
    Action,
    Expr,
    Nil,
    Var,
    Prefix,
    Sum,
    Rec,
    NIL,
    TAU,
    parse,
    pretty,
    free_vars,
    substitute,
    loop,
    is_loop,
    loop_body,
    is_guarded_in,
    is_guarded_expr,
    is_fully_exposed,
    as_standard_sum,
    SumView,
)
from .semantics import (
    BudgetExceeded,
    Lts,
    build_lts,
    divergent,
    exposes,
    format_aut,
    step,
)
from .equiv import (
    Partition,
    PairRelation,
    RootedCheck,
    bisimilarity,
    brute_oracle,
    equivalent,
    rooted_check,
)
from .proof import (
    Derivation,
    CheckFailure,
    check,
    derive_D0,
    derive_T1,
    derive_summand_absorption,
    format_derivation,
    instantiate_axiom,
    parse_derivation,
)
from .standardize import derive_D, expose_to_summand, fully_expose, standardize
from .ses import (
    EqSystem,
    SesSystem,
    NotEquivalent,
    extract_ses,
    promote,
    prove_congruent,
    quotient,
    solve_system,
    tau_transform,
)

__all__ = [
    "Action", "Expr", "Nil", "Var", "Prefix", "Sum", "Rec", "NIL", "TAU",
    "parse", "pretty", "free_vars", "substitute", "loop", "is_loop",
    "loop_body", "is_guarded_in", "is_guarded_expr", "is_fully_exposed",
    "as_standard_sum", "SumView",
    "BudgetExceeded", "Lts", "build_lts", "divergent", "exposes",
    "format_aut", "step",
    "Partition", "PairRelation", "RootedCheck", "bisimilarity",
    "brute_oracle", "equivalent", "rooted_check",
    "Derivation", "CheckFailure", "check", "derive_D0", "derive_T1",
    "derive_summand_absorption", "format_derivation", "instantiate_axiom",
    "parse_derivation",
    "derive_D", "expose_to_summand", "fully_expose", "standardize",
    "EqSystem", "SesSystem", "NotEquivalent", "extract_ses", "promote",
    "prove_congruent", "quotient", "solve_system", "tau_transform",
]
