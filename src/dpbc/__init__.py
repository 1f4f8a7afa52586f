"""Certifying equivalence prover for finite-state process expressions.

Decides strong, branching and divergence-preserving branching
bisimilarity plus rooted congruence, and emits machine-checkable
equational proof certificates for congruent pairs.

The prover has two ways in: `prove_congruent` proves two rooted-congruent
expressions equal, and `standardize` proves an expression equal to its
standard sum.  The steps of the completeness proof (standard equation
systems, the quotient, promotion, the derived rules D0-D6) are internal
routines of `ses`, `route`, `standardize` and `proof` that build into
one `proof.Builder`; `check` replays what they build.

The package loads its modules lazily (PEP 562): `import dpbc` loads
none of them, and each name below loads its own module on first use,
so a command that only checks a certificate never loads the prover.
Inside the prover, `ses` loads `route`, and with it `standardize`, only
when a pair needs the root route.
"""

import importlib
import sys
import types

# module -> the names the package exports from it
_EXPORTS = {
    "syntax": (
        "Action", "Expr", "Nil", "Var", "Prefix", "Sum", "Rec", "NIL", "TAU",
        "parse", "pretty", "free_vars", "substitute", "loop", "is_loop",
        "loop_body", "is_guarded_in", "is_guarded_expr", "is_standard_sum",
    ),
    "semantics": (
        "BudgetExceeded", "Lts", "build_lts", "exposes", "format_aut", "step",
    ),
    "equiv": ("Partition", "RootedCheck", "bisimilarity", "equivalent", "rooted_check"),
    "kernel": (
        "Derivation", "CheckFailure", "check", "format_derivation",
        "instantiate_axiom", "parse_derivation",
    ),
    "proof": (),
    "standardize": ("standardize",),
    "ses": ("prove_congruent",),
    "route": ("SesSystem",),
}
_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is not None:
        value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(types.ModuleType):
    """Loading a submodule binds its name on the package, and `standardize`
    names both a submodule and an exported function: an exported name
    keeps its export."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
