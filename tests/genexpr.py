"""Random generators, the benchmark's input generator, and one way to
run a prover routine, shared by the test modules."""

import importlib.util
import os
import random

from dpbc.syntax import (
    Action,
    Expr,
    NIL,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    is_guarded_expr,
    loop,
)
from dpbc.semantics import DEFAULT_BUDGET, Lts, _tau_reachable, exposes
from dpbc.proof import Builder, Derivation

ACTIONS = [TAU, Action("a"), Action("b"), Action("c")]
VARS = ["X", "Y", "Z", "W"]


def benchmark_gen():
    """perfbench/gen.py, which builds the benchmark's inputs from a seed."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_expr(rng: random.Random, size: int, free_pool=VARS) -> Expr:
    """A random expression with at most `size` internal nodes."""
    if size <= 1:
        if free_pool and rng.random() < 0.4:
            return Var(rng.choice(free_pool))
        return NIL
    roll = rng.random()
    if roll < 0.4:
        return Prefix(rng.choice(ACTIONS), random_expr(rng, size - 1, free_pool))
    if roll < 0.75:
        ls = rng.randint(1, size - 1)
        return Sum(
            random_expr(rng, ls, free_pool),
            random_expr(rng, size - ls, free_pool),
        )
    binder = rng.choice(VARS)
    body = random_expr(rng, size - 1, sorted(set(free_pool) | {binder}))
    return Rec(binder, body)


def _repair(e: Expr) -> Expr:
    """Rebuild unguarded recursions as loops, bottom-up."""
    if isinstance(e, Prefix):
        return Prefix(e.act, _repair(e.body))
    if isinstance(e, Sum):
        return Sum(_repair(e.left), _repair(e.right))
    if isinstance(e, Rec):
        body = _repair(e.body)
        cand = Rec(e.binder, body)
        if is_guarded_expr(cand):
            return cand
        return loop(body)
    return e


def random_guarded_expr(rng: random.Random, size: int, free_pool=VARS) -> Expr:
    e = _repair(random_expr(rng, size, free_pool))
    assert is_guarded_expr(e)
    return e


def all_terms(max_nodes: int, leaves) -> list:
    """Every term of at most `max_nodes` nodes over the given leaves,
    tau., a., +, rec X. and rec Y., shadowing binders included."""
    by_size = [[], list(leaves)]
    for n in range(2, max_nodes + 1):
        terms = [wrap(e) for e in by_size[n - 1]
                 for wrap in (lambda e: Prefix(TAU, e), lambda e: Prefix(Action("a"), e),
                              lambda e: Rec("X", e), lambda e: Rec("Y", e))]
        terms += [Sum(l, r) for k in range(1, n - 1)
                  for l in by_size[k] for r in by_size[n - 1 - k]]
        by_size.append(terms)
    return [e for terms in by_size for e in terms]


def silently_exposes(x: str, e: Expr) -> bool:
    """Reference for `not is_guarded_in(x, e)`: some expression that e
    reaches by silent steps exposes x."""
    return any(x in exposes(s) for s in _tau_reachable(e, DEFAULT_BUDGET))


def random_lts(rng: random.Random, max_states: int = 6) -> Lts:
    n = rng.randint(1, max_states)
    trans = set()
    for _ in range(rng.randint(0, 2 * n)):
        trans.add((rng.randrange(n), rng.choice(ACTIONS), rng.randrange(n)))
    exposure = tuple(
        frozenset(rng.sample(["X", "Y"], rng.randint(0, 2))) for _ in range(n)
    )
    return Lts(
        tuple(range(n)),
        tuple(sorted(trans, key=lambda t: (t[0], t[1].key, t[2]))),
        exposure,
        0,
    )


def random_ses_equations(rng: random.Random, max_formals: int = 4):
    """Formals and right-hand sides of a random standard system,
    guarded by directing silent moves up the formal order."""
    n = rng.randint(1, max_formals)
    formals = [f"_S{i}" for i in range(n)]
    rhs = {}
    for i, x in enumerate(formals):
        leaves = []
        for _ in range(rng.randint(0, 3)):
            act = rng.choice(ACTIONS)
            if act.is_tau:
                if i + 1 >= n:
                    continue
                tgt = formals[rng.randrange(i + 1, n)]
            else:
                tgt = formals[rng.randrange(n)]
            leaves.append(Prefix(act, Var(tgt)))
        for _ in range(rng.randint(0, 1)):
            leaves.append(Var(rng.choice(["V", "W"])))
        body = NIL
        for leaf in leaves:
            body = leaf if body == NIL else Sum(body, leaf)
        if rng.random() < 0.4:
            rhs[x] = loop(body)
        else:
            rhs[x] = body
    return formals, rhs


def subterm_paths(e: Expr, path=()):
    """The path to every subterm of e, e itself first: each step names
    the child taken ("body", "left" or "right")."""
    yield path
    if isinstance(e, (Prefix, Rec)):
        yield from subterm_paths(e.body, path + ("body",))
    elif isinstance(e, Sum):
        yield from subterm_paths(e.left, path + ("left",))
        yield from subterm_paths(e.right, path + ("right",))


def replace_at(e: Expr, path, new: Expr) -> Expr:
    """e with the subterm at `path` replaced by `new`; the binders above
    it capture the free names of `new`."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(e, Prefix):
        return Prefix(e.act, replace_at(e.body, rest, new))
    if isinstance(e, Rec):
        return Rec(e.binder, replace_at(e.body, rest, new))
    if head == "left":
        return Sum(replace_at(e.left, rest, new), e.right)
    return Sum(e.left, replace_at(e.right, rest, new))


def derive(routine, *args) -> Derivation:
    """The derivation of the step that `routine(b, *args)` returns, for a
    prover routine run on a fresh Builder `b`."""
    b = Builder()
    return b.finalize(routine(b, *args))
