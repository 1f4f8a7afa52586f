import random

import pytest
from hypothesis import given, settings, strategies as st

from dpbc.syntax import Action, NIL, Prefix, Rec, Sum, TAU, Var, free_vars, parse, substitute
from dpbc.semantics import (
    BudgetExceeded,
    build_lts,
    closure_lts,
    closure_terms,
    exposes,
    format_aut,
    step,
    union_lts,
    _can_reach_tau_cycle,
    _reach,
    _tau_reachable,
)

from genexpr import all_terms, random_expr, silently_exposes
from oracles import de_bruijn_key, reference_moves


def test_step_examples():
    assert step(parse("a.0")) == ((Action("a"), NIL),)
    assert set(step(parse("tau.X + a.0"))) == {
        (TAU, Var("X")),
        (Action("a"), NIL),
    }
    e = parse("rec X.(tau.X + a.0)")
    assert set(step(e)) == {(TAU, e), (Action("a"), NIL)}


def test_exposes_examples():
    assert exposes(Var("X")) == {"X"}
    assert exposes(parse("tau.X + a.0")) == frozenset()
    assert exposes(parse("rec Y.(X + a.Y)")) == {"X"}


def test_tau_exposes_examples():
    # x is exposed once silent steps are taken, by tau-prefixes or a loop
    assert silently_exposes("X", parse("tau.X + a.0"))
    assert not silently_exposes("X", parse("a.X"))
    assert silently_exposes("X", parse("rec Y.(tau.Y + tau.X)"))


def test_tau_reachable_yields_e_before_its_successors():
    # a caller that stops at e searches no further; the silent closure
    # behind e is larger than the budget, which only the full search reaches
    e = parse("X + tau.tau.tau.Y")
    assert {x for s in _tau_reachable(e, 10) for x in exposes(s)} == {"X", "Y"}
    assert next(_tau_reachable(e, 1)) is e
    with pytest.raises(BudgetExceeded):
        list(_tau_reachable(e, 1))


# a recursion nested in another whose body holds a recursion of the outer
# binder's name: substituted inner first, as `reference_moves` does, the
# derivative's inner `rec Y` is renamed, since the inner recursion's term
# still has Y free
_RENAMING = "rec Y. rec Z. Y + a.c.rec Y. Z"


def _root_moves_as_terms(e):
    """The moves of e's closure state, with the terms of their targets."""
    lts, (root,) = closure_lts((e,))
    moves = lts.succ(root)
    terms = closure_terms(lts, [t for _, t in moves])
    return {(act, terms[t]) for act, t in moves}


def test_moves_match_the_recursive_reference():
    # `step` puts the enclosing recursions in outer first, by one walk
    # with a stack of its own; the recursive reference puts them in inner
    # first, one recursion at a time, and differs at most in the names
    # of binders, on every term of at most 6 nodes and on random ones
    x, y, z = Var("X"), Var("Y"), Var("Z")
    rng = random.Random(34)
    terms = all_terms(6, (NIL, x, y, z)) + [random_expr(rng, 14) for _ in range(300)]
    renaming = parse(_RENAMING)
    for e in terms + [renaming]:
        assert ({(act, de_bruijn_key(d)) for act, d in step(e)}
                == {(act, de_bruijn_key(d)) for act, d in reference_moves(e)}), e
    # where the two differ by a binder's name, `step`'s derivative is the
    # term of the closure that the same move reaches
    assert set(step(renaming)) != reference_moves(renaming)
    assert set(step(renaming)) == _root_moves_as_terms(renaming)
    # and a recursion nested 2000 deep, past the interpreter's stack
    deep = parse("a.0")
    for i in reversed(range(2000)):
        deep = Rec(f"X{i}", deep)
    assert step(deep) == ((Action("a"), NIL),)


def test_build_lts_lists_one_state_per_alpha_class():
    # a derivative's recursions go in at once, so no state's inner
    # `rec Y` is renamed and no state is an alpha-variant of another
    lts = build_lts(parse(f"c.(a.tau.tau.({_RENAMING}) + rec Y. 0)"))
    assert lts.n_states == 7
    assert len({de_bruijn_key(s) for s in lts.states}) == 7


def test_build_lts_states_are_the_closure_terms():
    # the terms that `build_lts` numbers are exactly those of the closure
    # states that the root reaches, and their moves agree; the sample
    # holds 4 terms where putting recursions in inner first renames a
    # binder
    rng = random.Random(5)
    for _ in range(5000):
        e = random_expr(rng, rng.randint(3, 14))
        lts, (root,) = closure_lts((e,))
        reached = _reach((root,), lambda s: [t for _, t in lts.succ(s)])
        terms = closure_terms(lts, reached)
        assert set(build_lts(e).states) == {terms[s] for s in reached}, e
        assert set(step(e)) == _root_moves_as_terms(e), e


def test_build_lts_examples():
    l1 = build_lts(parse("a.0"))
    assert l1.n_states == 2 and len(l1.transitions) == 1

    l2 = build_lts(parse("rec X.(tau.X + a.0)"))
    assert l2.n_states == 2
    assert set(l2.transitions) == {(0, TAU, 0), (0, Action("a"), 1)}

    l3 = build_lts(parse("rec X. a.X"))
    assert l3.n_states == 1
    assert l3.transitions == ((0, Action("a"), 0),)


def test_divergent_examples():
    # the states that can silently reach a silent cycle
    for text, want in (("rec X.(tau.X + a.0)", {0}), ("tau.a.0", set()), ("a.b.0", set())):
        lts = build_lts(parse(text))
        states = range(lts.n_states)
        assert _can_reach_tau_cycle(lts, states, states) == want


def test_budget_overflow():
    deep = parse("a.0")
    for i in range(30):
        deep = Sum(Prefix(Action("a"), deep), Prefix(Action("b"), deep))
    with pytest.raises(BudgetExceeded):
        build_lts(deep, budget=5)


def test_substitution_interacts_with_transitions():
    rng = random.Random(11)
    for _ in range(150):
        h = random_expr(rng, rng.randint(1, 8))
        e = random_expr(rng, rng.randint(1, 5))
        x = rng.choice(["X", "Y"])
        inst = substitute(h, {x: e})
        # clause 3: moves of h lift through substitution
        for a, h2 in step(h):
            assert (a, substitute(h2, {x: e})) in step(inst)
        # clause 4: exposure of x turns e's moves into moves of the instance
        if x in exposes(h):
            for a, e2 in step(e):
                assert (a, e2) in step(inst)
        # clause 1: moves of the instance come from h or from e via exposure
        for a, f in step(inst):
            from_h = any(
                a2 == a and substitute(h2, {x: e}) == f for a2, h2 in step(h))
            from_e = x in exposes(h) and (a, f) in step(e)
            assert from_h or from_e
        # clause 2: exposure of the instance comes from h or through x
        for y in exposes(inst):
            assert y in exposes(h) or (x in exposes(h) and y in exposes(e))


def test_step_respects_sum():
    rng = random.Random(12)
    for _ in range(100):
        e = random_expr(rng, rng.randint(1, 6))
        f = random_expr(rng, rng.randint(1, 6))
        assert set(step(Sum(e, f))) == set(step(e)) | set(step(f))


def test_step_and_exposes_walk_wide_sums():
    # a sum's moves are gathered with a stack, at any width and either
    # association, and a sub-sum whose moves are known is taken whole;
    # exposure is set when each node is built
    leaves = [Prefix(Action("abc"[i % 3]), NIL) for i in range(5000)] + [Var("X")]
    left = leaves[0]
    for leaf in leaves[1:]:
        left = Sum(left, leaf)
    right = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        right = Sum(leaf, right)
    half = left
    for _ in range(2500):
        half = half.left
    moves = {(Action(x), NIL) for x in "abc"}
    assert set(step(half)) == moves and exposes(half) == frozenset()
    for e in (left, right, Sum(left, right)):
        assert set(step(e)) == moves
        assert exposes(e) == {"X"}


def test_build_lts_deterministic():
    rng = random.Random(13)
    for _ in range(30):
        e = random_expr(rng, rng.randint(1, 10))
        l1 = build_lts(e)
        l2 = build_lts(e)
        assert l1.states == l2.states
        assert l1.transitions == l2.transitions


# random terms of genexpr.random_expr, most of them open, by seed and size
open_terms = st.builds(lambda seed, size: random_expr(random.Random(seed), size),
                       st.integers(0, 2**32 - 1), st.integers(1, 10))


@settings(max_examples=300, deadline=None)
@given(open_terms)
def test_only_free_variables_are_exposed(e):
    # an exposed variable is unguarded, and an unguarded one free: the
    # rule for a recursion counts on both
    assert exposes(e) <= e._unguarded <= free_vars(e)


@settings(max_examples=200, deadline=None)
@given(open_terms)
def test_build_lts_exposure_is_each_states_exposure(e):
    lts = build_lts(e)
    assert lts.exposure == tuple(exposes(s) for s in lts.states)


def test_union_lts():
    a = build_lts(parse("a.0"))
    b = build_lts(parse("b.0"))
    joint, ra, rb = union_lts(a, b)
    assert joint.n_states == 4
    assert ra == 0 and rb == 2


def test_aut_format():
    lts = build_lts(parse("rec X.(tau.X + a.Y)"))
    text = format_aut(lts)
    lines = text.strip().splitlines()
    assert lines[0] == "des (0, 2, 2)"
    assert '(0,"tau",0)' in lines
    assert '(0,"a",1)' in lines
    assert 'exp (1, "Y")' in lines
