"""Regression tests for identifier collisions with the reserved
fresh-name namespaces and for shadowed binders."""

import random

import pytest

from dpbc.syntax import (
    NIL,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    is_loop,
    loop,
    parse,
    pretty,
)
from dpbc.proof import Builder, check, format_derivation, parse_derivation
from dpbc.standardize import standardize
from dpbc.route import SesSystem, _extract_into, _promote, _solve_any
from dpbc.ses import prove_congruent
from dpbc.equiv import RootedCheck, rooted_check

import genexpr
from genexpr import derive, random_expr, random_guarded_expr

HOSTILE = ["_g0", "_g1", "_X0", "_q0", "X", "Z'"]


def test_user_loop_in_reserved_namespace():
    e = parse("rec _g0.(tau._g0 + a._g1)")
    assert is_loop(e)
    assert loop(parse("a._g1")) == e
    unfolded = Sum(Prefix(TAU, e), parse("a._g1"))
    d = prove_congruent(e, unfolded)
    assert not isinstance(d, RootedCheck)
    assert check(d) is None


def test_alpha_variant_loops_are_provably_equal():
    e = parse("rec _g0.(tau._g0 + a._g1)")
    f = Rec("Y", Sum(Prefix(TAU, Var("Y")), parse("a._g1")))
    d = prove_congruent(e, f)
    assert not isinstance(d, RootedCheck)
    assert check(d) is None


def test_extraction_avoids_user_reserved_names():
    e = parse("a._X0 + b._q0")
    order, rhs, _, _ = _extract_into(Builder(), (e,))
    assert "_X0" not in order
    assert "_q0" not in order
    sols, _ = _solve_any(Builder(), order, rhs)
    assert rooted_check(sols[order[0]], e).equal


def test_shadowed_binders():
    e = parse("rec X. a.rec X. b.X")
    _, d = standardize(e)
    assert check(d) is None
    assert rooted_check(e, d.conclusion[1]).equal


def test_promote_with_quotient_namespace_variable():
    d = derive(_promote, parse("a._q0"), parse("a._q0 + a._q0"))
    assert check(d) is None


def test_randomized_hostile_names():
    rng = random.Random(31337)
    for _ in range(40):
        e = random_expr(rng, rng.randint(1, 12), HOSTILE)
        _, d = standardize(e)
        assert check(d) is None, pretty(e)
        assert rooted_check(e, d.conclusion[1]).equal, pretty(e)
    for _ in range(30):
        e = random_guarded_expr(rng, rng.randint(1, 10), HOSTILE)
        b = Builder()
        order, rhs, _, ders = _extract_into(b, (e,))
        SesSystem.from_equations(order, rhs)
        for idx in ders.values():
            assert check(b.finalize(idx)) is None, pretty(e)
        sols, _ = _solve_any(Builder(), order, rhs)
        assert rooted_check(sols[order[0]], e).equal, pretty(e)
    for _ in range(30):
        e = random_expr(rng, rng.randint(1, 10), HOSTILE)
        f = Sum(e, e) if rng.random() < 0.5 else random_expr(rng, rng.randint(1, 10), HOSTILE)
        result = prove_congruent(e, f)
        if not isinstance(result, RootedCheck):
            assert check(result) is None, (pretty(e), pretty(f))


@pytest.mark.parametrize("left, right", [
    ("tau* c._g0", "tau* c._g0 + 0"),
    ("a.tau* c._g0", "a.tau.tau* c._g0"),
])
def test_silent_padding_renames_a_capturing_binder(left, right):
    # an equation's loop binder `_g0` would capture the free `_g0` of the
    # solution padded in under it, so the padding renames the binder
    e, f = parse(left), parse(right)
    d = parse_derivation(format_derivation(prove_congruent(e, f)))
    assert check(d) is None
    assert d.conclusion == (e, f)


@pytest.mark.parametrize("text", [
    "rec W. rec X. c.((rec W. b.X) + W)",
    "rec W. rec X. c.(rec W. tau* X) + W",
    "rec Y. rec X. c.a.((rec Y. X) + Y)",
    "rec Y. rec W. b.b.a.((rec Y. W) + (Y + 0))",
])
def test_shadowed_binder_renamed_apart_while_absorbing(text):
    # step substitutes a recursion into its body's derivatives, renaming
    # the shadowed inner binder; absorbing a summand must reach the same
    # derivative, not an alpha-variant of it
    e = parse(text)
    assert rooted_check(e, Sum(e, NIL)).equal
    d = parse_derivation(format_derivation(prove_congruent(e, Sum(e, NIL))))
    assert check(d) is None
    assert d.conclusion == (e, Sum(e, NIL))
