import random
import sys

import pytest

from dpbc.syntax import (
    Action,
    NIL,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    canon_leaves,
    compose_sum,
    flatten_sum,
    is_guarded_expr,
    is_guarded_in,
    is_standard_sum,
    loop,
    parse,
    pretty,
)
from dpbc.kernel import AxiomStep
from dpbc.proof import (
    Builder, SideCondition, _d1, _d2, check, format_derivation, parse_derivation, prove_canon)
from dpbc.standardize import (
    _d3,
    _d4,
    _d5,
    _d6,
    _expose,
    _standardize,
    is_loop_of_loop,
    standardize,
)
from dpbc.equiv import rooted_check

from genexpr import derive, random_expr, random_guarded_expr, silently_exposes


def test_d1_instance():
    lp = loop(parse("a.0"))
    d = derive(_d1, lp)
    assert check(d) is None
    assert d.conclusion == (lp, Sum(Prefix(TAU, lp), parse("a.0")))


def test_d6_instance():
    lp = loop(parse("a.0"))
    d = derive(_d6, loop(lp))
    assert check(d) is None
    assert d.conclusion == (loop(lp), lp)


@pytest.mark.parametrize("text", ["0", "a._g0", "a.0 + tau._g1", "tau* b.X"])
def test_d6_is_r0_r7_r1(text):
    # both loops of loop(loop E) take the lowest name not free in E, so
    # their binders clash and R0 renames the outer one before R7 and R1
    e = parse(text)
    d = parse_derivation(format_derivation(derive(_d6, loop(loop(e)))))
    assert check(d) is None
    assert d.conclusion == (loop(loop(e)), loop(e))
    axioms = [st.just.axiom for st in d.steps if isinstance(st.just, AxiomStep)]
    assert axioms == ["R0", "R7", "R1"] and len(d.steps) == 5
    # outer binder distinct from the inner one: R7 and R1 alone
    lp = Rec("Z", Sum(Prefix(TAU, Var("Z")), loop(e)))
    assert is_loop_of_loop(lp)
    d = derive(_d6, lp)
    assert check(d) is None and d.conclusion == (lp, loop(e)) and len(d.steps) == 3


def test_all_derived_rules_random_operands():
    rng = random.Random(41)
    for _ in range(15):
        e = random_expr(rng, rng.randint(1, 5))
        f = random_expr(rng, rng.randint(1, 4))
        g = random_expr(rng, rng.randint(1, 3))
        for rule, ops in [
            (_d1, (loop(e),)),
            (_d2, (loop(e),)),
            (_d3, ("X", e, f)),
            (_d4, ("X", e, f, g)),
            (_d5, (e, f)),
            (_d6, (loop(loop(e)),)),
        ]:
            d = derive(rule, *ops)
            assert check(d) is None, (rule.__name__, check(d))
            assert rooted_check(*d.conclusion).equal, (rule.__name__, pretty(d.conclusion[0]))


def test_expose_variable_case():
    b = Builder()
    e1, idx = _expose(b, "X", Var("X"), NIL)
    d = b.finalize(idx)
    assert e1 == NIL
    assert check(d) is None
    assert d.conclusion == (
        parse("rec X.(tau.X + 0)"),
        parse("rec X.(tau.(X + 0) + 0)"),
    )


def test_expose_prefix_case():
    b = Builder()
    e1, idx = _expose(b, "X", parse("tau.X"), parse("a.0"))
    d = b.finalize(idx)
    assert check(d) is None
    assert is_guarded_in("X", e1)
    assert rooted_check(*d.conclusion).equal


def test_expose_through_a_recursion_that_is_not_a_loop():
    # the paper's example: the recursion is unfolded in place, and its
    # copies land under the visible prefix a
    e = parse("tau.rec Y.(tau.X + a.Y)")
    b = Builder()
    e1, idx = _expose(b, "X", e, NIL)
    d = b.finalize(idx)
    assert check(d) is None
    assert is_guarded_in("X", e1)
    assert d.conclusion[0] == parse("rec X.(tau.tau.(rec Y.(tau.X + a.Y)) + 0)")
    assert rooted_check(*d.conclusion).equal


def test_expose_requires_exposure():
    with pytest.raises(SideCondition):
        _expose(Builder(), "X", parse("a.X"), NIL)


def test_expose_random_contract():
    rng = random.Random(43)
    done = 0
    while done < 40:
        e = random_guarded_expr(rng, rng.randint(1, 8))
        if not silently_exposes("X", e):
            continue
        f = random_expr(rng, rng.randint(1, 4))
        b = Builder()
        e1, idx = _expose(b, "X", e, f)
        d = b.finalize(idx)
        assert check(d) is None
        assert is_guarded_in("X", e1)
        assert rooted_check(*d.conclusion).equal
        done += 1


def test_standardize_already_standard():
    out, d = standardize(parse("a.0"))
    assert len(d) == 1
    assert out == parse("a.0")
    out, d = standardize(Var("X"))
    assert out == Var("X")


def test_standardize_divergent_loop():
    e = parse("rec X.(tau.X + a.0)")
    se, d = standardize(e)
    assert check(d) is None
    assert d.conclusion == (e, se)
    assert is_standard_sum(se)
    assert rooted_check(e, se).equal
    # a loop built over exposed occurrences of the binder keeps no 0s
    e = parse("b.rec Z. tau.(Z + Z)")
    _, d = standardize(e)
    assert check(d) is None
    assert d.conclusion == (e, parse("b.tau.tau* 0"))


def test_standardize_unfolds_guarded_loops_without_d3(monkeypatch):
    # a loop whose canonical body starts with its silent self-step is
    # guarded: it is unfolded as it stands, not rebuilt by D3
    def no_d3(*args, **kwargs):
        raise AssertionError("D3 ran on a guarded loop")

    # `dpbc.standardize` names the function; the module is in sys.modules
    monkeypatch.setattr(sys.modules["dpbc.standardize"], "_d3", no_d3)
    for text in ["tau* a.0", "tau* tau* a.0", "a.tau* b.0 + tau* c.0",
                 "rec X.(tau.X + a.0)"]:
        e = parse(text)
        out, d = standardize(e)
        assert check(d) is None, text
        assert d.conclusion == (e, out)
    assert out == parse("tau.(rec X. tau.X + a.0) + a.0")


def test_standardize_random_contract():
    rng = random.Random(44)
    for _ in range(80):
        e = random_expr(rng, rng.randint(1, 20))
        out, d = standardize(e)
        assert check(d) is None
        assert d.conclusion == (e, out)
        # the sum is canonical: `dpbc std` prints it as the certificate's
        # right-hand side
        assert out == compose_sum(canon_leaves(flatten_sum(out)))
        assert is_standard_sum(out)
        for leaf in flatten_sum(out):
            assert not isinstance(leaf, Prefix) or is_guarded_expr(leaf.body)
        assert rooted_check(e, out).equal


def test_standardize_idempotent_on_standard_sums():
    rng = random.Random(45)
    for _ in range(40):
        e = random_expr(rng, rng.randint(1, 12))
        _, d = standardize(e)
        se = d.conclusion[1]
        _, d2 = standardize(se)
        assert d2.conclusion[1] == se


def _by_halves(b, e):
    """Standardize a sum by recursing into both halves: the order of
    steps that the stack of `_standardize` keeps."""
    if not isinstance(e, Sum):
        return _standardize(b, e)
    sl, dl = _by_halves(b, e.left)
    sr, dr = _by_halves(b, e.right)
    out, d3 = prove_canon(b, Sum(sl, sr))
    return out, b.trans(b.sum_cong(dl, dr), d3)


def _right_nested(summands):
    e = summands[-1]
    for s in reversed(summands[:-1]):
        e = Sum(s, e)
    return e


def test_standardize_walks_a_wide_sum_with_a_loop():
    # random sums of random summands, nested to the left or to the right,
    # get the steps, in the order, that the recursion over both halves emits
    rng = random.Random(46)
    for _ in range(40):
        summands = [random_expr(rng, rng.randint(1, 6)) for _ in range(rng.randint(2, 8))]
        for e in (compose_sum(summands), _right_nested(summands)):
            b1, b2 = Builder(), Builder()
            (out1, i1), (out2, i2) = _standardize(b1, e), _by_halves(b2, e)
            assert out1 == out2 and b1.finalize(i1) == b2.finalize(i2), pretty(e)
    # 3000 summands, either way, at the interpreter's default recursion limit
    summands = [parse(f"{'abc'[i % 3]}.0") for i in range(3000)]
    for wide in (compose_sum(summands), _right_nested(summands)):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            out, d = standardize(wide)
        finally:
            sys.setrecursionlimit(limit)
        assert out == parse("a.0 + b.0 + c.0") and d.conclusion == (wide, out)
        assert check(d) is None
