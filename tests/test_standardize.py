import random

import pytest

from dpbc.syntax import (
    Action,
    NIL,
    Prefix,
    Sum,
    TAU,
    Var,
    canon_leaves,
    compose_sum,
    flatten_sum,
    is_fully_exposed,
    is_guarded_expr,
    is_guarded_in,
    is_standard_sum,
    loop,
    parse,
    pretty,
)
from dpbc.proof import SideCondition, check
from dpbc.standardize import (
    NotGuarded,
    derive_D,
    expose_to_summand,
    fully_expose,
    standardize,
)
from dpbc.equiv import rooted_check

from genexpr import random_expr, random_guarded_expr, silently_exposes


def test_d1_instance():
    d = derive_D(1, (parse("a.0"),))
    assert check(d) is None
    lp = loop(parse("a.0"))
    assert d.conclusion == (lp, Sum(Prefix(TAU, lp), parse("a.0")))


def test_d6_instance():
    d = derive_D(6, (parse("a.0"),))
    assert check(d) is None
    lp = loop(parse("a.0"))
    assert d.conclusion == (loop(lp), lp)


def test_all_derived_rules_random_operands():
    rng = random.Random(41)
    for _ in range(15):
        e = random_expr(rng, rng.randint(1, 5))
        f = random_expr(rng, rng.randint(1, 4))
        g = random_expr(rng, rng.randint(1, 3))
        for k, ops in [
            (1, (e,)),
            (2, (e,)),
            (3, ("X", e, f)),
            (4, ("X", e, f, g)),
            (5, (e, f)),
            (6, (e,)),
        ]:
            d = derive_D(k, ops)
            assert check(d) is None, (k, check(d))
            assert rooted_check(*d.conclusion).equal, (k, pretty(d.conclusion[0]))


def test_fully_expose_paper_example():
    e = parse("tau.rec Y.(tau.X + a.Y)")
    out, d = fully_expose("X", e)
    assert out == parse("tau.(tau.X + a.rec Y.(tau.X + a.Y))")
    assert check(d) is None
    assert d.conclusion == (e, out)


def test_fully_expose_vacuous():
    e = parse("a.0 + b.0")
    out, d = fully_expose("X", e)
    assert out == e
    assert len(d) == 1


def test_fully_expose_loop():
    e = loop(parse("tau.X + b.0"))
    out, d = fully_expose("X", e)
    assert check(d) is None
    assert is_fully_exposed("X", out)
    assert rooted_check(e, out).equal


def test_fully_expose_contract_random():
    rng = random.Random(42)
    for _ in range(60):
        e = random_guarded_expr(rng, rng.randint(1, 10))
        out, d = fully_expose("X", e)
        assert check(d) is None
        assert is_fully_exposed("X", out)
        assert is_guarded_expr(out)
        assert rooted_check(e, out).equal


def test_fully_expose_requires_guarded():
    with pytest.raises(NotGuarded):
        fully_expose("X", parse("rec Y. tau.Y"))


def test_expose_variable_case():
    e1, d = expose_to_summand("X", Var("X"), NIL)
    assert e1 == NIL
    assert check(d) is None
    assert d.conclusion == (
        parse("rec X.(tau.X + 0)"),
        parse("rec X.(tau.(X + 0) + 0)"),
    )


def test_expose_prefix_case():
    e1, d = expose_to_summand("X", parse("tau.X"), parse("a.0"))
    assert check(d) is None
    assert is_guarded_in("X", e1)
    assert rooted_check(*d.conclusion).equal


def test_expose_requires_exposure():
    with pytest.raises(SideCondition):
        expose_to_summand("X", parse("a.X"), NIL)


def test_expose_random_contract():
    rng = random.Random(43)
    done = 0
    while done < 40:
        e = random_guarded_expr(rng, rng.randint(1, 8))
        if not silently_exposes("X", e) or not is_fully_exposed("X", e):
            continue
        f = random_expr(rng, rng.randint(1, 4))
        e1, d = expose_to_summand("X", e, f)
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
