"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random

from dpbc.syntax import (
    Action,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    is_standard_sum,
    loop,
    parse,
)
from dpbc.semantics import build_lts, _can_reach_tau_cycle
from dpbc.equiv import (
    RootedCheck,
    bisimilarity,
    brute_oracle,
    equivalent,
    rooted_check,
)
from dpbc.proof import Builder, check, _d6, _t1
from dpbc.standardize import _d0, _d1, _d2, _d3, _d4, _d5, standardize
from dpbc.route import SesSystem, _extract_into, _solve_any
from dpbc.ses import prove_congruent

from genexpr import derive, random_expr, random_guarded_expr, random_lts
from oracles import PairRelation, functional_B, functional_Bd, functional_Bp, functional_S


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_paper_examples():
    loop_expr = parse("rec X.(tau.X + a.0)")
    silent = parse("tau.a.0")
    ok = equivalent(loop_expr, silent, "branching")
    ok &= not equivalent(loop_expr, silent, "dpbb")
    ok &= equivalent(parse("a.0"), parse("tau.a.0"), "dpbb")
    ok &= not rooted_check(parse("a.0"), parse("tau.a.0")).equal
    ok &= not equivalent(parse("a.0 + b.0"), parse("tau.a.0 + b.0"), "dpbb")
    rng = random.Random(101)
    for _ in range(20):
        e = random_expr(rng, rng.randint(1, 8))
        f = random_expr(rng, rng.randint(1, 8))
        ok &= equivalent(Sum(Prefix(TAU, Sum(e, f)), f), Sum(e, f), "dpbb")
    _report("criterion 1: motivating examples and the branching axiom", ok)


def test_criterion_2_oracle_equivalence():
    rng = random.Random(102)
    ok = True
    for _ in range(500):
        lts = random_lts(rng, 6)
        for kind in ("strong", "branching", "dpbb"):
            if bisimilarity(lts, kind).class_of != brute_oracle(lts, kind).class_of:
                ok = False
    _report("criterion 2: fixpoint engine equals the brute-force oracle "
            "on 500 random systems", ok)


def _random_instance(b: Builder, rng) -> int:
    axiom = rng.choice(
        ["S1", "S2", "S3", "S4", "B", "R0", "R1", "R2", "R3", "R4",
         "R5", "R6", "R7", "R8"])
    e = random_expr(rng, rng.randint(1, 6))
    f = random_expr(rng, rng.randint(1, 4))
    g = random_expr(rng, rng.randint(1, 3))
    exposed = rng.choice([
        Var("X"),
        Sum(Var("X"), e),
        Prefix(TAU, Var("X")),
        Sum(Prefix(TAU, Sum(Var("X"), f)), e),
    ])
    if axiom == "S1":
        return b.axiom(axiom, {"E": e, "F": f})
    if axiom == "S2":
        return b.axiom(axiom, {"E": e, "F": f, "G": g})
    if axiom in ("S3", "S4"):
        return b.axiom(axiom, {"E": e})
    if axiom == "B":
        return b.axiom(axiom, {"E": e, "F": f},
                       {"a": rng.choice([TAU, Action("a"), Action("b")])})
    if axiom == "R0":
        return b.axiom(axiom, {"E": e}, {"X": "X", "Y": "_f7"})
    if axiom in ("R1", "R3", "R6"):
        return b.axiom(axiom, {"E": e}, {"X": "X"})
    if axiom == "R2":
        body = Prefix(rng.choice([Action("a"), Action("b")]), e)
        prem = b.axiom("R1", {"E": body}, {"X": "X"})
        return b.axiom("R2", {"E": body, "F": Rec("X", body)}, {"X": "X"},
                       premise=prem)
    if axiom == "R4":
        return b.axiom(axiom, {"E": exposed, "F": f, "G": g}, {"X": "X"})
    if axiom == "R5":
        return b.axiom(axiom, {"E": exposed, "F": f}, {"X": "X", "Y": "Y"})
    if axiom == "R7":
        return b.axiom(axiom, {"E": e}, {"X": "X", "Y": "Y"})
    return b.axiom(axiom, {"E": e, "F": f}, {"X": "X", "Y": "Y"})


def test_criterion_3_axiom_soundness():
    rng = random.Random(103)
    failures = 0
    for _ in range(1000):
        b = Builder()
        d = b.finalize(_random_instance(b, rng))
        if check(d) is not None or not rooted_check(*d.conclusion).equal:
            failures += 1
    _report("criterion 3: 1000 random axiom instances are rooted-sound",
            failures == 0, f"{failures} failures")


def test_criterion_4_hierarchy_and_functional_order():
    rng = random.Random(104)
    ok = True
    for _ in range(150):
        e = random_expr(rng, rng.randint(1, 8))
        f = random_expr(rng, rng.randint(1, 8))
        if equivalent(e, f, "strong") and not equivalent(e, f, "dpbb"):
            ok = False
        if equivalent(e, f, "dpbb") and not equivalent(e, f, "branching"):
            ok = False
    # the strong functional's image is only comparable on the pairs of
    # the relation itself: the progressing clause re-checks membership
    for _ in range(100):
        lts = random_lts(rng, 6)
        n = lts.n_states
        pairs = frozenset(
            (i, j) for i in range(n) for j in range(n) if rng.random() < 0.5)
        r = PairRelation(lts, pairs)
        s = functional_S(r).pairs
        bp = functional_Bp(r).pairs
        bd = functional_Bd(r).pairs
        bb = functional_B(r).pairs
        if not ((s & pairs) <= bp and bp <= bd and bd <= bb):
            ok = False
    _report("criterion 4: bisimilarity hierarchy and functional ordering", ok)


def test_criterion_5_derived_rule_replay():
    rng = random.Random(105)
    ok = True
    for _ in range(50):
        a = rng.choice([TAU, Action("a"), Action("b")])
        e = random_expr(rng, rng.randint(1, 5))
        f = random_expr(rng, rng.randint(1, 4))
        g = random_expr(rng, rng.randint(1, 3))
        exposed = rng.choice(
            [Var("X"), Sum(Prefix(TAU, Var("X")), e), Prefix(TAU, Var("X"))])
        derivations = [
            derive(_t1, a, e),
            derive(_d0, exposed, f, "X"),
            derive(_d1, loop(e)),
            derive(_d2, loop(e)),
            derive(_d3, "X", e, f),
            derive(_d4, "X", e, f, g),
            derive(_d5, e, f),
            derive(_d6, loop(loop(e))),
        ]
        for d in derivations:
            if check(d) is not None or not rooted_check(*d.conclusion).equal:
                ok = False
    _report("criterion 5: generated derivations for T1, D0, D1-D6 verify "
            "and are rooted-sound", ok)


def test_criterion_6_standardization():
    rng = random.Random(106)
    ok = True
    for _ in range(300):
        e = random_expr(rng, rng.randint(1, 25))
        se, d = standardize(e)
        if check(d) is not None:
            ok = False
        if d.conclusion != (e, se) or not is_standard_sum(se):
            ok = False
        if not rooted_check(e, se).equal:
            ok = False
    _report("criterion 6: 300 random expressions standardize with verified "
            "certificates", ok)


def test_criterion_7_ses_round_trip():
    rng = random.Random(107)
    ok = True
    for _ in range(200):
        e = random_guarded_expr(rng, rng.randint(1, 12))
        b = Builder()
        order, rhs, _, ders = _extract_into(b, (e,))
        system = SesSystem.from_equations(order, rhs)
        for idx in ders.values():
            if check(b.finalize(idx)) is not None:
                ok = False
        root = order[0]
        b = Builder()
        sols, sd1 = _solve_any(b, system.formals, system.rhs)
        for idx in sd1.values():
            if check(b.finalize(idx)) is not None:
                ok = False
        reordered = SesSystem.from_equations(
            tuple(reversed(system.formals)), system.rhs)
        sol1 = sols[root]
        sol2 = _solve_any(Builder(), reordered.formals, reordered.rhs)[0][root]
        proof = prove_congruent(sol1, sol2)
        if isinstance(proof, RootedCheck) or check(proof) is not None:
            ok = False
    _report("criterion 7: 200 extraction/solution round trips; independent "
            "solutions provably equal", ok)


def test_criterion_8_completeness():
    rng = random.Random(108)
    ok = True
    proved = refused = 0
    while proved + refused < 200:
        e = random_expr(rng, rng.randint(1, 15))
        roll = rng.random()
        if roll < 0.45:
            f = random_expr(rng, rng.randint(1, 15))
        elif roll < 0.65:
            f = Sum(e, e)
        elif roll < 0.8:
            f = Sum(Prefix(TAU, Sum(e, e)), e)
        else:
            f = random_expr(rng, rng.randint(1, 15))
        try:
            joint = build_lts(e, 400).n_states + build_lts(f, 400).n_states
        except Exception:
            continue
        if joint > 200:
            continue
        result = prove_congruent(e, f)
        rooted = rooted_check(e, f).equal
        if isinstance(result, RootedCheck):
            refused += 1
            if rooted:
                ok = False
        else:
            proved += 1
            if not rooted or check(result) is not None:
                ok = False
            if result.conclusion != (e, f):
                ok = False
    # divergence preservation: the in-class divergence flag is uniform
    for _ in range(100):
        e = random_expr(rng, rng.randint(1, 10))
        lts = build_lts(e)
        part = bisimilarity(lts, "dpbb")
        for c in range(part.n_classes):
            members = [i for i in range(lts.n_states) if part.class_of[i] == c]
            inclass = _can_reach_tau_cycle(lts, members, allowed=members)
            if len({m in inclass for m in members}) != 1:
                ok = False
    _report("criterion 8: congruence proofs exactly match rooted equivalence",
            ok, f"{proved} proved, {refused} refuted")
