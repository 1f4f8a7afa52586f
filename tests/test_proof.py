import hashlib
import itertools
import json
import os
import random
import re
import subprocess
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
    loop,
    parse,
    pretty,
    substitute,
)
from dpbc.semantics import DEFAULT_BUDGET, exposes, step
from dpbc.kernel import AxiomStep
from dpbc.proof import (
    Builder,
    CertificateError,
    Cong,
    Derivation,
    MissingMeta,
    ProofError,
    ProofStep,
    Refl,
    SideCondition,
    Symm,
    Trans,
    check,
    format_derivation,
    instantiate_axiom,
    parse_derivation,
    prove_canon,
    prove_sum_eq,
    _d6,
    _t1,
)
from dpbc.equiv import rooted_check
from dpbc.ses import _route, prove_congruent
from dpbc.route import _pad_tau
from dpbc.standardize import (
    MoveNotPresent,
    prove_alpha,
    prove_subst_cong,
    _absorb_summand,
    _hnf,
    _unfold,
    _d0,
    _d1,
    _d2,
    _d3,
    _d4,
    _d5,
)

import dpbc
from genexpr import all_terms, benchmark_gen, derive, random_expr
from oracles import de_bruijn_key


def test_instantiate_branching_axiom():
    st = instantiate_axiom(
        "B", {"E": parse("a.0"), "F": parse("b.0")}, {"a": Action("c")})
    assert st.lhs == parse("c.(tau.(a.0 + b.0) + b.0)")
    assert st.rhs == parse("c.(a.0 + b.0)")


def test_instantiate_r3():
    st = instantiate_axiom("R3", {"E": parse("a.0")}, {"X": "X"})
    assert st.lhs == parse("rec X.(X + a.0)")
    assert st.rhs == parse("rec X. a.0")


def test_r2_side_condition():
    with pytest.raises(SideCondition):
        instantiate_axiom(
            "R2", {"E": parse("tau.X"), "F": parse("a.0")}, {"X": "X"})


def test_r4_side_condition():
    with pytest.raises(SideCondition):
        instantiate_axiom(
            "R4",
            {"E": parse("a.X"), "F": NIL, "G": NIL},
            {"X": "X"},
        )


def test_missing_meta():
    with pytest.raises(MissingMeta):
        instantiate_axiom("S1", {"E": parse("a.0")}, {})


def test_r0_side_condition():
    with pytest.raises(SideCondition):
        instantiate_axiom("R0", {"E": parse("a.Y")}, {"X": "X", "Y": "Y"})


def test_check_t1_chain():
    d = derive(_t1, Action("a"), parse("b.0"))
    assert check(d) is None
    anchors = {(st.lhs, st.rhs) for st in d.steps}
    # the chain passes through the printed waypoints
    assert (parse("a.tau.b.0"), parse("a.(tau.(b.0 + 0) + 0)")) in anchors
    assert (parse("a.(tau.(b.0 + 0) + 0)"), parse("a.(b.0 + 0)")) in anchors
    assert d.conclusion == (parse("a.tau.b.0"), parse("a.b.0"))


def test_check_rejects_broken_trans():
    s0 = ProofStep(parse("a.0"), parse("a.0"), Refl())
    s1 = ProofStep(parse("b.0"), parse("b.0"), Refl())
    bad = ProofStep(parse("a.0"), parse("b.0"), Trans(0, 1))
    failure = check(Derivation((s0, s1, bad)))
    assert failure is not None and failure.index == 2


def test_check_rejects_swapped_axiom():
    st = instantiate_axiom("S4", {"E": parse("a.0")}, {})
    swapped = ProofStep(st.rhs, st.lhs, st.just)
    failure = check(Derivation((swapped,)))
    assert failure is not None and failure.index == 0


def test_check_rejects_forward_reference():
    s0 = ProofStep(parse("a.0"), parse("a.0"), Symm(0))
    assert check(Derivation((s0,))) is not None


def test_unknown_axiom_is_rejected_without_a_traceback():
    e = parse("a.0")
    failure = check(Derivation((ProofStep(e, e, AxiomStep("R9", (), ())),)))
    assert failure is not None and failure.index == 0
    assert failure.reason == "unknown axiom 'R9'"
    with pytest.raises(ProofError):
        instantiate_axiom("R9", {}, {})
    with pytest.raises(CertificateError, match="unknown axiom 'R9'"):
        parse_derivation("term 0 a.0\nstep 0 @0 = @0 by axiom R9 {}")


# S1 over a.0 with an action binding only axiom B takes
_STRAY_ACTION = ("term 0 a.0\nterm 1 @0 + @0\n"
                 "step 0 @1 = @1 by axiom S1 {E:=@0, F:=@0, a:=zz}\n")


def test_action_binding_is_read_only_where_the_axiom_takes_one():
    with pytest.raises(CertificateError, match="S1 takes no parameter 'a'"):
        parse_derivation(_STRAY_ACTION)
    # B's own action still reads
    st = instantiate_axiom("B", {"E": parse("b.0"), "F": NIL}, {"a": Action("zz")})
    d = Derivation((st,))
    again = parse_derivation(format_derivation(d))
    assert again == d and check(again) is None


# Each congruence position with a context of its own type, a context of
# another type, and the endpoints that wrap `a.0 + 0 = a.0` (axiom S4).
@pytest.mark.parametrize("pos, good, bad, lhs, rhs", [
    ("prefix", Action("b"), "b", "b.(a.0 + 0)", "b.a.0"),
    ("suml", Var("Y"), "Y", "(a.0 + 0) + Y", "a.0 + Y"),
    ("sumr", Var("Y"), "Y", "Y + (a.0 + 0)", "Y + a.0"),
    ("recbody", "X", Var("X"), "rec X. (a.0 + 0)", "rec X. a.0"),
])
def test_check_rejects_ill_typed_or_unknown_congruence(pos, good, bad, lhs, rhs):
    inner = instantiate_axiom("S4", {"E": parse("a.0")}, {})
    for just, reason in [
        (Cong(pos, 0, good), None),
        (Cong(pos, 0, bad), "congruence endpoints do not wrap the referenced step"),
        (Cong("body", 0, good), "unknown congruence position 'body'"),
    ]:
        failure = check(Derivation((inner, ProofStep(parse(lhs), parse(rhs), just))))
        if reason is None:
            assert failure is None
        else:
            assert failure is not None and (failure.index, failure.reason) == (1, reason)


def test_derive_t1_with_silent_action():
    d = derive(_t1, TAU, parse("a.0"))
    assert check(d) is None
    assert d.conclusion == (parse("tau.tau.a.0"), parse("tau.a.0"))
    assert rooted_check(*d.conclusion).equal


def test_summand_absorption_move():
    e = parse("a.0 + b.0")
    d = derive(_absorb_summand, e, parse("a.0"))
    assert check(d) is None
    assert d.conclusion == (e, Sum(e, parse("a.0")))
    assert rooted_check(*d.conclusion).equal


def test_summand_absorption_exposure():
    d = derive(_absorb_summand, Var("X"), Var("X"))
    assert check(d) is None
    assert d.conclusion == (Var("X"), parse("X + X"))


def test_summand_absorption_missing():
    with pytest.raises(MoveNotPresent):
        derive(_absorb_summand, parse("rec X.(a.0 + X)"), Var("X"))
    with pytest.raises(MoveNotPresent):
        derive(_absorb_summand, parse("a.0"), parse("b.0"))


def test_summand_absorption_through_recursion():
    e = parse("rec X. a.b.X")
    d = derive(_absorb_summand, e, parse("a.b.rec X. a.b.X"))
    assert check(d) is None
    assert rooted_check(*d.conclusion).equal


def test_summand_absorption_is_total():
    # every move of step(e) and every exposed variable is absorbed, also
    # under a recursion that shadows a binder (random_expr draws binders
    # from four names), closed and with the free names _g0 and W
    rng = random.Random(4)
    for i in range(3000):
        e = random_expr(rng, rng.randint(1, 14), ["_g0", "W"] if i % 2 else [])
        leaves = [Prefix(*m) for m in step(e)] + [Var(x) for x in exposes(e)]
        for leaf in leaves:
            d = derive(_absorb_summand, e, leaf)
            assert check(d) is None, pretty(e)
            assert d.conclusion == (e, Sum(e, leaf)), pretty(e)


# free Z and W that two nested recursions capture: R1, one recursion at a
# time, renames W where `step`, substituting once, renames it otherwise
_CAPTURED = "rec Y. (Z + W + rec Z. a.(Y + rec W. b.(Z + W)))"


@pytest.mark.parametrize("text", [
    "rec X. rec Z. rec X. Z",  # unfolds back to itself after two R1 steps
    # its derivative holds `rec Y` where an outer recursion binds Y
    "rec Y. rec Z. a.c.(c.b.(0 + tau.b.(c.0 + rec Y. Z)) + Y)",
    "rec W. rec X. c.((rec W. b.X) + W)",  # an inner binder shadows the outer one
    "tau* c._g0",
    _CAPTURED,
])
def test_hnf_sums_the_moves_of_step(text):
    e = parse(text)
    d = derive(_hnf, e)
    assert check(d) is None
    lhs, hnf = d.conclusion
    assert lhs == e
    summands = set(flatten_sum(hnf))
    assert all(Prefix(act, target) in summands for act, target in step(e))


def test_unfolding_puts_recursions_in_as_step_does():
    # R1 puts a recursion into its body, outer recursions first, and so
    # does `step`, all at once: the prefix summands that unfolding
    # reaches are exactly step's moves.  The sample holds 3 terms where
    # putting recursions in inner first renames a binder
    x, y, z = Var("X"), Var("Y"), Var("Z")
    rng = random.Random(7)
    terms = all_terms(6, (NIL, x, y, z)) + [
        random_expr(rng, rng.randint(3, 16)) for _ in range(10000)]
    for e in terms + [parse(_CAPTURED)]:
        b = Builder()
        hnf = b.rhs_after(_unfold(b, e, e, {}))
        prefixes = {s for s in flatten_sum(hnf) if type(s) is Prefix}
        assert prefixes == {Prefix(act, target) for act, target in step(e)}, pretty(e)


def test_unfolding_renames_a_binder_apart_from_step():
    # on _CAPTURED, R1's substitutions one recursion at a time name the
    # renamed W otherwise than step's one substitution, so `_unfold`
    # brings the summand to step's term by R0
    e = parse(_CAPTURED)
    inner = flatten_sum(substitute(e.body, {"Y": e}))[-1]  # t_Z, R1 on Y
    by_r1 = substitute(inner.body, {inner.binder: inner})  # R1 on t_Z
    (act, target), = step(e)
    assert by_r1 != Prefix(act, target)
    assert de_bruijn_key(by_r1) == de_bruijn_key(Prefix(act, target))
    d = derive(_unfold, e, e, {})
    assert check(d) is None
    assert any(isinstance(s.just, AxiomStep) and s.just.axiom == "R0" for s in d.steps)
    # and the prover, which reads a state's equation off step's moves,
    # proves e equal to e plus its own move
    d = prove_congruent(e, Sum(e, Prefix(act, target)))
    assert check(d) is None


def test_d0_immediate_exposure():
    d = derive(_d0, Var("X"), NIL, "X")
    assert check(d) is None
    assert d.conclusion == (
        parse("rec X.(tau.X + 0)"),
        parse("rec X.(tau.(X + X) + 0)"),
    )


def test_d0_one_step_path():
    d = derive(_d0, parse("tau.X + b.0"), parse("a.0"), "X")
    assert check(d) is None
    lhs, rhs = d.conclusion
    assert lhs == parse("rec X.(tau.(tau.X + b.0) + a.0)")
    assert rhs == parse("rec X.(tau.(X + (tau.X + b.0)) + a.0)")
    assert rooted_check(lhs, rhs).equal


def test_d0_side_condition():
    with pytest.raises(SideCondition):
        derive(_d0, parse("a.X"), NIL, "X")


def test_generators_deterministic():
    a = derive(_d0, parse("tau.X + b.0"), parse("a.0"), "X")
    b = derive(_d0, parse("tau.X + b.0"), parse("a.0"), "X")
    assert a == b
    assert derive(_t1, Action("a"), parse("b.0")) == derive(_t1, Action("a"), parse("b.0"))


def test_axiom_soundness_random_sample():
    rng = random.Random(31)
    for _ in range(100):
        d = _random_axiom_instance(rng)
        assert check(d) is None
        assert rooted_check(*d.conclusion).equal, format_derivation(d)


def _random_axiom_instance(rng) -> Derivation:
    b = Builder()
    return b.finalize(_random_axiom_instance_idx(b, rng))


def _random_axiom_instance_idx(b, rng) -> int:
    """Emit a random axiom instance into `b`; returns its step index."""
    from genexpr import random_expr as re_

    axiom = rng.choice(
        ["S1", "S2", "S3", "S4", "B", "R0", "R1", "R2", "R3", "R4",
         "R5", "R6", "R7", "R8"])
    e = re_(rng, rng.randint(1, 5))
    f = re_(rng, rng.randint(1, 4))
    g = re_(rng, rng.randint(1, 3))
    exposed = Sum(Var("X"), e) if rng.random() < 0.5 else Prefix(TAU, Var("X"))
    if axiom in ("S1",):
        idx = b.axiom(axiom, {"E": e, "F": f})
    elif axiom == "S2":
        idx = b.axiom(axiom, {"E": e, "F": f, "G": g})
    elif axiom in ("S3", "S4"):
        idx = b.axiom(axiom, {"E": e})
    elif axiom == "B":
        idx = b.axiom(axiom, {"E": e, "F": f},
                      {"a": rng.choice([TAU, Action("a")])})
    elif axiom == "R0":
        idx = b.axiom(axiom, {"E": e}, {"X": "X", "Y": "_f9"})
    elif axiom in ("R1", "R3", "R6"):
        idx = b.axiom(axiom, {"E": e}, {"X": "X"})
    elif axiom == "R2":
        prem = b.axiom("R1", {"E": Prefix(Action("a"), e)}, {"X": "X"})
        rec = Rec("X", Prefix(Action("a"), e))
        idx = b.axiom(
            "R2", {"E": Prefix(Action("a"), e), "F": rec}, {"X": "X"},
            premise=prem)
    elif axiom == "R4":
        idx = b.axiom(axiom, {"E": exposed, "F": f, "G": g}, {"X": "X"})
    elif axiom == "R5":
        idx = b.axiom(axiom, {"E": exposed, "F": f}, {"X": "X", "Y": "Y"})
    elif axiom == "R7":
        idx = b.axiom(axiom, {"E": e}, {"X": "X", "Y": "Y"})
    else:  # R8
        idx = b.axiom(axiom, {"E": e, "F": f}, {"X": "X", "Y": "Y"})
    return idx


def test_soundness_of_randomly_composed_derivations():
    # random chains of axiom instances, congruence wrappers, symmetry and
    # transitivity stay rooted-sound
    rng = random.Random(33)
    for _ in range(60):
        b = Builder()
        idx = _random_axiom_instance_idx(b, rng)
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            lhs, rhs = b.endpoints(idx)
            if roll < 0.3:
                idx = b.symm(idx)
            elif roll < 0.6:
                pos = rng.choice(["prefix", "suml", "sumr", "recbody"])
                if pos == "prefix":
                    idx = b.cong("prefix", idx, rng.choice([TAU, Action("a")]))
                elif pos == "recbody":
                    idx = b.cong("recbody", idx, rng.choice(["X", "Y", "Z"]))
                else:
                    idx = b.cong(pos, idx, random_expr(rng, rng.randint(1, 3)))
            else:
                other = _random_axiom_instance_idx(b, rng)
                lo, _ = b.endpoints(other)
                bridge = b.cong("suml", idx, lo)
                grown = b.cong("sumr", other, b.endpoints(idx)[1])
                idx = b.trans(bridge, grown)
        d = b.finalize(idx)
        assert check(d) is None
        assert rooted_check(*d.conclusion).equal


def test_prove_canon_and_sum_eq():
    rng = random.Random(32)
    b = Builder()
    for _ in range(60):
        e = random_expr(rng, rng.randint(1, 10))
        out, idx = prove_canon(b, e)
        lhs, rhs = b.endpoints(idx)
        assert lhs == e and rhs == out
    d = b.finalize(prove_sum_eq(b, parse("a.0 + (b.0 + a.0)"), parse("b.0 + a.0 + 0")))
    assert check(d) is None
    # left association rebuilds a.0 + 0, a sum both sides hold whole,
    # out of two other summands: it is taken apart all the same
    lhs, rhs = parse("0 + (a.0 + (a.0 + 0))"), parse("a.0 + (0 + (a.0 + 0))")
    d = b.finalize(prove_sum_eq(b, lhs, rhs))
    assert check(d) is None and d.conclusion == (lhs, rhs)


# leaves with 0, and sums of them, so that a sum can be kept whole on
# one side and rebuilt from its leaves on the other
_SUMMANDS = [parse(t) for t in ("0", "a.0", "b.0", "X", "tau.a.0", "c.(a.0 + b.0)",
                                "a.0 + 0", "a.0 + b.0")]


def _grouped(rng, parts):
    """A sum tree over parts, in their order, grouped at random."""
    parts = list(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [Sum(parts[i], parts[i + 1])]
    return parts[0]


def _cut(rng, e):
    """e's sum tree cut at random into subtrees kept whole, left to right."""
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        if isinstance(n, Sum) and rng.random() < 0.7:
            todo += (n.right, n.left)
        else:
            out.append(n)
    return out


def test_prove_sum_eq_on_random_rearrangements():
    # a random sum over a pool with 0 and repeats against its subtrees
    # regrouped, permuted, repeated, dropped or joined by another
    # summand: prove_sum_eq proves exactly the pairs whose leaves agree
    # up to order, 0s and repeats, and each certificate reads back
    rng = random.Random(20)
    proved = refused = 0
    for _ in range(400):
        lhs = _grouped(rng, [rng.choice(_SUMMANDS) for _ in range(rng.randint(1, 7))])
        parts = _cut(rng, lhs)
        rng.shuffle(parts)
        for _ in range(rng.randint(0, 2)):
            edit = rng.choice(("repeat", "drop", "add"))
            if edit == "repeat":
                parts.append(rng.choice(parts))
            elif edit == "drop" and len(parts) > 1:
                parts.pop(rng.randrange(len(parts)))
            elif edit == "add":
                parts.insert(rng.randrange(len(parts) + 1), rng.choice(_SUMMANDS))
        if rng.random() < 0.2:
            # the shape the absorptions ask for: a side and one more summand
            rhs = Sum(lhs, rng.choice(parts + _SUMMANDS))
        else:
            rhs = _grouped(rng, parts)
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        b = Builder()
        if canon_leaves(flatten_sum(lhs)) == canon_leaves(flatten_sum(rhs)):
            d = parse_derivation(format_derivation(b.finalize(prove_sum_eq(b, lhs, rhs))))
            assert check(d) is None and d.conclusion == (lhs, rhs)
            proved += 1
        else:
            with pytest.raises(ProofError):
                prove_sum_eq(b, lhs, rhs)
            refused += 1
    assert proved > 150 and refused > 50


def test_prove_sum_eq_moves_shared_operands_whole():
    # E + (F + G) = (E + G) + F rearranges E, F and G as they stand, so
    # the proof does not grow with their width
    def steps(width):
        e, f, g = (compose_sum(parse(f"{a}{i}.0") for i in range(width)) for a in "efg")
        b = Builder()
        d = b.finalize(prove_sum_eq(b, Sum(e, Sum(f, g)), Sum(Sum(e, g), f)))
        assert check(d) is None and d.conclusion == (Sum(e, Sum(f, g)), Sum(Sum(e, g), f))
        return len(d.steps)

    assert steps(30) == steps(3) <= 20


def test_prove_sum_eq_regroups_a_wide_sum():
    # 2,000 summands, left-nested against right-nested, at the default
    # recursion limit and in a number of steps linear in the width
    n = 2000
    leaves = [Prefix(Action(f"a{i}"), NIL) for i in range(n)]
    left, right = compose_sum(leaves), leaves[-1]
    for leaf in reversed(leaves[:-1]):
        right = Sum(leaf, right)
    b = Builder()
    d = b.finalize(prove_sum_eq(b, left, right))
    assert d.conclusion == (left, right)
    assert len(d.steps) <= 2 * n
    assert check(d) is None


def test_prove_alpha():
    b = Builder()
    lhs = parse("rec X. a.X + b.Y")
    rhs = parse("rec Z. a.Z + b.Y")
    idx = prove_alpha(b, lhs, rhs)
    d = b.finalize(idx)
    assert check(d) is None
    assert d.conclusion == (lhs, rhs)


def _prefixed(n: int, e):
    for _ in range(n):
        e = Prefix(Action("a"), e)
    return e


@pytest.mark.parametrize("lift", ["prove_alpha", "prove_subst_cong", "_pad_tau"])
def test_lifts_walk_terms_of_any_depth(lift):
    # each lift goes down its terms on the walk's own stack, so a term
    # 10^4 prefixes deep costs no interpreter stack
    n, b, value = 10_000, Builder(), parse("b.0")
    if lift == "prove_alpha":
        lhs, rhs = _prefixed(n, parse("rec X. b.X")), _prefixed(n, parse("rec Y. b.Y"))
        idx = prove_alpha(b, lhs, rhs)
    elif lift == "prove_subst_cong":
        context, inner = _prefixed(n, Var("H")), b.axiom("S4", {"E": value})
        lhs, rhs = (substitute(context, {"H": side}) for side in (Sum(value, NIL), value))
        idx = prove_subst_cong(b, context, "H", inner)
    else:
        template, padded = _prefixed(n, parse("c.X")), Prefix(TAU, value)
        lhs, rhs = (substitute(template, {"X": side}) for side in (value, padded))
        idx = _pad_tau(b, template, {"X": value}, {"X": padded})
    d = b.finalize(idx)
    assert check(d) is None
    assert d.conclusion == (lhs, rhs)


def test_certificate_roundtrip():
    d = derive(_d0, parse("tau.X + b.0"), parse("a.0"), "X")
    text = format_derivation(d)
    again = parse_derivation(text)
    assert again == d
    assert check(again) is None


def test_certificate_tamper_detection():
    d = derive(_t1, Action("a"), parse("b.0"))
    text = format_derivation(d)
    lines = text.splitlines()
    # swap the endpoints of the final step, keeping the term table
    last = lines[-1]
    head, _, just = last.rpartition(" by ")
    prefix, _, eq = head.partition(" ")
    num, _, body = eq.partition(" ")
    lhs, _, rhs = body.partition(" = ")
    lines[-1] = f"step {num} {rhs} = {lhs} by {just}"
    bad = parse_derivation("\n".join(lines))
    failure = check(bad)
    assert failure is not None and failure.index == int(num)


# A certificate without a term table, every side printed as a whole tree
_TABLE_FREE_CERT = """\
# proves: a.0 + a.0 = a.0
step 0 a.0 + a.0 = a.0 by axiom S3 {E:=a.0}
step 1 a.0 + a.0 + a.0 = a.0 + a.0 by cong suml 0 in ◻ + a.0
step 2 a.0 = a.0 + a.0 by symm 0
step 3 a.0 + a.0 = a.0 + a.0 by trans 0 2
step 4 a.0 + a.0 + a.0 = a.0 + a.0 by trans 1 3
step 5 a.0 + a.0 + a.0 = a.0 by trans 4 0
step 6 a.0 + a.0 = a.0 + a.0 + a.0 by cong suml 2 in ◻ + a.0
step 7 a.0 + (a.0 + a.0) = a.0 + a.0 + a.0 by axiom S2 {E:=a.0, F:=a.0, G:=a.0}
step 8 a.0 + a.0 + a.0 = a.0 + (a.0 + a.0) by symm 7
step 9 a.0 + a.0 = a.0 + a.0 by axiom S1 {E:=a.0, F:=a.0}
step 10 a.0 + (a.0 + a.0) = a.0 + (a.0 + a.0) by cong sumr 9 in a.0 + ◻
step 11 a.0 + a.0 = a.0 + (a.0 + a.0) by trans 6 8
step 12 a.0 + a.0 = a.0 + (a.0 + a.0) by trans 11 10
step 13 a.0 + a.0 = a.0 + a.0 + a.0 by trans 12 7
step 14 a.0 + a.0 + a.0 = a.0 + a.0 by symm 13
step 15 a.0 + a.0 + a.0 = a.0 by trans 1 0
step 16 a.0 + (a.0 + a.0) = a.0 by trans 7 15
step 17 a.0 = a.0 + a.0 + a.0 by symm 15
step 18 a.0 + (a.0 + a.0) = a.0 + a.0 + a.0 by trans 16 17
step 19 a.0 + (a.0 + a.0) = a.0 + a.0 by trans 18 14
step 20 a.0 + a.0 + a.0 = a.0 + (a.0 + a.0) by axiom S1 {E:=a.0 + a.0, F:=a.0}
step 21 a.0 + a.0 + a.0 = a.0 + a.0 by trans 20 19
step 22 a.0 + a.0 = a.0 + a.0 + a.0 by symm 21
step 23 a.0 + a.0 = a.0 by trans 22 5
"""


def test_table_free_certificate_still_verifies():
    d = parse_derivation(_TABLE_FREE_CERT)
    assert check(d) is None
    assert d.conclusion == (parse("a.0 + a.0"), parse("a.0"))
    # written again, it gains a term table and reads back to the same steps
    text = format_derivation(d)
    assert "term 0 " in text
    assert parse_derivation(text) == d


_REF = r"(@\d+|[A-Z_][\w']*|0)"
_TERM_BODY = re.compile(
    rf"[a-z]\w*\.{_REF}|{_REF} \+ {_REF}|rec [A-Z_][\w']*\. {_REF}")


def test_certificate_writes_each_subterm_once():
    d = derive(_d0, parse("tau.X + b.0"), parse("a.0"), "X")
    text = format_derivation(d)
    terms = [l for l in text.splitlines() if l.startswith("term ")]
    bodies = [l.split(" ", 2)[2] for l in terms]
    assert len(set(bodies)) == len(bodies) > 0
    # each body is one constructor over earlier terms, variables and 0
    for n, body in enumerate(bodies):
        assert _TERM_BODY.fullmatch(body), body
        assert all(int(k) < n for k in re.findall(r"@(\d+)", body))
    # every step side is a reference or a leaf
    for line in text.splitlines():
        if line.startswith("step "):
            lhs, _, rest = line.split(" ", 2)[2].partition(" = ")
            assert re.fullmatch(_REF, lhs) and re.fullmatch(_REF, rest.split(" by ")[0])
    again = parse_derivation(text)
    assert again == d and check(again) is None


@pytest.mark.parametrize("text", [
    "step 0 @0 = @0 by refl",                                  # undefined
    "term 0 a.@0\nstep 0 @0 = @0 by refl",                     # self reference
    "term 0 a.0\nterm 1 b.@2\nterm 2 c.0\nstep 0 @1 = @1 by refl",  # forward
    "term 0 a.0\nterm 2 b.0\nstep 0 @0 = @0 by refl",          # out of order
    "term 0 a.0\nterm 0 b.0\nstep 0 @0 = @0 by refl",          # duplicate
    "term 0 a.0\nstep 0 @0 = @0 by axiom S3 {E:=@1}",          # undefined binding
    "term 0 a.0\nstep 0 @0 = @0 by refl\nstep 1 @0 + @0 = @0 + @0 by cong suml 0 in ◻ + @9",
    "term 0 a.b.0\nstep 0 @0 = @0 by refl",                   # term body over a term
    "term 0 a.0\nterm 1 @0 + (b.0)\nstep 0 @1 = @1 by refl",  # field in parentheses
    "term 0 a.0\nstep 0 @0 = a.0 by refl",                    # whole side beside a table
    "term 0 a.0\nstep 0 @0 = @0 by axiom S3 {E:=a.0}",        # whole binding beside a table
    "term 0 a.0\nstep 0 @0 = @0 by refl\nterm 1 b.0",         # term line after a step
])
def test_certificate_rejects_bad_term_references(text):
    with pytest.raises(CertificateError):
        parse_derivation(text)


# The context text of each congruence position in a certificate
_CONTEXT_TEXTS = {
    "prefix": "b.◻",
    "suml": "◻ + @0",
    "sumr": "@0 + ◻",
    "recbody": "rec X. ◻",
}


@pytest.mark.parametrize("pos, other", itertools.permutations(_CONTEXT_TEXTS, 2))
def test_certificate_rejects_context_of_another_position(pos, other):
    head = "term 0 a.0\nstep 0 @0 = @0 by refl\nstep 1 @0 = @0 by cong"
    # the position's own context text reads
    own = parse_derivation(f"{head} {pos} 0 in {_CONTEXT_TEXTS[pos]}")
    assert own.steps[1].just.pos == pos
    with pytest.raises(CertificateError, match=f"bad {pos} context"):
        parse_derivation(f"{head} {pos} 0 in {_CONTEXT_TEXTS[other]}")


# Certificates of two fixed pairs, byte for byte, as written under
# PYTHONHASHSEED=0; a change to how terms hash or to the order in which
# the prover visits them shows here.
_PINNED = {
    ("rec X. a.X", "a.rec X. a.X"): """\
# proves: rec X. a.X = a.rec X. a.X
term 0 a.X
term 1 rec X. @0
term 2 a.@1
step 0 @1 = @2 by axiom R1 {E:=@0, X:=X}
""",
    ("a.0", "a.0 + a.0"): """\
# proves: a.0 = a.0 + a.0
term 0 a.0
term 1 @0 + @0
step 0 @1 = @0 by axiom S3 {E:=@0}
step 1 @0 = @1 by symm 0
""",
}


# Longer pins, one file each under tests/pinned/, written the same way.
# `prove_congruent` walks down both sides to where they differ, so each
# pair pins one branch of it:
# - looploop: the walk closes the pair at the root by D6 (R0, R7, R1);
# - looploopprefix: D6 under a prefix;
# - taupad: T1 inside a recursion body;
# - extractloops: T1 on the longer side, then S4 inside a recursion;
# - bridgeloop: S4 in a loop body inside a recursion and a prefix;
# - exposeunguarded and exposeguarded: S1-S4 alone at the root, by S3
#   and a symmetry or by S4;
# - exposeloop and selfsummand: the root route, for sides that differ at
#   the root, standardizing a recursion whose variable a loop exposes
#   and one with its own variable as a bare summand (R3);
# - foldsummands: the walk renames the recursion (R0), meets summands
#   that are not rooted-equivalent, and falls back to the root route,
#   whose standardization folds two silent summands together (D4);
# - loopstutter: the root route promotes a loop state that steps
#   silently into an equivalent loop, so the quotient's loop equation
#   (equality (3)) merges two loops by D5 and absorbs along D2; no
#   other pin and no benchmark pair reaches that path.
# Three pins standardize a single side: a sum whose halves both expose
# the variable (`b.rec Z. tau.(Z + Z)`), one whose right half is guarded
# (`tau.rec X. tau.(X + 0)`), and a recursion whose silent summand
# reaches its binder through a recursion that is not a loop, which
# exposure unfolds in place.  The root route on its own is tested on
# every pinned pair in test_ses.py, which keeps uniqueness of solutions
# (R2), the quotient and the substitution lifts under test.
_PINNED_FILES = {
    ("tau* tau* 0", "tau* 0"): "looploop.cert",
    ("rec X. a.X", "rec X. a.tau.X"): "taupad.cert",
    ("b.rec Z. tau.(Z + Z)", "b.(rec Z. tau.(Z + Z)) + b.rec Z. tau.(Z + Z)"):
        "exposeunguarded.cert",
    ("tau.(rec X. tau.(X + 0)) + 0", "tau.rec X. tau.(X + 0)"): "exposeguarded.cert",
    ("rec X. tau.(tau* X)", "tau.tau* 0"): "exposeloop.cert",
    ("rec X. tau.X + tau.tau.X", "tau* 0"): "foldsummands.cert",
    ("rec X. X + a.0", "a.0"): "selfsummand.cert",
    ("a.rec X. (tau* 0 + 0)", "a.tau.rec X. tau* 0"): "extractloops.cert",
    ("a.tau* tau* 0", "a.tau* 0"): "looploopprefix.cert",
    ("rec X. a.tau* (X + b.0)", "rec X. a.(tau* (X + b.0) + 0)"): "bridgeloop.cert",
    ("a.tau* (b.0 + tau.tau* b.0)", "a.tau* b.0"): "loopstutter.cert",
    ("b.rec Z. tau.(Z + Z)",): "stdexposeunguarded.cert",
    ("tau.rec X. tau.(X + 0)",): "stdexposeguarded.cert",
    ("rec X. tau.tau.rec Y.(tau.X + a.Y)",): "exposerec.cert",
}


def test_certificate_texts_are_pinned():
    code = ("import sys; from dpbc import parse, prove_congruent, standardize; "
            "from dpbc.proof import format_derivation; "
            "sides = [parse(text) for text in sys.argv[1:]]; "
            "sys.stdout.write(format_derivation("
            "prove_congruent(*sides) if len(sides) == 2 else standardize(*sides)[1]))")
    src = os.path.dirname(os.path.dirname(dpbc.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8", PYTHONPATH=src)
    pins = dict(_PINNED)
    for pair, name in _PINNED_FILES.items():
        path = os.path.join(os.path.dirname(__file__), "pinned", name)
        with open(path, encoding="utf-8") as fh:
            pins[pair] = fh.read()
    for sides, want in pins.items():
        res = subprocess.run([sys.executable, "-c", code, *sides], env=env,
                             capture_output=True, text=True, encoding="utf-8")
        assert res.returncode == 0, res.stderr
        assert res.stdout == want
        assert check(parse_derivation(want)) is None


_BENCHMARK_CERTIFICATES_SHA256 = (
    "ffa9ad27c24777e209b70fc4f172c0812ddf848f262c65aecded7b4f6b4b3453")


def test_benchmark_certificates_check_and_do_not_grow():
    # the certificates of the prove benchmark, seeds 1/7/11, written under
    # PYTHONHASHSEED=0: each passes the checker after a text round trip,
    # proves the op's pair, and has at most the steps pinned in
    # pinned/prove_steps.json (null: the pair is not congruent).  Their
    # texts, concatenated in op order, are pinned byte for byte by their
    # SHA-256 (1,086 steps, 3,041 lines, 77,721 bytes); a change that
    # alters a certificate updates the digest and states the new sizes
    code = ("import json; from genexpr import benchmark_gen; "
            "from dpbc import parse, prove_congruent; from dpbc.equiv import RootedCheck; "
            "from dpbc.proof import format_derivation; "
            "results = [prove_congruent(parse(op['left']), parse(op['right'])) "
            "for seed in (1, 7, 11) for op in benchmark_gen().prove_ops(seed, 4)]; "
            "print(json.dumps([None if isinstance(r, RootedCheck) else format_derivation(r) "
            "for r in results]))")
    here = os.path.dirname(__file__)
    src = os.path.dirname(os.path.dirname(dpbc.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join([src, here]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, encoding="utf-8")
    assert res.returncode == 0, res.stderr
    texts = json.loads(res.stdout)
    with open(os.path.join(here, "pinned", "prove_steps.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    ops = [op for seed in (1, 7, 11) for op in benchmark_gen().prove_ops(seed, 4)]
    limits = pinned["1"] + pinned["7"] + pinned["11"]
    assert len(texts) == len(ops) == len(limits)
    joined = "".join(text for text in texts if text is not None).encode("utf-8")
    assert hashlib.sha256(joined).hexdigest() == _BENCHMARK_CERTIFICATES_SHA256
    for op, text, limit in zip(ops, texts, limits):
        assert (text is None) == (limit is None) == (not op["expect"]), op
        if text is not None:
            derivation = parse_derivation(text)
            assert check(derivation) is None, op
            assert derivation.conclusion == (parse(op["left"]), parse(op["right"]))
            assert len(derivation.steps) <= limit, op


# the certificates of the root route (`route._absorb_both`): seeded pairs
# of closed `all_terms(5, (0, X, Y))` terms, each against the first drawn
# term of its rooted-congruence class, whose proofs reach it, then a tree
# of `perfbench/gen.py` against its silently padded variant unfolded once
# at the root (40 nodes), written under PYTHONHASHSEED=0
_ROOT_ROUTE_CODE = """\
import json, random
from genexpr import all_terms, benchmark_gen
import dpbc.route as route
from dpbc import prove_congruent
from dpbc.equiv import rooted_check
from dpbc.kernel import format_derivation
from dpbc.syntax import NIL, Var, free_vars, parse, pretty, substitute
terms = [e for e in all_terms(5, (NIL, Var("X"), Var("Y"))) if not free_vars(e)]
random.Random(40).shuffle(terms)
firsts, pairs = [], []
for e in terms[:300]:
    g = next((g for g in firsts if rooted_check(e, g).equal), None)
    if g is None:
        firsts.append(e)
    else:
        pairs.append((e, g))
gen = benchmark_gen()
tree = gen.Tree(random.Random("decide-skeleton:0"), 40, random.Random("decide:1"))
pad = parse(gen.show(tree.term(binder="Y", pad=random.Random(40).randrange(1, 40))))
pairs.append((parse(gen.show(tree.term())), substitute(pad.body, {pad.binder: pad})))
routed, real = [], route._absorb_both
route._absorb_both = lambda *args: routed.append(args) or real(*args)
out = []
for e, f in pairs:
    del routed[:]
    text = format_derivation(prove_congruent(e, f))
    if routed:
        out.append((pretty(e), pretty(f), text))
print(json.dumps(out))
"""
_ROOT_ROUTE_SHA256 = (
    "dd0817e0fa1ae00b0e1d54be064ff530be54399145bf43aa44879844f3fa9d04")


def test_root_route_certificates_are_pinned():
    # the benchmark's certificates are all closed by the walk, so these
    # pin the root route's: their texts, concatenated, byte for byte by
    # their SHA-256 (276 certificates, 30,831 steps, 9,352 of them the
    # tree's); each passes the checker after a text round trip and
    # proves its pair
    here = os.path.dirname(__file__)
    src = os.path.dirname(os.path.dirname(dpbc.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join([src, here]))
    res = subprocess.run([sys.executable, "-c", _ROOT_ROUTE_CODE], env=env,
                         capture_output=True, text=True, encoding="utf-8")
    assert res.returncode == 0, res.stderr
    routed = json.loads(res.stdout)
    joined = "".join(text for _, _, text in routed).encode("utf-8")
    assert hashlib.sha256(joined).hexdigest() == _ROOT_ROUTE_SHA256
    steps = 0
    for left, right, text in routed:
        derivation = parse_derivation(text)
        assert check(derivation) is None, (left, right)
        assert derivation.conclusion == (parse(left), parse(right))
        steps += len(derivation.steps)
    assert (len(routed), steps) == (276, 30831)


def test_checker_runs_no_transition_function(monkeypatch):
    # the side conditions of R2, R4 and R5 are syntactic: with every
    # function of the operational semantics disabled, each pin and a
    # root-route proof with R2 premises still check, and an R4 or R5
    # step whose X is guarded in E still fails
    from dpbc import proof, semantics
    standardize = sys.modules["dpbc.standardize"]  # `dpbc.standardize` is the function

    b = Builder()
    route = b.finalize(_route(b, parse("rec X. a.X"), parse("rec X. a.tau.X"), DEFAULT_BUDGET))
    assert any(st.just.axiom == "R2" for st in route.steps if isinstance(st.just, AxiomStep))

    def disabled(*args, **kwargs):
        raise AssertionError("the checker ran the operational semantics")

    for module in (semantics, proof, standardize):
        for name, value in list(vars(module).items()):
            if (callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", None) == semantics.__name__):
                monkeypatch.setattr(module, name, disabled)
    assert standardize.exposes is disabled and standardize._tau_reachable is disabled
    pinned = os.path.join(os.path.dirname(__file__), "pinned")
    for name in sorted(n for n in os.listdir(pinned) if n.endswith(".cert")):
        with open(os.path.join(pinned, name), encoding="utf-8") as fh:
            assert check(parse_derivation(fh.read())) is None, name
    assert check(parse_derivation(format_derivation(route))) is None
    guarded = parse("a.X")
    r4 = ProofStep(parse("rec X.(tau.(tau.a.X + b.0) + 0)"),
                   parse("rec X.(tau.(a.X + b.0) + 0)"),
                   AxiomStep("R4", (("E", guarded), ("F", parse("b.0")), ("G", NIL)),
                             (("X", "X"),)))
    r5 = ProofStep(parse("rec X.(tau.(rec Y.(tau.Y + a.X)) + 0)"),
                   parse("rec X.(tau.(rec Y. a.X) + 0)"),
                   AxiomStep("R5", (("E", guarded), ("F", NIL)), (("X", "X"), ("Y", "Y"))))
    for st in (r4, r5):
        failure = check(Derivation((st,)))
        assert failure is not None
        assert failure.reason == f"{st.just.axiom}: X is guarded in the summand"


def test_builder_memo_repeats_no_work():
    # the same derived results asked for twice: same indices, and the
    # second round emits nothing, not even steps the builder already has
    b = Builder()
    inner = b.axiom("S4", {"E": parse("a.Y")})  # a.Y + 0 = a.Y
    context = parse("c.X + rec Y. d.(X + Y)")  # the binder captures Y
    # unfolding the outer recursion renames the inner W to _g0
    shadowing = parse("rec W. rec X. c.((rec W. b.X) + W)")

    def requests():
        canon = prove_canon(b, parse("b.0 + (a.0 + b.0) + 0"))
        lifted = prove_subst_cong(b, context, "X", inner)
        hnf = _hnf(b, shadowing)
        return canon, lifted, hnf

    first = requests()
    n = len(b.steps)
    emitted = []
    emit = b._emit
    b._emit = lambda *args: emitted.append(args) or emit(*args)
    assert requests() == first
    assert len(b.steps) == n and emitted == []
    for idx in (first[0][1], first[1], first[2]):
        assert check(b.finalize(idx)) is None


def test_each_equation_is_proved_once():
    # the builder holds one step per equation, so no finalized derivation
    # proves the same lhs = rhs twice: not the pins, not D1-D6 and not
    # the proofs of random congruent pairs
    def assert_once(d, what):
        equations = [(st.lhs, st.rhs) for st in d.steps]
        assert len(set(equations)) == len(equations), what

    texts = list(_PINNED.values())
    pinned = os.path.join(os.path.dirname(__file__), "pinned")
    for name in _PINNED_FILES.values():
        with open(os.path.join(pinned, name), encoding="utf-8") as fh:
            texts.append(fh.read())
    for text in texts:
        assert_once(parse_derivation(text), text.splitlines()[0])
    rng = random.Random(60)
    for _ in range(10):
        e, f, g = (random_expr(rng, rng.randint(1, n)) for n in (5, 4, 3))
        for rule, ops in [(_d1, (loop(e),)), (_d2, (loop(e),)), (_d3, ("X", e, f)),
                          (_d4, ("X", e, f, g)), (_d5, (e, f)), (_d6, (loop(loop(e)),))]:
            assert_once(derive(rule, *ops), (rule.__name__, pretty(e)))
    for _ in range(40):
        e = random_expr(rng, rng.randint(1, 8))
        f = rng.choice([Sum(e, e), Sum(e, NIL), Sum(NIL, e)])
        d = prove_congruent(e, f)
        assert check(d) is None and d.conclusion == (e, f)
        assert_once(d, pretty(e))
