import random
import sys
from itertools import permutations

import pytest

import dpbc.ses as ses
from dpbc.syntax import (
    Action,
    Expr,
    NIL,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    compose_sum,
    free_vars,
    loop,
    parse,
    pretty,
    substitute,
)
from dpbc.kernel import SCHEMA_PARAMS, AxiomStep
from dpbc.proof import (
    Builder, ProofError, check, format_derivation, parse_derivation)
from dpbc.standardize import NotGuarded
from dpbc.ses import (
    SesSystem,
    bottom_variables,
    derivatives,
    formal_classes,
    prove_congruent,
    _extract_into,
    _live,
    _promote,
    _Quotient,
    _solve_any,
)
from dpbc.equiv import RootedCheck, equivalent, rooted_check
from dpbc.semantics import DEFAULT_BUDGET, BudgetExceeded, Lts, build_lts, exposes, step

from genexpr import (
    ACTIONS, all_terms, benchmark_gen, derive, random_expr, random_guarded_expr, random_ses_equations,
    replace_at, subterm_paths)


def _check_family(system, sols, ders):
    assert len(set(sols.values())) == len(system.formals)  # one formal per state
    for x in system.formals:
        d = ders[x]
        assert check(d) is None, (x, check(d))
        lhs, rhs = d.conclusion
        assert lhs == sols[x]
        assert rhs == substitute(system.rhs[x], sols)
        # the equation lists the state's moves, but a silent step to
        # itself, which makes it a loop, and its exposed variables; the
        # system's transition system has exactly the state's moves
        i = system.formals.index(x)
        moves = set(step(sols[x]))
        assert isinstance(system.rhs[x], Rec) == ((TAU, sols[x]) in moves)
        assert {(a, sols[system.formals[j]]) for a, j in system.lts.succ(i)} == moves
        assert system.lts.exposure[i] == exposes(sols[x])


def test_extract_prefix_chain():
    b = Builder()
    order, rhs, sols, ders = _extract_into(b, (parse("a.b.0"),))
    s = SesSystem.from_equations(order, rhs)
    assert len(s.formals) == 3
    shapes = [pretty(s.rhs[x]) for x in s.formals]
    assert shapes == ["a._X1", "b._X2", "0"]
    assert order[0] == "_X0"
    assert sols[order[0]] == parse("a.b.0")
    _check_family(s, sols, {x: b.finalize(ders[x]) for x in order})


def test_extract_loop():
    b = Builder()
    order, rhs, sols, ders = _extract_into(b, (parse("tau* a.0"),))
    s = SesSystem.from_equations(order, rhs)
    assert s.rhs[order[0]] == loop(parse(f"a.{order[1]}"))
    assert s.lts.transitions == ((0, TAU, 0), (0, Action("a"), 1))
    _check_family(s, sols, {x: b.finalize(ders[x]) for x in order})


def test_extract_nil():
    b = Builder()
    order, rhs, sols, ders = _extract_into(b, (NIL,))
    s = SesSystem.from_equations(order, rhs)
    assert [pretty(s.rhs[x]) for x in s.formals] == ["0"]
    _check_family(s, sols, {x: b.finalize(ders[x]) for x in order})


def test_extract_requires_guarded():
    # the state steps silently to itself, and it is no loop
    with pytest.raises(ProofError, match="no loop"):
        _extract_into(Builder(), (parse("rec X. tau.X"),))


def test_solve_two_state_system():
    b = Builder()
    sols, ders = _solve_any(b, ("X", "Y"), {"X": parse("a.Y"), "Y": parse("b.X")})
    lts = build_lts(sols["X"])
    assert lts.n_states == 2
    assert [(a.name) for _, a, _ in lts.transitions] == ["a", "b"]
    for idx in ders.values():
        assert check(b.finalize(idx)) is None


def test_solve_trivial():
    sols, _ = _solve_any(Builder(), ("X",), {"X": NIL})
    assert sols["X"] == Rec("X", NIL)


def test_eq_system_rejects_malformed_formals():
    # real exceptions, not asserts: `python -O` must not let these through
    with pytest.raises(ValueError, match="duplicate"):
        SesSystem.from_equations(("X", "X"), {"X": NIL})
    with pytest.raises(ValueError, match="differ"):
        SesSystem.from_equations(("X",), {"X": NIL, "Y": NIL})


def test_ses_system_rejects_non_standard_equations():
    for text in ("a.b.X", "X", "a.W", "rec Z. a.Z", "a.X + tau.(X + Y)"):
        with pytest.raises(ValueError, match="non-standard"):
            SesSystem.from_equations(("X", "Y"), {"X": parse(text), "Y": NIL})
    with pytest.raises(NotGuarded):
        SesSystem.from_equations(("X", "Y"), {"X": parse("tau.Y"), "Y": parse("tau.X")})
    with pytest.raises(NotGuarded):
        SesSystem.from_equations(("X",), {"X": loop(parse("tau.X"))})


def test_eq_system_guardedness_needs_no_recursion():
    # a 3,000-formal silent chain, open and then closed into a cycle
    n = 3000
    formals = tuple(f"X{i}" for i in range(n))
    rhs = {x: Prefix(TAU, Var(y)) for x, y in zip(formals, formals[1:])}
    rhs[formals[-1]] = NIL
    assert SesSystem.from_equations(formals, rhs).is_guarded()
    rhs[formals[-1]] = Prefix(TAU, Var(formals[0]))
    with pytest.raises(NotGuarded):
        SesSystem.from_equations(formals, rhs)
    with pytest.raises(NotGuarded):
        SesSystem.from_equations(("X",), {"X": parse("tau.X")})
    assert SesSystem.from_equations(("X",), {"X": parse("a.X")}).is_guarded()


def _random_cyclic_equations(rng: random.Random, max_formals: int = 4):
    """Formals and right-hand sides drawn as `random_ses_equations` draws
    them, but a silent move may point to any formal, its own included,
    so many of the systems have an unguarded cycle."""
    n = rng.randint(1, max_formals)
    formals = [f"_S{i}" for i in range(n)]
    rhs = {}
    for x in formals:
        leaves = [Prefix(rng.choice(ACTIONS), Var(rng.choice(formals)))
                  for _ in range(rng.randint(0, 3))]
        leaves += [Var(rng.choice(["V", "W"])) for _ in range(rng.randint(0, 1))]
        body = compose_sum(leaves)
        rhs[x] = loop(body) if rng.random() < 0.4 else body
    return tuple(formals), rhs


def test_guardedness_matches_the_reference_cycle_check():
    # `is_guarded` reads the strongly connected components of the
    # unguarded-successor graph; the reference asks graphlib for a
    # topological order.  Self-loops (tau.X in X's own equation) and loop
    # equations are among the draws
    from oracles import reference_is_guarded

    rng = random.Random(32)
    seen = {True: 0, False: 0}
    self_loops = loops = longer = 0
    for _ in range(2000):
        formals, rhs = _random_cyclic_equations(rng)
        lts = Lts(formals, (), (frozenset(),) * len(formals), 0)
        system = SesSystem(formals, rhs, lts)  # the constructor checks no guardedness
        successors = {x: system.unguarded_successors(x) for x in formals}
        got = system.is_guarded()
        assert got == reference_is_guarded(successors), rhs
        seen[got] += 1
        own = any(x in successors[x] for x in formals)
        self_loops += own
        longer += not (got or own)  # a cycle through two or more formals
        loops += any(isinstance(e, Rec) for e in rhs.values())
    assert min(seen.values()) > 400 and self_loops > 200 and loops > 400, (
        seen, self_loops, loops)
    assert longer > 20, longer


def test_ses_semantics_and_classes():
    s = SesSystem.from_equations(
        ("X", "Y"), {"X": parse("a.X"), "Y": parse("a.Y")})
    part = formal_classes(s)
    assert part.same(0, 1)
    s2 = SesSystem.from_equations(
        ("X", "Y"), {"X": parse("a.X"), "Y": parse("b.Y")})
    assert not formal_classes(s2).same(0, 1)
    single = SesSystem.from_equations(("X",), {"X": parse("a.X")})
    assert formal_classes(single).n_classes >= 1


def test_ses_semantics_against_solutions():
    rng = random.Random(51)
    for _ in range(30):
        formals, rhs = random_ses_equations(rng, 3)
        try:
            s = SesSystem.from_equations(formals, rhs)
        except (ValueError, NotGuarded):
            continue
        part = formal_classes(s)
        assert s.lts.states == tuple(formals)
        sols, _ = _solve_any(Builder(), s.formals, s.rhs)
        for i, x in enumerate(formals):
            for j, y in enumerate(formals):
                assert part.same(i, j) == equivalent(sols[x], sols[y], "dpbb")


def test_bottoms_spec_example():
    s = SesSystem.from_equations(
        ("X", "Y", "Z"),
        {"X": parse("tau.Y + a.Z"), "Y": parse("a.Z"), "Z": NIL})
    part = formal_classes(s)
    assert part.same(0, 1) and not part.same(0, 2)
    bots = bottom_variables(s, part)
    cls_x = part.class_of[0]
    assert bots[cls_x] == "Y"


def test_bottoms_singleton_and_loop():
    s = SesSystem.from_equations(("X",), {"X": parse("a.X")})
    part = formal_classes(s)
    assert bottom_variables(s, part) == {part.class_of[0]: "X"}
    s2 = SesSystem.from_equations(
        ("X", "Z"), {"X": loop(parse("a.Z")), "Z": NIL})
    part2 = formal_classes(s2)
    bots2 = bottom_variables(s2, part2)
    # the loop's own silent step binds its binder, not a formal
    assert bots2[part2.class_of[0]] == "X"


def test_derivatives_examples():
    s = SesSystem.from_equations(
        ("X", "Y", "Z"),
        {"X": parse("tau.Y + a.Z"), "Y": parse("a.Z"), "Z": NIL})
    part = formal_classes(s)
    assert derivatives(s, part, "X") == (parse("tau.Y"), parse("a.Z"))
    # a bottom variable has an empty stuttering derivative
    assert derivatives(s, part, "Y") == (NIL, parse("a.Z"))
    # exposed non-formals land in the non-stuttering derivative
    s2 = SesSystem.from_equations(("X",), {"X": parse("W + a.X")})
    assert derivatives(s2, formal_classes(s2), "X") == (NIL, parse("a.X + W"))
    # a loop's own silent step is in neither sum
    s3 = SesSystem.from_equations(
        ("X", "Z"), {"X": loop(parse("tau.Z + a.Z")), "Z": NIL})
    assert (0, TAU, 0) in s3.lts.transitions
    assert derivatives(s3, formal_classes(s3), "X") == (NIL, parse("tau.Z + a.Z"))


def test_quotient_two_equal_loops():
    s = SesSystem.from_equations(
        ("X", "Y"), {"X": parse("a.X"), "Y": parse("a.Y")})
    q = _Quotient(s, Builder())
    common = q.common_solutions()
    assert len(q.quot_formals) == 1
    assert {x: q.bottoms[q.cls[x]] for x in s.formals} == {"X": "X", "Y": "X"}
    assert common["X"][0] == common["Y"][0]
    for sol, idx in common.values():
        assert check(q.b.finalize(idx)) is None


def test_quotient_loop_class():
    s = SesSystem.from_equations(
        ("X", "Y"),
        {"X": loop(parse("a.X")), "Y": loop(parse("a.Y"))})
    q = _Quotient(s, Builder())
    common = q.common_solutions()
    assert common["X"][0] == common["Y"][0]
    for sol, idx in common.values():
        assert check(q.b.finalize(idx)) is None


def test_quotient_singleton_classes():
    s = SesSystem.from_equations(
        ("X", "Y"), {"X": parse("a.Y"), "Y": parse("b.X")})
    q = _Quotient(s, Builder())
    common = q.common_solutions()
    assert len(q.quot_formals) == 2
    assert {x: q.bottoms[q.cls[x]] for x in s.formals} == {"X": "X", "Y": "Y"}
    for sol, idx in common.values():
        assert check(q.b.finalize(idx)) is None


def test_quotient_random_contract():
    rng = random.Random(52)
    for _ in range(60):
        formals, rhs = random_ses_equations(rng)
        try:
            s = SesSystem.from_equations(formals, rhs)
        except (ValueError, NotGuarded):
            continue
        q = _Quotient(s, Builder())
        common = q.common_solutions()
        for x in formals:
            sol, idx = common[x]
            d = q.b.finalize(idx)
            assert check(d) is None
            assert d.conclusion[0] == sol
            # the conclusion closes the silently-prefixed equation
            taus = {y: common[y][0] for y in formals}
            assert d.conclusion[1] == substitute(Prefix(TAU, s.rhs[x]), taus)
        for x in formals:
            for y in formals:
                if q.cls[x] == q.cls[y]:
                    assert common[x][0] == common[y][0]


def test_derivative_splits_rebuild_equation():
    # the filled equation equals stutter + rest up to sum laws
    from dpbc.syntax import canon_leaves, flatten_sum

    rng = random.Random(53)
    for _ in range(40):
        formals, rhs = random_ses_equations(rng)
        try:
            s = SesSystem.from_equations(formals, rhs)
        except (ValueError, NotGuarded):
            continue
        part = formal_classes(s)
        for x in formals:
            body = s.rhs[x].body.right if isinstance(s.rhs[x], Rec) else s.rhs[x]
            merged = Sum(*derivatives(s, part, x))
            assert canon_leaves(flatten_sum(body)) == canon_leaves(flatten_sum(merged))


def test_derivative_clause_derivations_check():
    # the split / stutter-collapse / self-absorption equations used by the
    # quotient are themselves checkable derivations
    rng = random.Random(57)
    checked = 0
    while checked < 20:
        formals, rhs = random_ses_equations(rng)
        try:
            s = SesSystem.from_equations(formals, rhs)
        except (ValueError, NotGuarded):
            continue
        q = _Quotient(s, Builder())
        for x in formals:
            d = q.b.finalize(q.clause_split(x))
            assert check(d) is None
            assert d.conclusion[0] == q.fillb(x)
            d2 = q.b.finalize(q.clause_absorb(x))
            assert check(d2) is None
            lhs, rhs2 = d2.conclusion
            assert lhs == q.fillb(x) and rhs2 == Sum(q.fillb(x), q.filled(x)[1])
            if any(q.cls[y] == q.cls[x] for y in s.unguarded_successors(x)):
                d3 = q.b.finalize(q.clause_stutter(x))
                assert check(d3) is None
                assert d3.conclusion[1] == Prefix(TAU, q.bsol[q.cls[x]])
        checked += 1


def test_bottom_variable_summand_subset():
    # for a bottom variable, the filled non-stuttering summands of any
    # equivalent formal are already among its own
    from dpbc.syntax import canon_leaves, flatten_sum

    rng = random.Random(56)
    checked = 0
    while checked < 25:
        formals, rhs = random_ses_equations(rng)
        try:
            s = SesSystem.from_equations(formals, rhs)
        except (ValueError, NotGuarded):
            continue
        q = _Quotient(s, Builder())
        for x in formals:
            xi = q.bottoms[q.cls[x]]
            if x == xi:
                continue
            _, f1x = q.filled(x)
            _, f1i = q.filled(xi)
            got = set(canon_leaves(flatten_sum(f1x)))
            ref = set(canon_leaves(flatten_sum(f1i)))
            assert got <= ref, (x, xi)
            checked += 1


def test_promote_examples():
    d = derive(_promote, parse("a.0"), parse("a.0 + a.0"))
    assert check(d) is None
    assert d.conclusion == (parse("tau.a.0"), parse("tau.(a.0 + a.0)"))
    d2 = derive(_promote, parse("a.0"), parse("a.0"))
    assert check(d2) is None
    # the two roots fall into different classes of the joint system
    with pytest.raises(ProofError, match="not equivalent"):
        _promote(Builder(), parse("rec X. a.X"), parse("b.0"))


def test_live_formals_follow_the_free_formals():
    order = ["A", "B", "C", "D", "E", "F"]
    rhs = {
        "A": parse("a.B + W"),  # W is not a formal
        "B": parse("b.A + c.C"),  # a cycle with A
        "C": parse("c.C"),  # a self-loop
        "D": parse("d.E"),  # D -> E -> F is unreachable from A
        "E": parse("rec A. e.(A + F)"),  # A is bound here
        "F": parse("f.A"),
    }
    assert _live(order, rhs, ("A",)) == ["A", "B", "C"]
    assert _live(order, rhs, ("C",)) == ["C"]
    assert _live(order, rhs, ("E",)) == ["A", "B", "C", "E", "F"]
    assert _live(order, rhs, ("F", "D")) == order
    assert _live(order, rhs, ()) == []


def _reach(rhs, roots):
    seen, todo = set(), list(roots)
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.extend(free_vars(rhs[x]) & set(rhs))
    return seen


def test_promote_proves_only_the_live_equations(monkeypatch):
    # one formal per state the two roots reach; each uniqueness proof
    # eliminates only its own root's cone
    e, f = parse("a.(b.0 + c.0)"), parse("a.(c.0 + b.0)")
    extracted, quotiented, unique = [], [], []

    extract = ses._extract_into

    def spy_extract(b, roots):
        out = extract(b, roots)
        extracted.append((roots, out))
        return out

    class SpyQuotient(ses._Quotient):
        def __init__(self, s, b):
            quotiented.append(s)
            super().__init__(s, b)

    prove_unique = ses._prove_unique

    def spy_unique(b, order, rhs, *rest):
        target, closed = rest[-1], []
        axiom = b.axiom

        def spy_axiom(name, meta, extra=(), premise=None):
            if name == "R2":
                closed.append(dict(extra)["X"])
            return axiom(name, meta, extra, premise)

        b.axiom = spy_axiom
        out = prove_unique(b, order, rhs, *rest)
        del b.axiom
        unique.append((target, _reach(rhs, (target,)), set(closed), set(order)))
        return out

    monkeypatch.setattr(ses, "_extract_into", spy_extract)
    monkeypatch.setattr(ses, "_Quotient", SpyQuotient)
    monkeypatch.setattr(ses, "_prove_unique", spy_unique)
    d = derive(ses._promote, e, f)

    ((roots, (order, rhs, sols, _)),) = extracted
    assert roots == (e, f)
    r1, r2 = order[:2]
    assert (sols[r1], sols[r2]) == (e, f)
    states = set(build_lts(e).states) | set(build_lts(f).states)
    (s,) = quotiented
    assert s.formals == tuple(order)
    assert {sols[x] for x in s.formals} == states and len(s.formals) == len(states)
    assert [target for target, *_ in unique] == [r1, r2]
    for target, cone, closed, given in unique:
        assert given == set(order)
        assert target in closed and closed <= cone < given
    again = parse_derivation(format_derivation(d))
    assert check(again) is None
    assert again.conclusion == (Prefix(TAU, e), Prefix(TAU, f))


def test_prove_congruent_examples():
    d = prove_congruent(parse("a.tau.b.0"), parse("a.b.0"))
    assert check(d) is None
    r = prove_congruent(parse("a.0"), parse("tau.a.0"))
    assert isinstance(r, RootedCheck) and not r.equal
    d2 = prove_congruent(parse("a.0"), parse("a.0"))
    assert len(d2) == 1 and check(d2) is None
    # the axiom the paper drops: these differ only in divergence, so they
    # are branching-equivalent but neither dpbb-equivalent nor congruent
    diverging, silent = parse("a.rec X.(tau.X + b.0)"), parse("a.tau.b.0")
    assert equivalent(diverging, silent, "branching")
    assert not equivalent(diverging, silent, "dpbb")
    for left, right in ((diverging, silent), (silent, diverging)):
        r = prove_congruent(left, right)
        assert isinstance(r, RootedCheck) and not r.equal and r.clause == "forth"


# drawn by perfbench/gen.py as prove_pair(random.Random("t:taupad:32:2"),
# "taupad", 32, (2, 2)): two nested recursions whose syntax-shaped
# equation systems, once eliminated, held contexts some 400 levels deep
_TAUPAD_LEFT = ("(rec X0. (rec X1. 0 + (a.(c.(0 + 0) + tau.X1) + a.a.(a.(c.tau.X0"
                " + tau* b.X1) + ((X1 + 0) + (b.X1 + 0))))) + tau.a.((X0 + tau* 0)"
                " + b.a.(X0 + X0)))")
_TAUPAD_RIGHT = _TAUPAD_LEFT.replace("b.a.(X0 + X0)", "b.a.tau.(X0 + X0)")


def test_prove_congruent_nested_recursions_at_default_recursion_limit():
    e, f = parse(_TAUPAD_LEFT), parse(_TAUPAD_RIGHT)
    assert e != f
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        d = prove_congruent(e, f)
    finally:
        sys.setrecursionlimit(limit)
    again = parse_derivation(format_derivation(d))
    assert check(again) is None
    assert again.conclusion == (e, f)


def test_roundtrip_solutions_unique_up_to_provability():
    # two independent solves of one system are provably equal
    rng = random.Random(54)
    done = 0
    while done < 15:
        e = random_guarded_expr(rng, rng.randint(2, 8))
        order, rhs, _, _ = _extract_into(Builder(), (e,))
        s = SesSystem.from_equations(order, rhs)
        if len(s.formals) < 2:
            continue
        root = order[0]
        sol1 = _solve_any(Builder(), s.formals, s.rhs)[0][root]
        reordered = SesSystem.from_equations(
            tuple(reversed(s.formals)), s.rhs)
        sol2 = _solve_any(Builder(), reordered.formals, reordered.rhs)[0][root]
        d = prove_congruent(sol1, sol2)
        assert not isinstance(d, RootedCheck)
        assert check(d) is None
        done += 1


def test_completeness_matches_rooted_equivalence():
    rng = random.Random(55)
    for _ in range(60):
        e = random_expr(rng, rng.randint(1, 10))
        f = random_expr(rng, rng.randint(1, 10)) if rng.random() < 0.6 else Sum(e, e)
        r = prove_congruent(e, f)
        if isinstance(r, RootedCheck):
            assert not rooted_check(e, f).equal
        else:
            assert rooted_check(e, f).equal
            assert check(r) is None
            assert r.conclusion == (e, f)


@pytest.mark.parametrize("max_nodes, leaves, free", [
    (5, (NIL, Var("X"), Var("Y")), frozenset()),
    (4, (NIL, Var("X"), Var("Y"), Var("Z")), frozenset({"Z"})),
])
def test_completeness_on_every_small_term(max_nodes, leaves, free):
    # bounded-exhaustive: every term up to the size whose free names lie
    # in `free`, grouped into rooted-congruence classes; each member
    # proves against its class's first member, and no two classes prove.
    # Every axiom instance those proofs use between closed terms is sound
    terms = [e for e in all_terms(max_nodes, leaves) if free_vars(e) <= free]
    instances = set()
    classes = []
    for e in terms:
        for members in classes:
            if rooted_check(e, members[0]).equal:
                members.append(e)
                break
        else:
            classes.append([e])
    for first, *rest in classes:
        for e in rest:
            d = prove_congruent(e, first)
            assert not isinstance(d, RootedCheck), (pretty(e), pretty(first))
            d = parse_derivation(format_derivation(d))
            assert check(d) is None, (pretty(e), pretty(first))
            assert d.conclusion == (e, first)
            instances.update((st.lhs, st.rhs) for st in d.steps
                             if isinstance(st.just, AxiomStep)
                             and not free_vars(st.lhs) | free_vars(st.rhs))
    assert instances
    for lhs, rhs in instances:
        assert rooted_check(lhs, rhs).equal, (pretty(lhs), pretty(rhs))
    for (first, *_), (other, *_) in permutations(classes, 2):
        assert isinstance(prove_congruent(first, other), RootedCheck)


# --- the walk to where the sides differ, and the root route ------------------------


def _round_trip(d, e, f):
    again = parse_derivation(format_derivation(d))
    assert check(again) is None, (pretty(e), pretty(f))
    assert again.conclusion == (e, f)
    return again


# pairs shaped like those of perfbench/gen.py `prove_ops`, by congruent
# family, and one that the walk leaves to the root route
_BENCHMARK_SHAPED = [
    ("(rec X0. a.tau.(tau.0 + ((0 + X0) + c.0)))",
     "(rec X0. a.tau.tau.(tau.0 + ((0 + X0) + c.0)))"),  # taupad
    ("c.((rec X0. b.X0) + (b.(0 + 0) + 0))",
     "c.((rec X0. b.X0) + (b.tau.(0 + 0) + 0))"),  # taupad
    ("b.tau.(c.0 + tau* a.0)", "b.(c.0 + tau* a.0)"),  # atau
    ("(a.0 + tau.b.0) + (a.0 + tau.b.0)", "a.0 + tau.b.0"),  # idem
    ("tau* b.0 + 0", "tau* b.0"),  # zero
    ("tau* tau* (b.0 + (rec X0. a.X0))", "tau* (b.0 + (rec X0. a.X0))"),  # looploop
    ("rec X. a.X", "rec X. a.a.X"),
]


def test_root_route_meets_a_side_with_itself_in_one_step():
    # S1-S4 prove e = e by reflexivity alone
    for text in ("a.0", "a.0 + b.0", "rec X. a.X + tau.X", "tau* (X + 0)"):
        e = parse(text)
        d = derive(ses._route, e, e, DEFAULT_BUDGET)
        assert d.conclusion == (e, e) and len(d.steps) == 1 and check(d) is None


def test_root_route_proves_the_pinned_and_benchmark_pairs():
    # `_route` is what the walk falls back to, and what it runs where the
    # sides differ.  Run on its own on these pairs, it reaches every
    # axiom schema, uniqueness of solutions (R2), equality (3) of the
    # quotient, D3-D5 and the substitution lifts
    from test_proof import _PINNED, _PINNED_FILES

    pairs = [p for p in (*_PINNED, *_PINNED_FILES) if len(p) == 2]
    reached = set()
    for left, right in pairs + _BENCHMARK_SHAPED:
        e, f = parse(left), parse(right)
        b = Builder()
        d = _round_trip(b.finalize(ses._route(b, e, f, DEFAULT_BUDGET)), e, f)
        reached.update(st.just.axiom for st in d.steps if isinstance(st.just, AxiomStep))
    assert reached == set(SCHEMA_PARAMS)


def _rooted_failures(monkeypatch):
    """The pairs on which `ses.rooted_check` fails, from now on."""
    failed = []
    real = ses.rooted_check

    def counted(e, f, budget=DEFAULT_BUDGET):
        rc = real(e, f, budget)
        if not rc.equal:
            failed.append((e, f))
        return rc

    monkeypatch.setattr(ses, "rooted_check", counted)
    return failed


def _variant_pair(rng, e):
    """Two sides built from e: congruent by one law, or drawn apart."""
    a = rng.choice(ACTIONS)
    pairs = [(e, Sum(e, e)), (Sum(e, NIL), e), (loop(loop(e)), loop(e)),
             (Prefix(a, Prefix(TAU, e)), Prefix(a, e)),
             (Prefix(a, Prefix(TAU, Prefix(TAU, e))), Prefix(a, e)),
             (e, loop(e)), (e, random_expr(rng, rng.randint(1, 4), ["X", "Y"]))]
    left, right = rng.choice(pairs)
    return (left, right) if rng.random() < 0.5 else (right, left)


def test_walk_proves_exactly_the_rooted_pairs(monkeypatch):
    # C[E] against C[F] for small E and F, in contexts that may sit
    # under a recursion binding a free name of E, or under two that
    # differ only in their binder: `prove_congruent` proves exactly the
    # rooted pairs, and at most one rooted check fails per proof
    failed = _rooted_failures(monkeypatch)
    rng = random.Random(61)
    proved = fell_back = 0
    for _ in range(400):
        e, f = _variant_pair(rng, random_expr(rng, rng.randint(1, 4), ["X", "Y"]))
        c = random_expr(rng, rng.randint(1, 6), ["X", "Y"])
        path = rng.choice(list(subterm_paths(c)))
        left, right = replace_at(c, path, e), replace_at(c, path, f)
        roll = rng.random()
        if roll < 0.3:
            left, right = Rec("X", left), Rec("X", right)
        elif roll < 0.6 and "Z" not in free_vars(right):
            left, right = Rec("X", left), Rec("Z", substitute(right, {"X": Var("Z")}))
        del failed[:]
        result = prove_congruent(left, right)
        assert len(failed) <= 1, [(pretty(l), pretty(r)) for l, r in failed]
        rooted = rooted_check(left, right).equal
        assert isinstance(result, RootedCheck) != rooted, (pretty(left), pretty(right))
        if rooted:
            _round_trip(result, left, right)
            proved += 1
            fell_back += bool(failed)
    # both the walk and the fallback to the root route were taken
    assert proved > 150 and 0 < fell_back < proved / 4


def _tree(n: int, seed: int, binder: str, pad=None) -> Expr:
    """A rooted tree of n nodes, a binary heap, over visible actions,
    with a visible back edge from about a third of the nodes to an
    ancestor; the recursion of node i binds binder + str(i).  `pad`
    puts a silent step on the edge into that node."""
    rng = random.Random(seed)
    acts = [Action(rng.choice("abc")) for _ in range(n)]
    back = {}
    for i in range(n):
        if rng.random() < 0.35:
            anc = [i]
            while anc[-1] > 0:
                anc.append((anc[-1] - 1) // 2)
            back[i] = (Action(rng.choice("abc")), rng.choice(anc))
    referenced = {j for _, j in back.values()}

    def node(i):
        items = []
        for c in (2 * i + 1, 2 * i + 2):
            if c < n:
                body = node(c)
                items.append(Prefix(acts[c], Prefix(TAU, body) if c == pad else body))
        if i in back:
            items.append(Prefix(back[i][0], Var(f"{binder}{back[i][1]}")))
        t = compose_sum(items) if items else NIL
        return Rec(f"{binder}{i}", t) if i in referenced else t

    return node(0)


@pytest.mark.parametrize("seed", [0, 1])
def test_walk_proves_a_large_tree_in_few_steps(monkeypatch, seed):
    # a 200-node tree against the same tree with one silent step padded
    # in deep down, and against its alpha-variant: the walk goes down to
    # the padded edge and closes it by T1, and renames each recursion by
    # R0, without a failing rooted check; the root route would take
    # tens of thousands of steps
    failed = _rooted_failures(monkeypatch)
    base = _tree(200, seed, "X")
    for variant, most in ((_tree(200, seed, "X", pad=150), 40),
                          (_tree(200, seed, "Y"), 400)):
        d = _round_trip(prove_congruent(base, variant), base, variant)
        assert len(d.steps) <= most
    assert failed == []


# --- prove first, and decide only where the walk has to route ----------------------


def _rooted_calls(monkeypatch):
    """(pair, verdict) of each `ses.rooted_check` call, from now on."""
    calls = []
    real = ses.rooted_check

    def counted(e, f, budget=DEFAULT_BUDGET):
        rc = real(e, f, budget)
        calls.append(((e, f), rc.equal))
        return rc

    monkeypatch.setattr(ses, "rooted_check", counted)
    return calls


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_prover_checks_only_the_pairs_the_laws_leave_open(monkeypatch, seed):
    # the axioms are sound, so a pair that the walk closes by its laws
    # needs no rooted check, and one it cannot close is checked once, at
    # the root; a check handed in by the caller is not made again, and
    # the certificate is the same either way
    ops = benchmark_gen().prove_ops(seed, 4)
    pairs = [(parse(op["left"]), parse(op["right"]), op["expect"]) for op in ops]
    assert {expect for _, _, expect in pairs} == {True, False}
    calls = _rooted_calls(monkeypatch)
    for e, f, expect in pairs:
        del calls[:]
        result = prove_congruent(e, f)
        if expect:
            assert calls == [], (pretty(e), pretty(f))
            handed = rooted_check(e, f)
            del calls[:]
            again = prove_congruent(e, f, DEFAULT_BUDGET, handed)
            assert calls == []
            assert format_derivation(again) == format_derivation(result)
        else:
            assert calls == [((e, f), False)], (pretty(e), pretty(f))
            assert result == rooted_check(e, f)
            del calls[:]
            assert prove_congruent(e, f, DEFAULT_BUDGET, result) is result
            assert calls == []


def test_a_pair_that_takes_the_root_route_is_checked_at_the_root_first(monkeypatch):
    # the walk meets `Y` against `a.Y`, which no law closes: the root is
    # checked and holds, then the same walk decides that pair, which
    # fails, so the whole pair takes the root route
    e, f = parse("rec X. a.X"), parse("rec Y. a.a.Y")
    calls = _rooted_calls(monkeypatch)
    d = _round_trip(prove_congruent(e, f), e, f)
    inner = (parse("Y"), parse("a.Y"))
    assert calls == [((e, f), True), (inner, False)]
    del calls[:]
    again = prove_congruent(e, f, DEFAULT_BUDGET, rooted_check(e, f))
    assert calls == [(inner, False)]
    assert format_derivation(again) == format_derivation(d)


def test_each_proof_walks_once(monkeypatch):
    # the walk checks the root itself when it first needs the check, so a
    # pair is walked once, whether the caller hands the check in or not
    pairs = [(parse(op["left"]), parse(op["right"]))
             for seed in (1, 7, 11) for op in benchmark_gen().prove_ops(seed, 4)]
    pairs.append((parse("rec X. a.X"), parse("rec Y. a.a.Y")))
    walks, real = [], ses._walk

    def counted(b, e, f, *args):
        walks.append((e, f))
        return real(b, e, f, *args)

    monkeypatch.setattr(ses, "_walk", counted)
    for e, f in pairs:
        for rc in (None, rooted_check(e, f)):
            if rc is not None and not rc.equal:
                continue  # a failing check handed in builds nothing
            del walks[:]
            prove_congruent(e, f, DEFAULT_BUDGET, rc)
            assert walks == [(e, f)], (pretty(e), pretty(f), rc)


def test_budget_bounds_only_the_pairs_that_are_checked():
    # a pair that T1 closes explores no state, so no budget is met
    d = prove_congruent(parse("a.tau.b.0"), parse("a.b.0"), budget=1)
    assert check(d) is None
    assert d.conclusion == (parse("a.tau.b.0"), parse("a.b.0"))
    # the root route needs the rooted check, which explores under the
    # budget; `dpbc prove` checks first, so there `--budget 1` exits 2
    # even on the first pair (test_cli.py,
    # test_each_command_loads_only_its_layers)
    with pytest.raises(BudgetExceeded):
        prove_congruent(parse("rec X. a.X"), parse("rec Y. a.a.Y"), budget=1)


def test_deep_chains_are_walked_at_the_default_recursion_limit():
    # the walk keeps its own stack: a congruent chain is proved by one
    # lift per level, and an incongruent one gets the rooted check's value
    chain = "a." * 3000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        d = prove_congruent(parse(chain + "0"), parse(chain + "(0 + 0)"))
        e, f = parse(chain + "b.0"), parse(chain + "c.0")
        refused = prove_congruent(e, f)
    finally:
        sys.setrecursionlimit(limit)
    assert d.conclusion == (parse(chain + "0"), parse(chain + "(0 + 0)"))
    assert len(d.steps) == 3002 and check(d) is None
    assert isinstance(refused, RootedCheck) and not refused.equal
    assert refused == rooted_check(e, f)
