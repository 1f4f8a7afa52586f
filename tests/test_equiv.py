import hashlib
import random

import pytest

from dpbc import equiv
from dpbc.syntax import NIL, Action, Prefix, Sum, TAU, Var, parse, pretty
from dpbc.semantics import Lts, build_lts, format_aut, union_lts, _can_reach_tau_cycle
from dpbc.equiv import (
    Partition,
    RootedCheck,
    bisimilarity,
    brute_oracle,
    equivalent,
    rooted_check,
)

from genexpr import all_terms, benchmark_gen, random_expr, random_lts, silently_exposes
from oracles import (
    PairRelation, full_relation, functional_B, functional_Bd, functional_Bp,
    functional_S, identity_relation, pairs, round_bisimilarity)

DIVERGENT_PAIR = (parse("rec X.(tau.X + a.0)"), parse("tau.a.0"))


def test_divergence_clause_separates_the_motivating_pair():
    e, f = DIVERGENT_PAIR
    joint, re_, rf = union_lts(build_lts(e), build_lts(f))
    r = full_relation(joint)
    # the divergent loop cannot be matched by a state without silent
    # successors, even under the full relation
    dead = next(
        i for i, s in enumerate(joint.states)
        if s[0] == "R" and not joint.tau_succ(i))
    assert (re_, dead) in functional_B(r).pairs
    assert (re_, dead) not in functional_Bd(r).pairs
    # against tau.a.0 the mismatch only appears during the iteration
    assert (re_, rf) in functional_B(r).pairs
    part = bisimilarity(joint, "dpbb")
    assert not part.same(re_, rf)


def test_identity_is_contained_in_branching_image():
    lts = random_lts(random.Random(21), 6)
    ident = identity_relation(lts)
    assert ident.pairs <= functional_B(ident).pairs
    assert ident.pairs <= functional_Bd(ident).pairs


def test_empty_relation_trivially_post_fixed():
    lts = random_lts(random.Random(22), 5)
    empty = PairRelation(lts, frozenset())
    assert empty.pairs <= functional_S(empty).pairs


def test_bisimilarity_motivating_examples():
    e, f = DIVERGENT_PAIR
    assert equivalent(e, f, "branching")
    assert not equivalent(e, f, "dpbb")


def test_branching_axiom_validity():
    e, f = parse("a.0"), parse("b.0")
    assert equivalent(Sum(Prefix(TAU, Sum(e, f)), f), Sum(e, f), "dpbb")


def test_rooted_examples():
    assert equivalent(parse("a.0"), parse("tau.a.0"), "dpbb")
    rc = rooted_check(parse("a.0"), parse("tau.a.0"))
    assert not rc.equal and rc.clause in ("forth", "back")
    assert not equivalent(parse("a.0 + b.0"), parse("tau.a.0 + b.0"), "dpbb")
    e = parse("rec X.(a.X + b.0)")
    assert rooted_check(e, e).equal
    assert rooted_check(parse("a.tau.b.0"), parse("a.b.0")).equal


def test_equivalent_decides_rooted_congruence_too():
    assert equivalent(parse("a.tau.b.0"), parse("a.b.0"), "rooted")
    assert not equivalent(parse("a.0"), parse("tau.a.0"), "rooted")


@pytest.mark.parametrize("engine", [bisimilarity, brute_oracle])
def test_unknown_relation_kind_is_refused(engine):
    with pytest.raises(ValueError, match="^unknown relation kind 'rooted'$"):
        engine(build_lts(parse("a.0")), "rooted")


def test_rooted_exposure_clause():
    rc = rooted_check(parse("X + a.0"), parse("a.0"))
    assert not rc.equal and rc.clause == "exposure"


def test_brute_oracle_matches_engine():
    rng = random.Random(23)
    for _ in range(60):
        lts = random_lts(rng, 6)
        for kind in ("strong", "branching", "dpbb"):
            assert bisimilarity(lts, kind).class_of == brute_oracle(lts, kind).class_of


def test_brute_oracle_trivia():
    lts = random_lts(random.Random(1), 1)
    part = brute_oracle(lts, "strong")
    assert part.n_classes == 1
    joint, ra, rb = union_lts(build_lts(parse("a.0")), build_lts(parse("a.0")))
    for kind in ("strong", "branching", "dpbb"):
        assert bisimilarity(joint, kind).same(ra, rb)


def test_brute_oracle_rejects_large_inputs():
    rng = random.Random(3)
    big = None
    while big is None or big.n_states <= 8:
        big = random_lts(rng, 12)
    with pytest.raises(ValueError):
        brute_oracle(big, "strong")


def test_hierarchy_on_random_expressions():
    rng = random.Random(24)
    for _ in range(80):
        e = random_expr(rng, rng.randint(1, 8))
        f = random_expr(rng, rng.randint(1, 8))
        if equivalent(e, f, "strong"):
            assert equivalent(e, f, "dpbb")
        if equivalent(e, f, "dpbb"):
            assert equivalent(e, f, "branching")


def test_functional_inclusions():
    # the first inclusion holds on the pairs of the relation itself; the
    # stutter clause of the progressing functional re-checks membership
    rng = random.Random(25)
    for _ in range(60):
        lts = random_lts(rng, 6)
        n = lts.n_states
        pairs = frozenset(
            (i, j) for i in range(n) for j in range(n) if rng.random() < 0.5)
        r = PairRelation(lts, pairs)
        s = functional_S(r).pairs
        bp = functional_Bp(r).pairs
        bd = functional_Bd(r).pairs
        bb = functional_B(r).pairs
        assert (s & pairs) <= bp
        assert bp <= bd
        assert bd <= bb


def test_silent_exposure_agrees_within_dpbb():
    rng = random.Random(26)
    for _ in range(60):
        e = random_expr(rng, rng.randint(1, 8))
        f = random_expr(rng, rng.randint(1, 8))
        if equivalent(e, f, "dpbb"):
            for x in ("X", "Y"):
                assert silently_exposes(x, e) == silently_exposes(x, f)


def test_divergence_uniform_within_classes():
    rng = random.Random(27)
    for _ in range(50):
        lts = random_lts(rng, 6)
        part = bisimilarity(lts, "dpbb")
        for c in range(part.n_classes):
            members = [i for i in range(lts.n_states) if part.class_of[i] == c]
            inclass = _can_reach_tau_cycle(lts, members, allowed=members)
            flags = {m in inclass for m in members}
            assert flags == {c in part.diverging}


def _literal_greatest_fixpoint(lts, func):
    """R <- sym(R & F(R)) from the full relation, pair by pair."""
    r = full_relation(lts).pairs
    while True:
        kept = r & func(PairRelation(lts, r)).pairs
        nxt = frozenset((i, j) for (i, j) in kept if (j, i) in kept)
        if nxt == r:
            return r
        r = nxt


def test_engine_matches_literal_greatest_fixpoint():
    # systems of 9-14 states, past the reach of brute_oracle
    rng = random.Random(29)
    for _ in range(60):
        lts = random_lts(rng, 14)
        while lts.n_states < 9:
            lts = random_lts(rng, 14)
        for kind, func in (
            ("strong", functional_S),
            ("branching", functional_B),
            ("dpbb", functional_Bd),
        ):
            got = pairs(bisimilarity(lts, kind)).pairs
            assert got == _literal_greatest_fixpoint(lts, func), kind


def test_partition_is_stable_post_fixpoint():
    rng = random.Random(28)
    for _ in range(40):
        lts = random_lts(rng, 6)
        for kind, func in (
            ("strong", functional_S),
            ("branching", functional_B),
            ("dpbb", functional_Bd),
        ):
            part = bisimilarity(lts, kind)
            r = pairs(part)
            image = func(r).pairs
            stable = {(i, j) for (i, j) in (r.pairs & image) if (j, i) in r.pairs}
            assert stable == r.pairs


# --- the worklist engine against the round-based reference ------------------------


def _agree(lts, kind):
    got, want = bisimilarity(lts, kind), round_bisimilarity(lts, kind)
    assert got.class_of == want.class_of, kind
    assert got.diverging == want.diverging, kind


def test_engine_matches_rounds_on_decide_trees():
    # the joint systems of the decide benchmark: trees of about 40 states
    # a side with back edges, a silent pad, a silent loop or an exit
    gen = benchmark_gen()
    for seed in (1, 7, 11):
        for op in gen.decide_ops(seed, 4)[::4]:  # each base and variant once
            joint, _, _ = union_lts(build_lts(parse(op["left"])), build_lts(parse(op["right"])))
            for kind in ("strong", "branching", "dpbb"):
                _agree(joint, kind)


# --- closure states against term states -------------------------------------------


def _first_failure(joint, part, re_, rf):
    """The first root clause to fail on the terms' joint system, in the
    order of its moves, with its witness; (None, None) when none fails."""
    for clause, root, other in (("forth", re_, rf), ("back", rf, re_)):
        for a, t in joint.succ(root):
            if all(a2 != a or not part.same(t, t2) for a2, t2 in joint.succ(other)):
                return clause, (a, t)
    if joint.exposure[re_] != joint.exposure[rf]:
        return "exposure", joint.exposure[re_] ^ joint.exposure[rf]
    return None, None


def _decides_as_on_terms(e, f):
    # each verdict against the partition of the two terms' own systems,
    # and the witness against the first failing move there
    joint, re_, rf = union_lts(build_lts(e), build_lts(f))
    for kind in equiv.KINDS:
        assert equivalent(e, f, kind) == bisimilarity(joint, kind).same(re_, rf), (
            pretty(e), pretty(f), kind)
    part = bisimilarity(joint, "dpbb")
    clause, witness = _first_failure(joint, part, re_, rf)
    rc = rooted_check(e, f)
    assert (rc.equal, rc.clause) == (clause is None, clause), (pretty(e), pretty(f))
    if clause in ("forth", "back"):
        (a, t), (b, term) = witness, rc.witness
        assert a == b and term == joint.states[t][1], (pretty(e), pretty(f), pretty(term))
    else:
        assert rc.witness == witness, (pretty(e), pretty(f))


def test_closure_states_decide_as_term_states():
    rng = random.Random(33)
    x, y, z = Var("X"), Var("Y"), Var("Z")
    closed = [e for e in all_terms(5, (NIL, x, y)) if not e._free]
    for _ in range(1500):
        _decides_as_on_terms(rng.choice(closed), rng.choice(closed))
    # a free Z, which no recursion binds, and X and Y free or bound
    small = all_terms(4, (NIL, x, y, z))
    for _ in range(1000):
        _decides_as_on_terms(rng.choice(small), rng.choice(small))
    # shadowed binders, unguarded binders, a bound name exposed below the
    # root, loops, and two closures of one term (`rec X. a.a.X` under b,
    # and its derivative under c)
    texts = ["rec X. X", "rec X. (X + a.0)", "rec W. rec X. c.((rec W. b.X) + W)",
             "rec W. rec X. c.((rec W. b.X) + W) + 0", "rec X. rec Y. a.(X + Y)",
             "rec X. (Z + a.(X + b.0))", "rec Y. (Z + a.(Y + b.0 + Z))",
             "tau* tau* (a.0 + tau* Z)", "tau* a.tau* Z",
             "b.(rec X. a.a.X) + c.a.(rec X. a.a.X)",
             "b.(rec Y. a.a.Y) + c.a.a.(rec Y. a.a.Y)"]
    for left in texts:
        for right in texts:
            _decides_as_on_terms(parse(left), parse(right))
    gen = benchmark_gen()
    for seed in (1, 7, 11):
        for op in gen.decide_ops(seed, 4)[::4] + gen.prove_ops(seed, 4):
            _decides_as_on_terms(parse(op["left"]), parse(op["right"]))


def test_closure_states_are_not_terms():
    # the two copies of `rec X. a.a.X` are four closures but three terms,
    # and a state that both roots reach is one closure
    from dpbc.semantics import closure_lts
    e = parse("b.(rec X. a.a.X) + c.a.(rec X. a.a.X)")
    assert build_lts(e).n_states == 3
    lts, roots = closure_lts((e, e))
    assert lts.n_states == 4 and roots == [0, 0]
    assert rooted_check(e, parse("b.(rec Y. a.a.Y) + c.a.a.(rec Y. a.a.Y)")).equal


# SHA-256 of what the decide benchmark builds and checks for seeds 1 and 7
# (below), taken before the rooted check explained its failures on closure
# states, from the terms its systems then numbered
_DECIDE_DIGEST = "f1a8807e832c7d39aee68b7bf98c52d4047145676e68962b97cf6374cd38f3ac"


def test_decide_outputs_are_pinned():
    # both sides' systems in Aldebaran text, and the rooted check's clause
    # and witness; none depends on how strings hash
    gen = benchmark_gen()
    digest = hashlib.sha256()
    for seed in (1, 7):
        for op in gen.decide_ops(seed, 4):
            e, f = parse(op["left"]), parse(op["right"])
            digest.update(format_aut(build_lts(e)).encode())
            digest.update(format_aut(build_lts(f)).encode())
            rc = rooted_check(e, f)
            w = rc.witness
            w = sorted(w) if rc.clause == "exposure" else w and (w[0].name, pretty(w[1]))
            digest.update(repr((rc.clause, w)).encode())
    assert digest.hexdigest() == _DECIDE_DIGEST


def _random_cyclic_lts(rng, n):
    """n states, with silent cycles, silent self-loops and exposures."""
    acts = [TAU, TAU, Action("a"), Action("b")]
    trans = {(rng.randrange(n), rng.choice(acts), rng.randrange(n)) for _ in range(2 * n)}
    for _ in range(rng.randint(1, 4)):
        cycle = rng.sample(range(n), rng.randint(1, min(n, 5)))
        trans.update((s, TAU, t) for s, t in zip(cycle, cycle[1:] + cycle[:1]))
    exposure = tuple(frozenset(rng.sample(["X", "Y"], rng.choice((0, 0, 0, 1, 2))))
                     for _ in range(n))
    return Lts(tuple(range(n)), tuple(sorted(
        trans, key=lambda t: (t[0], t[1].key, t[2]))), exposure, 0)


def test_engine_matches_rounds_on_random_cyclic_systems():
    # 20-200 states, past the sizes of the literal fixpoint test
    rng = random.Random(30)
    for _ in range(40):
        lts = _random_cyclic_lts(rng, rng.randint(20, 200))
        for kind in ("strong", "branching", "dpbb"):
            _agree(lts, kind)


def _chain(n, label):
    """States 0..n-1, each stepping to the next by label(i)."""
    return Lts(tuple(range(n)), tuple((i, label(i), i + 1) for i in range(n - 1)),
               (frozenset(),) * n, 0)


def _ladder(n):
    """Two rails of visible steps, u_i = 2i and v_i = 2i + 1, joined by
    silent rungs u_i -> v_i; under the weak relations u_i is v_i."""
    a = Action("a")
    trans = [(2 * i, TAU, 2 * i + 1) for i in range(n // 2)]
    trans += [(s, a, s + 2) for s in range(n - 2)]
    return Lts(tuple(range(n)), tuple(sorted(
        trans, key=lambda t: (t[0], t[1].key, t[2]))), (frozenset(),) * n, 0)


_A = Action("a")
_CHAINS = {
    # name: (system of n states, classes under strong, branching and dpbb)
    "a/tau chain": (lambda n: _chain(n, lambda i: TAU if i % 2 else _A),
                    lambda n: (n, n // 2 + 1, n // 2 + 1)),
    "a-chain": (lambda n: _chain(n, lambda i: _A), lambda n: (n, n, n)),
    "tau-ladder": (_ladder, lambda n: (n, n // 2, n // 2)),
}


@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_chains_refine_in_linear_signatures(name, monkeypatch):
    # each pass recomputes only the states a split touches, so a chain
    # of 10^4 states costs a few signatures per state, not one per state
    # and pass; on 40 states the round-based reference agrees
    build, classes = _CHAINS[name]
    computed = []
    inner = equiv._block_signatures

    def counting(code, block, c, states, *rest):
        computed.append(len(states))
        return inner(code, block, c, states, *rest)

    monkeypatch.setattr(equiv, "_block_signatures", counting)
    for n in (40, 10_000):
        lts = build(n)
        for kind, want in zip(("strong", "branching", "dpbb"), classes(n)):
            computed.clear()
            part = bisimilarity(lts, kind)
            assert part.n_classes == want, (kind, n)
            assert sum(computed) <= 5 * n, (kind, n)
            if n == 40:
                _agree(lts, kind)


def _rejects_assignment(value, fields):
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_engine_values_compare_by_fields_and_reject_assignment():
    e = parse("a.b.0 + tau.c.0")
    one, two = build_lts(e), build_lts(e)
    assert one is not two and one == two and hash(one) == hash(two)
    # the caches stay out of the value
    one.succ(0)
    one.tau_closure(0)
    assert one == two and hash(one) == hash(two)
    assert one != build_lts(parse("a.b.0"))
    _rejects_assignment(one, ("states", "transitions", "exposure", "root", "_adj", "_tauclos"))

    rel = PairRelation(one, frozenset({(0, 1)}))
    assert rel == PairRelation(two, frozenset({(0, 1)})) and (0, 1) in rel
    assert hash(rel) == hash(PairRelation(two, frozenset({(0, 1)})))
    assert rel != PairRelation(one, frozenset())
    _rejects_assignment(rel, ("lts", "pairs"))

    part = bisimilarity(one, "dpbb")
    assert part == bisimilarity(two, "dpbb") and hash(part) == hash(bisimilarity(two, "dpbb"))
    _rejects_assignment(part, ("lts", "class_of", "diverging"))


def test_partition_equality_ignores_divergence():
    lts = build_lts(parse("a.0"))
    plain, diverging = Partition(lts, (0, 1)), Partition(lts, (0, 1), frozenset({1}))
    assert plain.diverging == frozenset() and diverging.diverging == {1}
    assert plain == diverging and hash(plain) == hash(diverging)
    assert plain != Partition(lts, (0, 0))


def test_rooted_check_defaults_and_value():
    assert RootedCheck._fields == ("equal", "clause", "witness")
    r = RootedCheck(True)
    assert r and (r.clause, r.witness, r.detail) == (None, None, "")
    assert not RootedCheck(False)
    e, f = parse("a.b.0 + c.0"), parse("a.tau.c.0 + c.0")
    one, two = rooted_check(e, f), rooted_check(e, f)
    assert not one and one.clause == "forth" and one.witness == (Action("a"), parse("b.0"))
    assert one == two and hash(one) == hash(two)
    assert one.detail == "left move a.b.0 has no matching right move"
    assert one != rooted_check(e, e)
    _rejects_assignment(one, RootedCheck.__slots__ + ("detail",))


@pytest.mark.parametrize("left, right, clause", [
    ("a.b.0 + c.0", "a.tau.c.0 + c.0", "forth"),
    ("a.0", "a.0 + tau.(b.0 + X)", "back"),
    ("a.0 + X", "a.0 + Y", "exposure"),
])
def test_failing_rooted_check_explores_and_partitions_once(monkeypatch, left, right, clause):
    # the failure is explained on the closure system that decided it:
    # one exploration and one partition, also once `detail` is read
    calls = []
    for name in ("closure_lts", "bisimilarity"):
        def counted(*args, _name=name, _real=getattr(equiv, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(equiv, name, counted)
    rc = rooted_check(parse(left), parse(right))
    assert (rc.equal, rc.clause) == (False, clause) and rc.detail
    assert sorted(calls) == ["bisimilarity", "closure_lts"]


def test_equation_systems_validate_and_compare_by_fields():
    from dpbc.ses import SesSystem

    std = {"X": parse("a.Y + Z"), "Y": parse("b.X")}
    ses = SesSystem.from_equations(("X", "Y"), std)
    assert ses == SesSystem.from_equations(("X", "Y"), dict(std))
    assert ses != SesSystem.from_equations(("Y", "X"), std)
    assert ses.lts.exposure == (frozenset({"Z"}), frozenset())
    _rejects_assignment(ses, ("formals", "rhs", "lts", "_successors"))
    # the unguarded successors are found once, when the system is built
    rhs = {"X": parse("a.Y"), "Y": parse("b.X + tau.Y")}
    one = SesSystem(("X", "Y"), rhs, ses.lts)
    assert one == SesSystem(("X", "Y"), dict(rhs), ses.lts)
    assert one.unguarded_successors("Y") == ("Y",) and not one.is_guarded()
    assert not hasattr(one, "__dict__")
    with pytest.raises(ValueError, match="duplicate formal"):
        SesSystem(("X", "X"), {"X": parse("0")}, ses.lts)
    with pytest.raises(ValueError, match="differ"):
        SesSystem(("X",), rhs, ses.lts)
