import gc
import os
import random
import subprocess
import sys
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

from dpbc import syntax
from dpbc.syntax import (
    Action,
    NIL,
    Nil,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    _compare,
    all_vars,
    compose_sum,
    flatten_sum,
    free_vars,
    is_guarded_expr,
    is_guarded_in,
    is_loop,
    is_standard_sum,
    loop,
    loop_body,
    parse,
    pretty,
    substitute,
    summand_key,
    ParseError,
)
from dpbc.semantics import build_lts, step

import dpbc
import genexpr
from genexpr import all_terms, benchmark_gen, random_expr, silently_exposes
from oracles import (
    reference_all_vars, reference_exposes, reference_is_guarded_expr, reference_is_identifier,
    reference_is_loop, reference_parse, reference_pretty, reference_subst, reference_unguarded,
    tuple_expr_key, tuple_summand_key)


def test_free_vars():
    assert free_vars(NIL) == frozenset()
    assert free_vars(parse("rec X.(a.X + Y)")) == {"Y"}
    assert free_vars(parse("tau.X + a.0")) == {"X"}


def test_substitute_direct():
    assert substitute(parse("a.X"), {"X": parse("b.0")}) == parse("a.b.0")


def test_substitute_bound_variable_untouched():
    e = parse("rec X. a.X")
    assert substitute(e, {"X": parse("b.0")}) is e


def test_substitute_capture_avoidance():
    got = substitute(parse("rec Y. a.X"), {"X": parse("b.Y")})
    assert isinstance(got, Rec)
    assert got.binder == "_g0"
    assert got.body == Prefix(Action("a"), Prefix(Action("b"), Var("Y")))


def test_substitute_identity_when_irrelevant():
    e = parse("rec X.(a.X + Y)")
    assert substitute(e, {"Z": parse("b.0"), "X": parse("c.0")}) is e


def test_substitute_free_vars_equation():
    rng = random.Random(5)
    for _ in range(200):
        e = random_expr(rng, rng.randint(1, 10))
        f = random_expr(rng, rng.randint(1, 6))
        x = rng.choice(["X", "Y", "Z"])
        got = free_vars(substitute(e, {x: f}))
        want = free_vars(e) - {x}
        if x in free_vars(e):
            want = want | free_vars(f)
        assert got == want


def _random_simple_sum(rng):
    leaves = []
    for _ in range(rng.randint(0, 4)):
        leaves.append(Prefix(rng.choice([TAU, Action("a"), Action("b")]),
                             Var(rng.choice(["X1", "X2", "W"]))))
    for _ in range(rng.randint(0, 2)):
        leaves.append(Var(rng.choice(["X1", "X2", "W"])))
    out = NIL
    for leaf in leaves:
        out = leaf if out == NIL else Sum(out, leaf)
    return out


def test_successive_vs_simultaneous_substitution():
    # successive and simultaneous substitution agree on simple sums when
    # the later variables do not occur in the sum
    rng = random.Random(6)
    for _ in range(200):
        f = _random_simple_sum(rng)
        e1 = random_expr(rng, 4, free_pool=["Z1", "Z2"])
        e2 = random_expr(rng, 4, free_pool=["Z1", "Z2"])
        n1 = random_expr(rng, 4, free_pool=[])
        n2 = random_expr(rng, 4, free_pool=[])
        lhs = substitute(substitute(f, {"X1": e1, "X2": e2}),
                         {"Z1": n1, "Z2": n2})
        rhs = substitute(f, {
            "X1": substitute(e1, {"Z1": n1, "Z2": n2}),
            "X2": substitute(e2, {"Z1": n1, "Z2": n2}),
        })
        assert lhs == rhs


def test_loop_shape():
    got = loop(parse("a.0"))
    assert got == parse("rec _g0.(tau._g0 + a.0)")
    assert loop(NIL) == Rec("_g0", Sum(Prefix(TAU, Var("_g0")), NIL))
    rng = random.Random(7)
    for _ in range(50):
        e = random_expr(rng, rng.randint(1, 8))
        assert is_loop(loop(e))
        assert loop_body(loop(e)) == e


def test_loop_recognizer_flattens_left_spine():
    # ((tau.Z + a.0) + b.0) is still a loop on a.0 + b.0
    e = Rec("Z", Sum(Sum(Prefix(TAU, Var("Z")), parse("a.0")), parse("b.0")))
    assert is_loop(e)
    assert loop_body(e) == parse("a.0 + b.0")
    assert not is_loop(Rec("Z", Prefix(TAU, Var("Z"))))


def test_guarded_in():
    assert is_guarded_in("X", parse("a.X"))
    assert not is_guarded_in("X", parse("tau.X"))
    assert is_guarded_in("X", parse("tau.(Z + a.(W + tau.X))"))
    assert not is_guarded_in("X", parse("tau.X + a.0"))
    assert not is_guarded_in("X", parse("rec Y.(tau.Y + tau.X)"))
    assert is_guarded_in("X", parse("rec X. tau.X"))


def test_guarded_expr():
    assert is_guarded_expr(parse("rec X. a.X"))
    assert not is_guarded_expr(parse("rec X. tau.X"))
    assert is_guarded_expr(parse("rec X.(tau.X + 0)"))
    assert is_guarded_expr(loop(parse("a.0")))


def test_is_standard_sum():
    assert is_standard_sum(parse("a.0 + X"))
    assert is_standard_sum(NIL)
    assert is_standard_sum(parse("X + a.(rec X. b.X) + X + 0"))
    assert not is_standard_sum(parse("rec X. a.X"))
    assert not is_standard_sum(parse("a.0 + (rec X. a.X)"))
    # a prefix over an unguarded recursion is no standard summand
    assert not is_standard_sum(Prefix(Action("a"), parse("rec X. tau.X")))


def test_flatten_sum_of_a_wide_sum():
    # 2,000 summands, nested to the left and to the right: no recursion
    # and one pass over the tree
    leaves = [parse(f"a{i}.0") for i in range(1998)] + [NIL, Var("X")]
    left, right = compose_sum(leaves), leaves[-1]
    for leaf in reversed(leaves[:-1]):
        right = Sum(leaf, right)
    assert flatten_sum(left) == leaves == flatten_sum(right)
    assert is_standard_sum(left) and is_standard_sum(right)


def test_guardedness_agrees_with_silent_exposure():
    # the checker's side condition of R2, R4 and R5 is syntactic; its
    # meaning is that no silently reachable expression exposes x
    rng = random.Random(8)
    for _ in range(300):
        e = random_expr(rng, rng.randint(1, 10))
        for x in ["X", "Y"]:
            assert is_guarded_in(x, e) == (not silently_exposes(x, e))
    terms = all_terms(7, (NIL, Var("X"), Var("Y")))
    assert 2 * len(terms) == 144366
    for e in terms:
        for x in ["X", "Y"]:
            assert is_guarded_in(x, e) == (not silently_exposes(x, e)), (x, pretty(e))


def test_node_facts_match_their_references():
    # each node gets its facts from its children when it is built; the
    # recursive definitions in `oracles` say what they mean
    terms = all_terms(5, (NIL, Var("X"), Var("Y")))
    rng = random.Random(31)
    for _ in range(2000):
        e = random_expr(rng, rng.randint(1, 20))
        # a loop, and the loop shape over a body that may mention its binder
        terms += (e, loop(e), Rec("X", Sum(Sum(Prefix(TAU, Var("X")), e), e)))
    gen = benchmark_gen()
    for seed in (1, 7, 11):
        for op in gen.decide_ops(seed, 4) + gen.prove_ops(seed, 4):
            terms += (parse(op["left"]), parse(op["right"]))
    subterms = {s for e in set(terms) for s in _subterms(e)}
    assert sum(map(is_loop, subterms)) > 2000
    for e in subterms:
        assert all_vars(e) == reference_all_vars(e), pretty(e)
        assert e._unguarded == reference_unguarded(e), pretty(e)
        assert e._exposed == reference_exposes(e), pretty(e)
        assert e._guarded == reference_is_guarded_expr(e), pretty(e)
        assert is_loop(e) == reference_is_loop(e), pretty(e)


def test_parse_basics():
    assert parse("0") == NIL
    assert parse("a.b.0") == Prefix(Action("a"), Prefix(Action("b"), NIL))
    assert parse("a.0 + b.0 + c.0").left == parse("a.0 + b.0")
    assert parse("rec X. a.X + b.0") == Rec("X", parse("a.X + b.0"))
    assert parse("tau* a.0") == loop(parse("a.0"))
    assert parse("a.0 # comment\n + b.0") == parse("a.0 + b.0")
    assert parse("_g0") == Var("_g0")
    with pytest.raises(ParseError):
        parse("a.")
    with pytest.raises(ParseError):
        parse("a.0 +")
    with pytest.raises(ParseError):
        parse("a.0 b.0")


def test_plain_parse_rejects_term_references():
    # `@n` names a term of a certificate's table; expressions have none
    for text in ("@0", "a.@12 + b.0", "rec X. @3", "@", "a.@x"):
        with pytest.raises(ParseError):
            parse(text)


def test_random_expr_ignores_the_hash_seed():
    # the same rng seed must draw the same terms in every process
    path = os.pathsep.join([os.path.dirname(os.path.dirname(dpbc.__file__)),
                            os.path.dirname(genexpr.__file__)])
    code = ("import random; from genexpr import random_expr; "
            "from dpbc.syntax import pretty; "
            "print([pretty(random_expr(random.Random(s), 14)) for s in range(20)])")
    outs = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.add(res.stdout)
    assert len(outs) == 1


@st.composite
def exprs(draw, depth=4):
    if depth == 0:
        return draw(st.sampled_from([NIL, Var("X"), Var("Y"), Var("_g3")]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return NIL
    if kind == 1:
        return Var(draw(st.sampled_from(["X", "Y", "Z'"])))
    if kind == 2:
        act = draw(st.sampled_from([TAU, Action("a"), Action("b")]))
        return Prefix(act, draw(exprs(depth=depth - 1)))
    if kind == 3:
        return Sum(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    binder = draw(st.sampled_from(["X", "Y", "_g0"]))
    return Rec(binder, draw(exprs(depth=depth - 1)))


@settings(max_examples=300, deadline=None)
@given(exprs())
def test_parse_print_roundtrip(e):
    assert parse(pretty(e)) == e


# --- the parser and the orders against their references ------------------------
#
# `oracles.reference_parse` is the recursive-descent parser, and
# `oracles.tuple_expr_key` the nested-tuple order, that the iterative
# parser and the lazy comparison replaced.

# pieces of garbled input; `\w` holds characters that are no letter
# (`²`, `½`, `٣`), and `Ⓐ` is upper case but no letter
_PIECES = ["a", "b", "tau", "X", "Y'", "_g0", "rec", "0", "00", ".", "+", "(", ")", "*",
           " ", "\n", "\t", "\r", "#", "é", "²", "½", "٣", "1", "'", "Ⓐ", "\x0c",
           "x²", "Zé", "a٣"]


def _outcome(parse_fn, text):
    """The term that parse_fn reads from text, or its error message."""
    try:
        return parse_fn(text)
    except ParseError as exc:
        return str(exc)


def test_parser_matches_the_recursive_reference():
    gen = benchmark_gen()
    texts = []
    for seed in (1, 7, 11):
        for op in gen.decide_ops(seed, 4) + gen.prove_ops(seed, 4):
            texts += (op["left"], op["right"])
    rng = random.Random(25)
    small = [pretty(random_expr(rng, rng.randint(1, 20))) for _ in range(2000)]
    texts += small
    for _ in range(12_000):
        texts.append("".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 12))))
    for _ in range(12_000):  # a well-formed text with a few pieces put in or taken out
        chars = list(rng.choice(small))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(chars) + 1)
            if rng.random() < 0.5:
                chars.insert(k, rng.choice(_PIECES))
            elif k < len(chars):
                chars[k] = rng.choice(["", *_PIECES])
        texts.append("".join(chars))
    errors = 0
    for text in texts:
        got, want = _outcome(parse, text), _outcome(reference_parse, text)
        assert got is want or (type(got) is str and got == want), (text, got, want)
        errors += type(got) is str
    assert 12_000 < errors < len(texts) - 2000  # both outcomes are well covered


def test_is_identifier_matches_the_reference():
    rng = random.Random(25)
    chars = [chr(c) for c in range(0x800)]
    chars += [chr(rng.randrange(0x800, 0x110000)) for _ in range(20_000)]
    words = ["", "rec", "recs", "tau", "a'", "_", "X1", " a", "a ", "a#", "a\n", *_PIECES]
    for c in chars:
        words += (c, "a" + c, c + "a", "X" + c)
    for word in words:
        assert syntax._is_identifier(word) == reference_is_identifier(word), repr(word)


def _graft(rng, e, z):
    """e with the subterm at the end of a random path replaced by z."""
    if rng.random() < 0.3 or type(e) in (Nil, Var):
        return z
    if type(e) is Prefix:
        return Prefix(e.act, _graft(rng, e.body, z))
    if type(e) is Rec:
        return Rec(e.binder, _graft(rng, e.body, z))
    if rng.random() < 0.5:
        return Sum(_graft(rng, e.left, z), e.right)
    return Sum(e.left, _graft(rng, e.right, z))


def test_order_matches_the_tuple_reference():
    rng = random.Random(25)
    terms = [random_expr(rng, rng.randint(1, 12)) for _ in range(500)]
    pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(10_000)]
    # pairs that differ only at the end of a path, so the walk goes deep
    for _ in range(10_000):
        x = rng.choice(terms)
        pairs.append((x, _graft(rng, x, rng.choice(terms))))
    expr_key = cmp_to_key(_compare)
    for x, y in pairs:
        for key, reference in ((expr_key, tuple_expr_key), (summand_key, tuple_summand_key)):
            kx, ky, rx, ry = key(x), key(y), reference(x), reference(y)
            assert (kx > ky) - (kx < ky) == (rx > ry) - (rx < ry), (pretty(x), pretty(y))


def test_step_lists_moves_in_the_tuple_order():
    texts = {text for op in benchmark_gen().decide_ops(1, 4) for text in (op["left"], op["right"])}
    for text in texts:
        for state in build_lts(parse(text)).states:
            moves = step(state)
            assert moves == tuple(sorted(moves, key=lambda m: (m[0].key, tuple_expr_key(m[1]))))


# --- hash-consing ---------------------------------------------------------------


def test_equal_terms_are_one_node():
    text = "rec X.(a.X + tau.(b.Y + 0))"
    assert parse(text) is parse(text)
    assert Nil() is NIL and Var("X") is Var("X")
    assert Prefix(Action("a"), NIL) is Prefix(Action("a"), NIL)


def test_alpha_variants_are_distinct_nodes():
    e, f = parse("rec X. a.X"), parse("rec Y. a.Y")
    assert e is not f and e != f


def test_hash_is_the_hash_of_the_constructor_tuple():
    a, b = Action("a"), parse("b.0")
    assert hash(Prefix(a, b)) == hash(("pre", a, b))
    assert hash(Sum(a_b := Prefix(a, b), b)) == hash(("sum", a_b, b))
    assert hash(Rec("X", b)) == hash(("rec", "X", b))
    assert hash(Var("X")) == hash(("var", "X"))
    assert hash(NIL) == hash(("nil",))


def test_dropped_terms_leave_the_table():
    # built without any cached function, so nothing else holds them
    e = Sum(Prefix(Action("probe_act"), Var("Probe_var")), NIL)
    assert ("var", "Probe_var") in syntax._TABLE
    del e
    gc.collect()
    assert ("var", "Probe_var") not in syntax._TABLE
    assert not any(key[:2] == ("pre", "probe_act") for key in syntax._TABLE)
    # what the cached functions learn about a term lives and dies with it
    e = Rec("Probe_rec", Sum(Prefix(TAU, Var("Probe_rec")),
                             Prefix(Action("probe_act"), Var("Probe_var"))))
    assert free_vars(e) == {"Probe_var"} and is_guarded_in("Probe_var", e)
    assert len(step(e)) == 2
    del e
    gc.collect()
    assert ("var", "Probe_var") not in syntax._TABLE
    assert not any(key[:2] in (("pre", "probe_act"), ("rec", "Probe_rec"))
                   for key in syntax._TABLE)
    # a term that lives on keeps nothing of what was substituted into it
    kept = Prefix(TAU, Var("Probe_hole"))
    gc.collect()
    before = len(syntax._TABLE)
    for i in range(1000):
        substitute(kept, {"Probe_hole": Var(f"Probe_value{i}")})
    gc.collect()
    assert len(syntax._TABLE) == before
    del kept
    # and so does everything the proofs of twelve benchmark pairs build,
    # in a fresh interpreter, where no test data holds terms
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(dpbc.__file__)),
                            os.path.join(root, "perfbench")])
    code = ("import gc, gen; from dpbc import parse, prove_congruent, syntax; "
            "ops = gen.prove_ops(7, 1); gc.collect(); before = len(syntax._TABLE); "
            "[prove_congruent(parse(op['left']), parse(op['right'])) for op in ops]; "
            "gc.collect(); print(len(ops), before, len(syntax._TABLE))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    n_ops, before, after = map(int, res.stdout.split())
    assert n_ops == 12 and after == before


# --- substitution against a naive reference -------------------------------------
#
# Terms as plain tuples: ("nil",), ("var", x), ("pre", a, t), ("sum", l, r),
# ("rec", x, t).  The reference filters the bindings at every node and
# renames a capturing binder to the lowest unused `_g<i>`, with no sharing
# and no memo.


def _tup(e):
    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, Prefix):
        return ("pre", e.act.name, _tup(e.body))
    if isinstance(e, Sum):
        return ("sum", _tup(e.left), _tup(e.right))
    if isinstance(e, Rec):
        return ("rec", e.binder, _tup(e.body))
    return ("nil",)


def _naive_vars(t, free):
    if t[0] == "var":
        return {t[1]}
    if t[0] == "pre":
        return _naive_vars(t[2], free)
    if t[0] == "sum":
        return _naive_vars(t[1], free) | _naive_vars(t[2], free)
    if t[0] == "rec":
        inner = _naive_vars(t[2], free)
        return inner - {t[1]} if free else inner | {t[1]}
    return set()


def _naive_subst(t, sub):
    sub = {x: f for x, f in sub.items() if x in _naive_vars(t, True)}
    if not sub:
        return t
    if t[0] == "var":
        return sub[t[1]]
    if t[0] == "pre":
        return ("pre", t[1], _naive_subst(t[2], sub))
    if t[0] == "sum":
        return ("sum", _naive_subst(t[1], sub), _naive_subst(t[2], sub))
    binder, body = t[1], t[2]
    if not any(binder in _naive_vars(f, True) for f in sub.values()):
        return ("rec", binder, _naive_subst(body, sub))
    avoid = _naive_vars(body, False) | set(sub)
    for f in sub.values():
        avoid |= _naive_vars(f, True)
    i = 0
    while f"_g{i}" in avoid:
        i += 1
    return ("rec", f"_g{i}", _naive_subst(body, {binder: ("var", f"_g{i}"), **sub}))


def _subterms(e):
    yield e
    for child in (getattr(e, "body", None), getattr(e, "left", None),
                  getattr(e, "right", None)):
        if child is not None:
            yield from _subterms(child)


_CAPTURE = parse("rec Y.(a.X + rec _g0. b.(X + _g0))")


@settings(max_examples=400, deadline=None)
@given(exprs(), st.dictionaries(st.sampled_from(["X", "Y", "Z'", "_g0"]),
                                exprs(depth=2), max_size=3),
       st.booleans())
@example(parse("rec Y. a.X"), {"X": parse("b.Y")}, False)
@example(_CAPTURE, {"X": parse("Y + _g0")}, True)
@example(_CAPTURE, {"X": parse("_g1"), "Y": parse("a.Y")}, False)
# a binding of a variable free only outside a recursion renames no binder
@example(parse("a.X + rec Y. b.Z"), {"X": parse("a.Y"), "Z": parse("c.0")}, False)
def test_substitute_matches_naive_reference(e, bindings, warm):
    if warm:
        # results memoised on shared subterms by other substitutions first
        for sub in _subterms(e):
            substitute(sub, bindings)
            substitute(sub, {x: Var("Z'") for x in bindings})
    want = _naive_subst(_tup(e), {x: _tup(f) for x, f in bindings.items()})
    got = substitute(e, bindings)
    assert _tup(got) == want
    assert substitute(e, bindings) is got


def test_subst_matches_the_recursive_reference(monkeypatch):
    # every substitution that `build_lts` makes on the benchmark's decide
    # and prove texts and on the small terms gives the very node that
    # the recursive version gives
    import dpbc.semantics
    made = []

    def compared(e, bindings):
        got = substitute(e, bindings)
        sub = {x: f for x, f in bindings.items() if x in e._free and f is not Var(x)}
        assert got is (reference_subst(e, sub) if sub else e), pretty(e)
        made.append(got is not e)
        return got

    monkeypatch.setattr(dpbc.semantics, "substitute", compared)
    gen = benchmark_gen()
    gc.collect()  # nodes left over from other tests may know their moves
    for seed in (1, 7, 11):
        for op in gen.decide_ops(seed, 4) + gen.prove_ops(seed, 4):
            build_lts(parse(op["left"]))
            build_lts(parse(op["right"]))
    for e in all_terms(5, (NIL, Var("X"), Var("Y"))):
        build_lts(e)
    assert sum(made) > 1000, sum(made)


def test_pretty_matches_the_reference_printer():
    # `pretty` reads the loop sugar off a recursion's shape and builds no
    # term; it writes what the reference printer, which builds the loop
    # and compares, writes: on 20,000 random terms, on each of 2,000 of
    # them as a loop body, and on near-loops whose binder is bound in the
    # body or is not the fresh name
    rng = random.Random(11)
    terms = [random_expr(rng, rng.randint(1, 14), ["X", "Y", "_g0", "_g1"])
             for _ in range(20000)]
    for e in terms:
        assert pretty(e) == reference_pretty(e), e
    sugared = 0
    for e in terms[:2000]:
        for x in ("_g0", "_g1", "X"):
            near = Rec(x, Sum(Prefix(TAU, Var(x)), e))
            assert pretty(near) == reference_pretty(near)
            sugared += pretty(near).startswith("tau* ")
        assert pretty(loop(e)) == reference_pretty(loop(e))
        assert pretty(loop(e)).startswith("tau* ") and parse(pretty(loop(e))) is loop(e)
    assert 1000 < sugared < 5000  # both printed forms are met
