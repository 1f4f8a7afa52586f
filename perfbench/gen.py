"""Seeded input generators for the three workloads.

Pure Python with no import of `dpbc` or of the test helpers, so editing
the program or a test cannot shift the inputs.  Every generated pair
carries the verdict it has by construction; `selfcheck.py` cross-checks
those verdicts against the brute-force oracle on small instances.

Terms are tuples, printed in the concrete grammar of `dpbc.syntax`:

    ("nil",)  ("var", X)  ("pre", act, body)  ("sum", [t, ...])
    ("rec", X, body)  ("loop", body)             # loop = tau* body
"""

from __future__ import annotations

import random

RELATIONS = ("strong", "branching", "dpbb", "rooted")
VISIBLE = ("a", "b", "c")

# --- printing -----------------------------------------------------------------


def show(t) -> str:
    tag = t[0]
    if tag == "nil":
        return "0"
    if tag == "var":
        return t[1]
    if tag == "pre":
        return f"{t[1]}.{_guard_body(t[2])}"
    if tag == "sum":
        return " + ".join(_summand(s) for s in t[1])
    if tag == "rec":
        return f"(rec {t[1]}. {show(t[2])})"
    if tag == "loop":
        return f"tau* {_guard_body(t[1])}"
    raise ValueError(f"unknown term tag {tag!r}")


def _summand(t) -> str:
    return f"({show(t)})" if t[0] == "sum" else show(t)


_guard_body = _summand  # prefix and loop bodies parenthesize sums too


def _sum(items):
    """A sum node has at least two summands."""
    if not items:
        return ("nil",)
    return items[0] if len(items) == 1 else ("sum", items)


# --- decide: trees with visible back edges --------------------------------------------

# verdict of each variant against its base, per relation
DECIDE_VERDICTS = {
    "alpha": {"strong": True, "branching": True, "dpbb": True, "rooted": True},
    "pad": {"strong": False, "branching": True, "dpbb": True, "rooted": True},
    "tauloop": {"strong": False, "branching": True, "dpbb": False, "rooted": False},
    "exit": {"strong": False, "branching": False, "dpbb": False, "rooted": False},
}
DECIDE_VARIANTS = tuple(DECIDE_VERDICTS)


class Tree:
    """A rooted tree over visible actions plus visible back edges to
    ancestors; its expression's transition system is the tree itself."""

    def __init__(self, rng: random.Random, n: int, labels=None):
        """`rng` draws which nodes have a back edge and to which
        ancestor, `labels` (default `rng`) the action on every edge."""
        labels = labels or rng
        self.n = n
        self.parent = [-1] + [(i - 1) // 2 for i in range(1, n)]  # binary heap
        self.act = ["-"] + [labels.choice(VISIBLE) for _ in range(1, n)]
        self.children = [[] for _ in range(n)]
        for i in range(1, n):
            self.children[self.parent[i]].append(i)
        self.back = [[] for _ in range(n)]  # (action, ancestor-or-self)
        for i in range(n):
            if rng.random() < 0.35:
                anc = self.ancestors(i)
                self.back[i].append((labels.choice(VISIBLE), rng.choice(anc)))

    def ancestors(self, i):
        out = [i]
        while self.parent[out[-1]] >= 0:
            out.append(self.parent[out[-1]])
        return out

    def term(self, binder="X", pad=None, tauloop=None, exit_at=None):
        """The expression of the tree, optionally with one change:
        `pad` puts a silent step on the edge into that node, `tauloop`
        adds a silent self-loop at that node, `exit_at` a fresh d-exit."""
        referenced = {j for i in range(self.n) for _, j in self.back[i]}
        if tauloop is not None:
            referenced.add(tauloop)

        def node(i):
            items = []
            for c in self.children[i]:
                body = node(c)
                if c == pad:
                    body = ("pre", "tau", body)
                items.append(("pre", self.act[c], body))
            for a, j in self.back[i]:
                items.append(("pre", a, ("var", f"{binder}{j}")))
            if i == tauloop:
                items.append(("pre", "tau", ("var", f"{binder}{i}")))
            if i == exit_at:
                items.append(("pre", "d", ("nil",)))
            t = _sum(items)
            return ("rec", f"{binder}{i}", t) if i in referenced else t

        return node(0)


def decide_base(rng: random.Random, n: int, labels=None):
    """One base and its four variants: (variant, left text, right text).
    `rng` draws the back edges and the changed nodes, `labels` (default
    `rng`) the actions."""
    tree = Tree(rng, n, labels)
    base = show(tree.term())
    k = rng.randrange(1, n)
    pad = rng.randrange(1, n)
    right = {
        "alpha": tree.term(binder="Y"),
        "pad": tree.term(pad=pad),
        "tauloop": tree.term(tauloop=k),
        "exit": tree.term(exit_at=k),
    }
    return [(v, base, show(right[v])) for v in DECIDE_VARIANTS]


# about 35-45 states per side.  One size, so that the silent-loop
# dpbb/rooted checks (the heaviest eighth of the ops) form one group of
# like-cost ops and the 90th percentile falls inside it on every seed
# (with sizes spread over 30-100 states it sat between two groups), and
# a small one, so that a run holds many bases and that percentile rests
# on many samples of the group
DECIDE_NODES = 60


def decide_ops(seed: int, n_bases: int):
    """Ops of the decide workload, base by base: every variant of every
    base under every relation, with the constructed verdict.  Each base
    slot has fixed back edges and changed nodes, drawn from the slot's
    number alone, and the seed draws every action on them: the engine's
    cost is set by the back edges and the node a silent loop goes to
    (redrawing them moved the heaviest op's time by 25%, relabelling by
    5%), so every seed has the same mix of costs."""
    labels = random.Random(f"decide:{seed}")
    ops = []
    for b in range(n_bases):
        skeleton = random.Random(f"decide-skeleton:{b}")
        for variant, left, right in decide_base(skeleton, DECIDE_NODES, labels):
            for rel in RELATIONS:
                ops.append({"family": variant, "rel": rel, "left": left,
                            "right": right,
                            "expect": DECIDE_VERDICTS[variant][rel]})
    return ops


# --- prove: small guarded pairs --------------------------------------------------


ACTIONS = VISIBLE + ("tau",)


def guarded(rng: random.Random, size: int, loops=True, labels=None):
    """A random closed guarded expression with about `size` nodes.

    Recursion variables occur only under a visible prefix, so without
    `loops` the expression has no silent cycle at all (it converges);
    with `loops`, silent cycles come only from `tau*`.  `rng` draws the
    skeleton (node kinds, silent or visible prefixes, variables);
    `labels` (default `rng`) draws which visible action each visible
    prefix carries.
    """
    return _guarded(rng, labels or rng, size, loops, (), ())


def _guarded(rng, labels, size, loops, bound, guarded_vars):
    """`bound`: binders in scope; `guarded_vars`: those of them already
    under a visible prefix, the only ones that may occur here."""
    if size <= 1:
        if guarded_vars and rng.random() < 0.5:
            return ("var", rng.choice(guarded_vars))
        return ("nil",)
    roll = rng.random()
    if roll < 0.42:
        a = "tau" if rng.random() < 1 / len(ACTIONS) else labels.choice(VISIBLE)
        inner = guarded_vars if a == "tau" else bound
        return ("pre", a, _guarded(rng, labels, size - 1, loops, bound, inner))
    if roll < 0.75:
        ls = rng.randint(1, size - 1)
        return ("sum", [_guarded(rng, labels, ls, loops, bound, guarded_vars),
                        _guarded(rng, labels, size - ls, loops, bound, guarded_vars)])
    if loops and roll < 0.85:
        return ("loop", _guarded(rng, labels, size - 1, loops, bound, guarded_vars))
    x = f"X{len(bound)}"  # deeper scopes get longer `bound`: no shadowing
    return ("rec", x, _guarded(rng, labels, size - 1, loops, bound + (x,), guarded_vars))


def _prefixes(t, path=()):
    """Paths to prefix nodes whose body is not a variable."""
    out = []
    if t[0] == "pre":
        if t[2][0] != "var":
            out.append(path)
        out += _prefixes(t[2], path + (2,))
    elif t[0] == "sum":
        for i, s in enumerate(t[1]):
            out += _prefixes(s, path + (1, i))
    elif t[0] in ("rec",):
        out += _prefixes(t[2], path + (2,))
    elif t[0] == "loop":
        out += _prefixes(t[1], path + (1,))
    return out


def _pad_at(t, path):
    if not path:
        return ("pre", t[1], ("pre", "tau", t[2]))
    head, rest = path[0], path[1:]
    if t[0] == "sum":
        items = list(t[1])
        items[rest[0]] = _pad_at(items[rest[0]], rest[1:])
        return ("sum", items)
    out = list(t)
    out[head] = _pad_at(t[head], rest)
    return tuple(out)


# family -> congruent by construction?
PROVE_FAMILIES = {
    "taupad": True,      # one a.E -> a.tau.E inside e (axiom B)
    "idem": True,        # e + e = e (S3)
    "zero": True,        # e + 0 = e (S4)
    "atau": True,        # a.tau.E = a.E
    "looploop": True,    # tau*(tau* E) = tau* E
    "divconv": False,    # a.tau* E against a.E, E convergent
    "diverge": False,    # convergent e against tau* e
}
PROVE_SIZES = (6, 7, 8, 9, 10, 11, 12)
# one round of the prove workload.  The branching-axiom families weigh
# most: they are the paper's core, and with this mix the median op is a
# B-law proof rather than the seam between two families.
PROVE_ROUND = ("taupad", "atau", "idem", "taupad", "atau", "zero",
               "looploop", "divconv", "taupad", "atau", "diverge", "looploop")


# (loops, recursions) in the random part of a pair: the main cost
# drivers of the prover, fixed per op slot so every seed has the same mix
PROVE_SHAPES = ((0, 0), (1, 0), (0, 1), (1, 1))


def _count(t, tag):
    kids = t[1] if t[0] == "sum" else [t[-1]] if t[0] in ("pre", "rec", "loop") else []
    return (t[0] == tag) + sum(_count(k, tag) for k in kids)


def shaped(rng: random.Random, size: int, shape, loops=True, labels=None):
    """A guarded expression of about `size` nodes with exactly the
    shape's numbers of `tau*` loops and recursions (no loops at all when
    `loops` is false), drawn by rejection."""
    want_loops, want_recs = shape if loops else (0, shape[1])
    for _ in range(10000):
        e = guarded(rng, size, loops=loops, labels=labels)
        if _count(e, "loop") == want_loops and _count(e, "rec") == want_recs:
            return e
    raise RuntimeError(f"no expression of size {size} with shape {shape}")


def prove_pair(rng: random.Random, family: str, size: int, shape=(0, 0),
               labels=None):
    """A pair of the family; `rng` draws its skeleton (and where a
    silent step is padded in), `labels` (default `rng`) its visible
    actions."""
    labels = labels or rng
    if family == "taupad":
        e = shaped(rng, size, shape, labels=labels)
        paths = _prefixes(e)
        if not paths:
            e = ("pre", labels.choice(VISIBLE), e)
            paths = _prefixes(e)
        return e, _pad_at(e, rng.choice(paths))
    if family == "idem":
        e = shaped(rng, size, shape, labels=labels)
        return ("sum", [e, e]), e
    if family == "zero":
        e = shaped(rng, size, shape, labels=labels)
        return ("sum", [e, ("nil",)]), e
    if family == "atau":
        a, body = labels.choice(VISIBLE), shaped(rng, size - 1, shape, labels=labels)
        return ("pre", a, ("pre", "tau", body)), ("pre", a, body)
    if family == "looploop":
        body = shaped(rng, size - 2, shape, labels=labels)
        return ("loop", ("loop", body)), ("loop", body)
    if family == "divconv":
        a = labels.choice(VISIBLE)
        body = shaped(rng, size - 2, shape, loops=False, labels=labels)
        return ("pre", a, ("loop", body)), ("pre", a, body)
    if family == "diverge":
        e = shaped(rng, size - 1, shape, loops=False, labels=labels)
        return e, ("loop", e)
    raise ValueError(f"unknown family {family!r}")


def prove_ops(seed: int, n_rounds: int):
    """Ops of the prove workload, in rounds of PROVE_ROUND.  Sizes and
    shapes rotate with the round.  Each op slot has a fixed skeleton,
    drawn from the slot's number alone, and the seed draws the visible
    actions on it: the prover's cost is set by the skeleton (relabelling
    one moves its time by about 15%, redrawing it by up to 10x), so the
    heavy tail is the same set of pairs on every seed."""
    labels = random.Random(f"prove:{seed}")
    ops = []
    for i in range(n_rounds * len(PROVE_ROUND)):
        rnd, k = divmod(i, len(PROVE_ROUND))
        family = PROVE_ROUND[k]
        size = PROVE_SIZES[(rnd + k) % len(PROVE_SIZES)]
        shape = PROVE_SHAPES[(rnd + 2 * k) % len(PROVE_SHAPES)]
        skeleton = random.Random(f"prove-skeleton:{i}")
        e, f = prove_pair(skeleton, family, size, shape, labels)
        ops.append({"family": family, "size": size, "shape": list(shape),
                    "left": show(e), "right": show(f),
                    "expect": PROVE_FAMILIES[family]})
    return ops


# --- cli: one subprocess per op -----------------------------------------------


def deep_rec(depth: int) -> str:
    """rec X0. a.(rec X1. a.( ... b.X0 ...)): nesting `depth` deep."""
    text = "0"
    for i in reversed(range(depth)):
        text = f"rec X{i}. a.({text} + b.X0)"
    return text


def wide_sum(width: int) -> str:
    return " + ".join(f"{VISIBLE[i % 3]}.0" for i in range(width))


DEEP_DEPTH = 400
WIDE_WIDTH = 3000


def cli_ops(seed: int, n_rounds: int):
    """Rounds of CLI invocations.  Each op names its command, its input
    texts and the exit code it must end with.  `prove` ops write the
    certificate that the following `verify` ops read (`cert`: "good" or
    "tampered").  `known_defect` marks the deep and wide inputs, whose
    expected outcome is a verdict or a clean exit 2."""
    rng = random.Random(f"cli:{seed}")
    ops = []
    for _ in range(n_rounds):
        rows = decide_base(rng, rng.randint(6, 10))
        for variant, left, right in rows:
            rel = rng.choice(RELATIONS)
            ops.append({"family": f"check-{rel}", "argv": ["check", "--rel", rel],
                        "inputs": [left, right],
                        "expect": 0 if DECIDE_VERDICTS[variant][rel] else 1})
        fam = rng.choice(("taupad", "idem", "zero", "atau"))
        e, f = prove_pair(rng, fam, rng.randint(5, 7), rng.choice(PROVE_SHAPES))
        ops.append({"family": "prove", "argv": ["prove"],
                    "inputs": [show(e), show(f)], "expect": 0})
        ops.append({"family": "verify", "argv": ["verify"], "cert": "good",
                    "expect": 0})
        ops.append({"family": "verify-tampered", "argv": ["verify"],
                    "cert": "tampered", "expect": 1})
        e, f = prove_pair(rng, "diverge", rng.randint(5, 7), rng.choice(PROVE_SHAPES))
        ops.append({"family": "prove-ineq", "argv": ["prove"],
                    "inputs": [show(e), show(f)], "expect": 1})
        ops.append({"family": "malformed", "argv": ["verify"],
                    "inputs": ["step 0 a.0 = a.0 by refl\nstep one ? by nothing\n"],
                    "expect": 2})
        ops.append({"family": "parse-error", "argv": ["check", "--rel", "dpbb"],
                    "inputs": ["a.(0 +", "a.0"], "expect": 2})
        deep = [deep_rec(DEEP_DEPTH), deep_rec(DEEP_DEPTH)]
        ops.append({"family": "deep-rec", "argv": ["check", "--rel", "dpbb"],
                    "inputs": deep, "expect": 0, "known_defect": True})
        ops.append({"family": "deep-rec-prove", "argv": ["prove"],
                    "inputs": deep, "expect": 0, "known_defect": True})
        ops.append({"family": "wide-sum", "argv": ["check", "--rel", "strong"],
                    "inputs": [wide_sum(WIDE_WIDTH), wide_sum(WIDE_WIDTH)],
                    "expect": 0, "known_defect": True})
    return ops
