"""Decision procedures for the bisimilarities and rooted congruence.

The clause predicates `_strong_ok`, `_branching_ok` and `_divergence_ok`
are transcribed literally from the clause definitions; they are the
specification: a relation's functional maps a pair relation to the pairs
that satisfy its clauses (`CLAUSES`).  `bisimilarity` computes the
coarsest symmetric post-fixpoint of a functional by worklist signature
refinement over blocks (Blom & Orzan, STTT 2005), on the system with
labels and exposures coded as integers: a pass recomputes only the
signatures of the states that the last split touched.  A divergence
bit per state gives the divergence-preserving relation (van Glabbeek,
Luttik & Trcka, Fundam. Inform. 2009).  The test suite cross-checks it
against the round-based refinement it replaced, the pair-level fixpoint
iteration R <- sym(R & F(R)) over the functionals of `tests/oracles.py`
and the brute-force oracle `brute_oracle`, which stays here because
`perfbench/selfcheck.py` imports it.

`equivalent` and `rooted_check` partition one system for both terms,
whose states are closures (`semantics.closure_lts`): no term is
substituted, and a state that both sides reach is partitioned once.  A
verdict does not depend on which closure stands for a term.  What a
reader sees of a `RootedCheck` does: its witness names a state, so the
witness, the joint system, its partition and the roots are worked out
on the terms' own systems (`build_lts`, as before closures) when one
of them is first read.
"""

from __future__ import annotations

from typing import Optional

from .semantics import (
    DEFAULT_BUDGET, Lts, build_lts, closure_lts, union_lts, _can_reach_tau_cycle, _tau_sccs)
from .syntax import TAU_NAME, Expr, Prefix, Value, _set, pretty

KINDS = ("strong", "branching", "dpbb")


class Partition(Value):
    """Equivalence classes over the states of a transition system.

    Class ids are dense from 0, assigned by first occurrence, so equal
    partitions compare equal as values.  `diverging` holds the classes
    in which some member can run silently forever without leaving the
    class; `bisimilarity` fills it for dpbb only.
    """

    _fields = ("lts", "class_of")  # `diverging` stays out of the comparison
    __slots__ = _fields + ("diverging",)

    def __init__(self, lts: Lts, class_of: tuple, diverging: frozenset = frozenset()):
        _set(self, "lts", lts)
        _set(self, "class_of", class_of)
        _set(self, "diverging", diverging)

    @property
    def n_classes(self) -> int:
        return max(self.class_of) + 1 if self.class_of else 0

    def same(self, i: int, j: int) -> bool:
        return self.class_of[i] == self.class_of[j]


# --- the clauses ----------------------------------------------------------------


def _strong_ok(lts: Lts, pairs, i: int, j: int) -> bool:
    for a, ip in lts.succ(i):
        if not any(a2 == a and (ip, jp) in pairs for a2, jp in lts.succ(j)):
            return False
    for x in lts.exposure[i]:
        if x not in lts.exposure[j]:
            return False
    return True


def _branching_ok(lts: Lts, pairs, i: int, j: int, progressing: bool = False) -> bool:
    for a, ip in lts.succ(i):
        ok = False
        if a.is_tau:
            dom = lts.tau_closure_plus(j) if progressing else lts.tau_closure(j)
            ok = any((i, jp) in pairs and (ip, jp) in pairs for jp in dom)
        if not ok:
            for jmid in lts.tau_closure(j):
                if (i, jmid) not in pairs:
                    continue
                if any(a2 == a and (ip, jp) in pairs for a2, jp in lts.succ(jmid)):
                    ok = True
                    break
        if not ok:
            return False
    for x in lts.exposure[i]:
        ok = any(
            (i, jmid) in pairs and x in lts.exposure[jmid]
            for jmid in lts.tau_closure(j)
        )
        if not ok:
            return False
    return True


def _divergence_ok(lts: Lts, pairs, i: int, j: int) -> bool:
    """Every infinite silent run from state i must pass through a state
    matched (after at least one silent step of j) by the relation."""
    n = lts.n_states
    matched = set()
    plus = lts.tau_closure_plus(j)
    for ip in range(n):
        if any((ip, jp) in pairs for jp in plus):
            matched.add(ip)
    if i in matched:
        return True
    allowed = set(range(n)) - matched
    return i not in _can_reach_tau_cycle(lts, [i], allowed)


# the clauses a pair (i, j) of a relation's post-fixpoint satisfies
CLAUSES = {
    "strong": _strong_ok,
    "branching": _branching_ok,
    "dpbb": lambda lts, pairs, i, j: (
        _branching_ok(lts, pairs, i, j) and _divergence_ok(lts, pairs, i, j)),
}


# --- signature refinement ----------------------------------------------------


def _block_signatures(code, block, c, states, sig, div, kind):
    """Store in `sig` and `div` the signature and divergence bit of
    `states`, touched members of block c, against the partition `block`.
    A signature holds label * n + block for each move, and the exposures.
    A silent step is inert when both its ends are in c.  Components of
    inert steps come sinks first, so a component's signature is its own
    non-inert moves and exposures plus the signatures of the states its
    inert steps enter; it diverges when it is an inert cycle or enters a
    state that does."""
    moves, tau, expo = code
    inert = {}
    for s in states:
        steps = kind != "strong" and [t for t in tau[s] if block[t] == c]
        if steps:
            inert[s] = steps
            sig[s] = None
        else:
            sig[s] = frozenset([label + block[t] for label, t in moves[s]]) | expo[s]
            div[s] = False
    for comp in _tau_sccs(inert):  # a step to an untouched state is left out
        own = set()
        cyclic = len(comp) > 1
        for s in comp:
            own |= expo[s]
            for label, t in moves[s]:
                if label or block[t] != c:
                    own.add(label + block[t])
                elif t == s:
                    cyclic = True
                elif sig[t] is not None:  # t is not in this component
                    own |= sig[t]
                    cyclic = cyclic or div[t]
        frozen = frozenset(own)
        for s in comp:
            sig[s] = frozen
            div[s] = cyclic and kind == "dpbb"


def bisimilarity(lts: Lts, kind: str) -> Partition:
    """The coarsest symmetric post-fixpoint of the selected functional,
    as a partition of the states.

    Worklist signature refinement: a pass recomputes the signatures of
    the touched states and splits their blocks by divergence bit and
    signature.  A block's untouched members keep its id, as does the
    largest group of a block that is touched whole.  The states that
    change block touch themselves, their predecessors and, under the
    weak relations, the states that reach these by silent steps inside
    their block.  A block of one state cannot split and computes nothing.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    n = lts.n_states
    # per state: moves as (label * n, target), the silent label being 0,
    # predecessors, silent successors and predecessors, exposures < 0
    labels, names = {TAU_NAME: 0}, {}
    moves, preds, tau, tau_preds = ([[] for _ in range(n)] for _ in range(4))
    for s, a, t in lts.transitions:
        label = labels.setdefault(a.name, len(labels))
        moves[s].append((label * n, t))
        preds[t].append(s)
        if not label:
            tau[s].append(t)
            tau_preds[t].append(s)
    expo = [xs and frozenset([-names.setdefault(x, len(names) + 1) for x in xs])
            for xs in lts.exposure]
    code = moves, tau, expo
    if not any(tau):  # then the weak signatures are the strong ones
        kind = "strong"
    block = [0] * n
    members = [set(range(n))]
    keys = [None]  # the divergence bit and signature a block's members share
    sig, div = [None] * n, [False] * n
    touched = range(n)
    while touched:
        by_block = {}
        for s in touched:
            if len(members[block[s]]) > 1:
                by_block.setdefault(block[s], []).append(s)
            else:
                div[s] = kind == "dpbb" and s in tau[s]
        moved = []
        for c, states in by_block.items():
            _block_signatures(code, block, c, states, sig, div, kind)
            groups = {}
            for s in states:
                groups.setdefault((div[s], sig[s]), []).append(s)
            if len(states) == len(members[c]):
                keys[c] = max(groups, key=lambda key: len(groups[key]))
            groups.pop(keys[c], None)
            for key, group in groups.items():
                members[c].difference_update(group)
                for s in group:
                    block[s] = len(members)
                members.append(set(group))
                keys.append(key)
                moved += group
        touched = set(moved)
        for s in moved:
            touched.update(preds[s])
        stack = list(touched) if kind != "strong" else []
        while stack:
            t = stack.pop()
            for s in tau_preds[t]:
                if s not in touched and block[s] == block[t]:
                    touched.add(s)
                    stack.append(s)
    ids = {}
    class_of = tuple([ids.setdefault(c, len(ids)) for c in block])
    return Partition(lts, class_of, frozenset(class_of[s] for s in range(n) if div[s]))


# --- rooted congruence --------------------------------------------------------


class RootedCheck(Value):
    """Outcome of a rooted-congruence check, with a witness on failure.

    The witness of a 'forth' or 'back' failure is the unmatched move
    (action, target state of `lts`); of an 'exposure' failure, the
    identifiers that only one root exposes.  `detail` puts it in words
    when it is read.  `rooted_check` decides on closure states, whose
    numbers mean nothing to a reader, so it leaves `witness`, `lts`,
    `partition` and the roots to be worked out on the two terms'
    systems (`build_lts`) when one of them is first read."""

    _fields = ("equal", "clause", "witness", "lts", "partition", "root_left", "root_right")
    # `_pair` is the (e, f, budget) that `_terms` comes from while it is None
    __slots__ = ("equal", "clause", "_pair", "_terms")

    def __init__(self, equal: bool, clause: Optional[str] = None, witness=None,
                 lts: Optional[Lts] = None, partition: Optional[Partition] = None,
                 root_left: int = -1, root_right: int = -1):
        _set(self, "equal", equal)
        _set(self, "clause", clause)  # 'forth' | 'back' | 'exposure'
        _set(self, "_pair", None)
        _set(self, "_terms", (witness, lts, partition, root_left, root_right))

    def __bool__(self):
        return self.equal

    def _on_terms(self) -> tuple:
        """(witness, lts, partition, root_left, root_right), on terms."""
        terms = self._terms
        if terms is None:
            e, f, budget = self._pair
            joint, re_, rf = union_lts(build_lts(e, budget), build_lts(f, budget))
            part = bisimilarity(joint, "dpbb")
            failure = _root_failure(joint, part, re_, rf)
            terms = (failure and failure[1], joint, part, re_, rf)
            _set(self, "_terms", terms)
        return terms

    witness = property(lambda self: self._on_terms()[0])
    lts = property(lambda self: self._on_terms()[1])
    partition = property(lambda self: self._on_terms()[2])
    root_left = property(lambda self: self._on_terms()[3])
    root_right = property(lambda self: self._on_terms()[4])

    @property
    def detail(self) -> str:
        if self.clause is None:
            return ""
        if self.clause == "exposure":
            return f"exposure sets differ on {sorted(self.witness)}"
        mine, other = ("left", "right") if self.clause == "forth" else ("right", "left")
        a, tgt = self.witness
        move = pretty(Prefix(a, self.lts.states[tgt][1]))
        return f"{mine} move {move} has no matching {other} move"


def _root_failure(lts: Lts, part: Partition, re_: int, rf: int):
    """The first of the three root clauses to fail, as (clause, witness),
    or None when all three hold."""
    for clause, root, other_root in (("forth", re_, rf), ("back", rf, re_)):
        for a, tgt in lts.succ(root):
            if not any(a2 == a and part.same(tgt, t2) for a2, t2 in lts.succ(other_root)):
                return clause, (a, tgt)
    if lts.exposure[re_] != lts.exposure[rf]:
        return "exposure", lts.exposure[re_] ^ lts.exposure[rf]
    return None


def rooted_check(e: Expr, f: Expr, budget: int = DEFAULT_BUDGET) -> RootedCheck:
    """Check the three root clauses over the dpbb partition of the two
    roots' closure states (`closure_lts`).  Which clause fails does not
    depend on the order of the moves, so it is found there too."""
    lts, (re_, rf) = closure_lts((e, f), budget)
    failure = _root_failure(lts, bisimilarity(lts, "dpbb"), re_, rf)
    rc = RootedCheck(failure is None, failure and failure[0])
    _set(rc, "_pair", (e, f, budget))
    _set(rc, "_terms", None)
    return rc


def equivalent(e: Expr, f: Expr, kind: str, budget: int = DEFAULT_BUDGET) -> bool:
    """Are the two expressions related by the selected bisimilarity?"""
    if kind == "rooted":
        return rooted_check(e, f, budget).equal
    lts, (re_, rf) = closure_lts((e, f), budget)
    return bisimilarity(lts, kind).same(re_, rf)


# --- brute-force oracle --------------------------------------------------------


def _set_partitions(items):
    """All set partitions of a list (each as a list of blocks)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1 :]
        yield [[first]] + smaller


def brute_oracle(lts: Lts, kind: str) -> Partition:
    """Definitional oracle: the union of all equivalence post-fixpoints.

    Every symmetric post-fixpoint is contained in the coarsest one, which
    is an equivalence, so enumerating candidate partitions reaches the
    same union as enumerating all symmetric relations.  Rejects systems
    with more than 8 states.
    """
    n = lts.n_states
    if n > 8:
        raise ValueError("brute_oracle accepts at most 8 states")
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    ok = CLAUSES[kind]
    union = set()
    for blocks in _set_partitions(list(range(n))):
        pairs = frozenset(
            (i, j) for block in blocks for i in block for j in block
        )
        if all(ok(lts, pairs, i, j) for i, j in pairs):  # pairs <= F(pairs)
            union |= pairs
    # union of post-fixpoints; build the partition by closure
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in union:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    class_of = [-1] * n
    nxt = 0
    for i in range(n):
        r = find(i)
        if class_of[r] < 0:
            class_of[r] = nxt
            nxt += 1
        class_of[i] = class_of[r]
    return Partition(lts, tuple(class_of))
