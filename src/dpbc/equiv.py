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
substituted to explore it, and a state that both sides reach is
partitioned once.  A verdict does not depend on which closure stands
for a term.  A failing `rooted_check` names its unmatched move by the
target's term, which `semantics.closure_terms` builds from the closure
by one substitution, so it is explained on the system that decided it.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Optional

from .semantics import (
    DEFAULT_BUDGET, Lts, closure_lts, closure_terms, _can_reach_tau_cycle, _reach, _tau_sccs)
from .syntax import TAU_NAME, Expr, Prefix, Value, _compare, _set, pretty

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

    The witness of a 'forth' or 'back' failure is the unmatched move, as
    (action, target term); of an 'exposure' failure, the identifiers
    that only one root exposes.  `detail` puts it in words."""

    _fields = ("equal", "clause", "witness")
    __slots__ = _fields

    def __init__(self, equal: bool, clause: Optional[str] = None, witness=None):
        _set(self, "equal", equal)
        _set(self, "clause", clause)  # 'forth' | 'back' | 'exposure'
        _set(self, "witness", witness)

    def __bool__(self):
        return self.equal

    @property
    def detail(self) -> str:
        if self.clause is None:
            return ""
        if self.clause == "exposure":
            return f"exposure sets differ on {sorted(self.witness)}"
        mine, other = ("left", "right") if self.clause == "forth" else ("right", "left")
        return f"{mine} move {pretty(Prefix(*self.witness))} has no matching {other} move"


def _root_failure(lts: Lts, part: Partition, re_: int, rf: int):
    """The first of the three root clauses to fail, as (clause, witness),
    or None when all three hold.

    A 'forth' or 'back' witness is the failing root's unmatched move
    with the least action, as (action, term of its target).  Among that
    action's targets it takes the one that the root's own transition
    system (`build_lts`) numbers first: the root itself, else the target
    that the root enters by the least action, else the least term
    (`syntax._compare`)."""
    class_of = part.class_of
    for clause, root, other in (("forth", re_, rf), ("back", rf, re_)):
        offered = {(a, class_of[t]) for a, t in lts.succ(other)}
        unmatched = [(a, t) for a, t in lts.succ(root) if (a, class_of[t]) not in offered]
        if unmatched:
            act = min([a for a, _ in unmatched], key=lambda a: a.key)
            targets = {t for a, t in unmatched if a == act}
            terms, order = closure_terms(lts, targets), cmp_to_key(_compare)
            home, moves = lts.states[root][0], lts.succ(root)
            first = min(targets, key=lambda t: (
                terms[t] is not home, min([a.key for a, u in moves if u == t]), order(terms[t])))
            return clause, (act, terms[first])
    if lts.exposure[re_] != lts.exposure[rf]:
        return "exposure", lts.exposure[re_] ^ lts.exposure[rf]
    return None


def rooted_check(e: Expr, f: Expr, budget: int = DEFAULT_BUDGET) -> RootedCheck:
    """Check the three root clauses over the dpbb partition of the two
    roots' closure states (`closure_lts`).  Which clause fails, and the
    witness's action and term, do not depend on which closure stands for
    a term, so they are found there too."""
    lts, (re_, rf) = closure_lts((e, f), budget)
    failure = _root_failure(lts, bisimilarity(lts, "dpbb"), re_, rf)
    return RootedCheck(failure is None, *(failure or ()))


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
    # the classes of the union's transitive closure, numbered as first met
    ids, linked = {}, {i: [j for h, j in union if h == i] for i in range(n)}
    classes = [frozenset(_reach((i,), linked.__getitem__)) for i in range(n)]
    return Partition(lts, tuple([ids.setdefault(c, len(ids)) for c in classes]))
