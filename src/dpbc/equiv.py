"""Decision procedures for the bisimilarities and rooted congruence.

The functionals on pair relations are transcribed literally from their
clause definitions; they are the specification.  `bisimilarity`
computes the coarsest symmetric post-fixpoint of a functional by
signature refinement over blocks (Blom & Orzan, STTT 2005), with a
divergence bit per state for the divergence-preserving relation (van
Glabbeek, Luttik & Trcka, Fundam. Inform. 2009).  The test suite
cross-checks it against the pair-level fixpoint iteration
R <- sym(R & F(R)) and against a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .semantics import (
    DEFAULT_BUDGET, Lts, build_lts, union_lts, _can_reach_tau_cycle, _tau_sccs)
from .syntax import Expr

KINDS = ("strong", "branching", "dpbb")


@dataclass(frozen=True)
class PairRelation:
    """A set of state pairs over a finite transition system."""

    lts: Lts
    pairs: frozenset

    def __contains__(self, pair):
        return pair in self.pairs


@dataclass(frozen=True)
class Partition:
    """Equivalence classes over the states of a transition system.

    Class ids are dense from 0, assigned by first occurrence, so equal
    partitions compare equal as values.  `diverging` holds the classes
    in which some member can run silently forever without leaving the
    class; `bisimilarity` fills it for dpbb only.
    """

    lts: Lts
    class_of: tuple
    diverging: frozenset = field(default=frozenset(), compare=False)

    @property
    def n_classes(self) -> int:
        return max(self.class_of) + 1 if self.class_of else 0

    def same(self, i: int, j: int) -> bool:
        return self.class_of[i] == self.class_of[j]

    def pairs(self) -> PairRelation:
        ps = {
            (i, j)
            for i in range(len(self.class_of))
            for j in range(len(self.class_of))
            if self.class_of[i] == self.class_of[j]
        }
        return PairRelation(self.lts, frozenset(ps))


def full_relation(lts: Lts) -> PairRelation:
    n = lts.n_states
    return PairRelation(lts, frozenset((i, j) for i in range(n) for j in range(n)))


def identity_relation(lts: Lts) -> PairRelation:
    return PairRelation(lts, frozenset((i, i) for i in range(lts.n_states)))


# --- literal functionals -----------------------------------------------------


def _strong_ok(lts: Lts, pairs, i: int, j: int) -> bool:
    for a, ip in lts.succ(i):
        if not any(a2 == a and (ip, jp) in pairs for a2, jp in lts.succ(j)):
            return False
    for x in lts.exposure[i]:
        if x not in lts.exposure[j]:
            return False
    return True


def _branching_ok(lts: Lts, pairs, i: int, j: int, progressing: bool) -> bool:
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


def _image(rel: PairRelation, ok) -> PairRelation:
    """The pairs (i, j) of states for which ok(lts, pairs, i, j) holds."""
    lts = rel.lts
    n = lts.n_states
    return PairRelation(lts, frozenset(
        (i, j) for i in range(n) for j in range(n) if ok(lts, rel.pairs, i, j)))


def functional_S(rel: PairRelation) -> PairRelation:
    return _image(rel, _strong_ok)


def functional_B(rel: PairRelation) -> PairRelation:
    return _image(rel, partial(_branching_ok, progressing=False))


def functional_Bp(rel: PairRelation) -> PairRelation:
    return _image(rel, partial(_branching_ok, progressing=True))


def functional_Bd(rel: PairRelation) -> PairRelation:
    return _image(rel, lambda lts, pairs, i, j: _branching_ok(
        lts, pairs, i, j, progressing=False) and _divergence_ok(lts, pairs, i, j))


FUNCTIONALS = {
    "strong": functional_S,
    "branching": functional_B,
    "dpbb": functional_Bd,
}


# --- signature refinement ----------------------------------------------------


def _signatures(lts: Lts, block, kind: str):
    """One key per state: its block, its divergence bit and its signature
    against the partition `block` (a list of class ids per state)."""
    if kind == "strong":
        return [
            (block[s], False,
             frozenset((a, block[t]) for a, t in lts.succ(s)) | lts.exposure[s])
            for s in range(lts.n_states)
        ]
    # A silent step is inert when both ends share a block.  Components of
    # the inert graph come sinks first, so a component's signature is its
    # own non-inert moves and exposures plus those of the components its
    # inert steps enter; likewise it diverges inside its block when it is
    # an inert cycle or enters a component that diverges.  A block without
    # inert steps has its single states as components, in any order.
    members = {}
    for s, c in enumerate(block):
        members.setdefault(c, []).append(s)
    sig = [None] * lts.n_states
    div = [False] * lts.n_states
    inert = {block[s] for s, a, t in lts.transitions if block[s] == block[t] and a.is_tau}
    for c, states in members.items():
        for comp in _tau_sccs(lts, states) if c in inert else [[s] for s in states]:
            own = set()
            cyclic = len(comp) > 1
            for s in comp:
                own |= lts.exposure[s]
                for a, t in lts.succ(s):
                    if not a.is_tau or block[t] != block[s]:
                        own.add((a, block[t]))
                    elif t == s:
                        cyclic = True
                    elif sig[t] is not None:
                        own |= sig[t]
                        cyclic |= div[t]
            frozen = frozenset(own)
            for s in comp:
                sig[s] = frozen
                div[s] = cyclic and kind == "dpbb"
    return [(block[s], div[s], sig[s]) for s in range(lts.n_states)]


def bisimilarity(lts: Lts, kind: str) -> Partition:
    """The coarsest symmetric post-fixpoint of the selected functional,
    as a partition of the states.

    Signature refinement: starting from one block, every round splits
    each block by divergence bit and signature, until no block splits.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    block = [0] * lts.n_states
    count = min(1, lts.n_states)
    while True:
        ids = {}
        block = [ids.setdefault(key, len(ids)) for key in _signatures(lts, block, kind)]
        if len(ids) == count:
            # the keys were taken against this same partition, so their
            # divergence bits are those of the final classes
            diverging = frozenset(c for key, c in ids.items() if key[1])
            return Partition(lts, tuple(block), diverging)
        count = len(ids)


# --- rooted congruence --------------------------------------------------------


@dataclass(frozen=True)
class RootedCheck:
    """Outcome of a rooted-congruence check, with a witness on failure."""

    equal: bool
    clause: Optional[str] = None  # 'forth' | 'back' | 'exposure'
    detail: str = ""
    lts: Optional[Lts] = None
    partition: Optional[Partition] = None
    root_left: int = -1
    root_right: int = -1

    def __bool__(self):
        return self.equal


def _joint(e: Expr, f: Expr, kind: str, budget: int):
    """(joint LTS of e and f, its partition under `kind`, e's root, f's root)."""
    joint, re_, rf = union_lts(build_lts(e, budget), build_lts(f, budget))
    return joint, bisimilarity(joint, kind), re_, rf


def rooted_check(e: Expr, f: Expr, budget: int = DEFAULT_BUDGET) -> RootedCheck:
    """Check the three root clauses over the joint dpbb partition."""
    joint, part, re_, rf = _joint(e, f, "dpbb", budget)

    def find_match(a, tgt, other_root):
        for a2, tgt2 in joint.succ(other_root):
            if a2 == a and part.same(tgt, tgt2):
                return tgt2
        return None

    for a, tgt in joint.succ(re_):
        if find_match(a, tgt, rf) is None:
            return RootedCheck(
                False, "forth",
                f"left move {a}.{joint.states[tgt][1]} has no matching right move",
                joint, part, re_, rf)
    for a, tgt in joint.succ(rf):
        if find_match(a, tgt, re_) is None:
            return RootedCheck(
                False, "back",
                f"right move {a}.{joint.states[tgt][1]} has no matching left move",
                joint, part, re_, rf)
    if joint.exposure[re_] != joint.exposure[rf]:
        diff = joint.exposure[re_] ^ joint.exposure[rf]
        return RootedCheck(
            False, "exposure",
            f"exposure sets differ on {sorted(diff)}",
            joint, part, re_, rf)
    return RootedCheck(True, None, "", joint, part, re_, rf)


def equivalent(e: Expr, f: Expr, kind: str, budget: int = DEFAULT_BUDGET) -> bool:
    """Are the two expressions related by the selected bisimilarity?"""
    if kind == "rooted":
        return rooted_check(e, f, budget).equal
    _, part, re_, rf = _joint(e, f, kind, budget)
    return part.same(re_, rf)


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
    func = FUNCTIONALS[kind]
    union = set()
    for blocks in _set_partitions(list(range(n))):
        pairs = frozenset(
            (i, j) for block in blocks for i in block for j in block
        )
        image = func(PairRelation(lts, pairs))
        if pairs <= image.pairs:
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
