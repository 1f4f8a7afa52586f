"""The prover's side of the axiom system: the derivation builder, its
memo, S1-S4 rearrangement of sums and the derived rules that the walk of
`ses.prove_congruent` closes pairs with (T1, D6).  What it builds is
checked by `kernel`, which defines the steps, the checker and the
certificate format.  The routines that only standardization and the
root route run are in `standardize`.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Mapping, Optional

from .syntax import (
    Action,
    Expr,
    NIL,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    free_vars,
    fresh_name,
    pretty,
    summand_key,
)
from .semantics import _reach
# `check`, the certificate reader and writer and the errors are
# re-exported for callers of the prover
from .kernel import (  # noqa: F401
    POSITIONS,
    CertificateError,
    Cong,
    Derivation,
    Just,
    MissingMeta,
    ProofError,
    ProofStep,
    Refl,
    SideCondition,
    Symm,
    Trans,
    _new,
    check,
    format_derivation,
    instantiate_axiom,
    parse_derivation,
    plug,
)


# --- derivation builder ---------------------------------------------------------


def _derived(producer):
    """Route `producer(b, *args)` through the memo of its Builder `b`,
    keyed on the producer and its arguments (terms, names, actions and
    indices of steps already in `b`).  The memo saves building work
    only: a repeated call would ask `_emit` for equations that `b`
    already holds, so it would add no step."""

    @functools.wraps(producer)
    def memoised(b, *args):
        key = (producer, *args)
        out = b._derived.get(key)
        if out is None:
            out = b._derived[key] = producer(b, *args)
        return out

    return memoised


class Builder:
    """Accumulates justified steps, one per equation.

    `_emit` keys its steps on the equation alone: asked for an equation
    it already holds, it returns the first step that proves it, whatever
    the justification offered.  So no two steps prove the same equation,
    and a symmetry of a symmetry, or a transitivity with a reflexivity,
    comes back as the step that already proves its equation.  Terms are
    hash-consed, so the table is keyed on the ids of the two sides: the
    steps keep both alive, and a lookup hashes two ints, not two terms.

    Derived results (canonical sums, equations lifted into a context,
    head normal forms, T1 and axiom steps) are memoised per Builder.
    This is exact: each producer is a pure function of its arguments
    and of the steps it reads, and steps never change once emitted, so
    a repeated call would get back the steps it got the first time, and
    the step list is the same with or without the memo.
    """

    def __init__(self):
        self.steps = []
        self._index = {}
        self._derived = {}

    def _emit(self, lhs: Expr, rhs: Expr, just: Just) -> int:
        key = (id(lhs), id(rhs))
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.steps)
            self.steps.append(_new(ProofStep, (lhs, rhs, just)))
            self._index[key] = idx
        return idx

    def held(self, lhs: Expr, rhs: Expr) -> Optional[int]:
        """The step that proves lhs = rhs, if the builder holds one."""
        return self._index.get((id(lhs), id(rhs)))

    def endpoints(self, i: int):
        return self.steps[i][:2]

    def refl(self, e: Expr) -> int:
        return self._emit(e, e, _new(Refl, ()))

    def axiom(self, axiom: str, meta: Mapping, extra: Mapping = (),
              premise: Optional[int] = None) -> int:
        return self._axiom(axiom, tuple(sorted(meta.items())),
                           tuple(sorted(dict(extra).items())), premise)

    @_derived
    def _axiom(self, axiom: str, meta: tuple, extra: tuple,
               premise: Optional[int]) -> int:
        return self._emit(*instantiate_axiom(axiom, dict(meta), dict(extra), premise))

    def symm(self, i: int) -> int:
        lhs, rhs, _ = self.steps[i]
        return self._emit(rhs, lhs, _new(Symm, (i,)))

    def trans(self, i: int, j: int) -> int:
        lhs, mid, _ = self.steps[i]
        other, rhs, _ = self.steps[j]
        if mid != other:
            raise ProofError(f"cannot chain: {pretty(mid)} vs {pretty(other)}")
        return self._emit(lhs, rhs, _new(Trans, (i, j)))

    def chain(self, *idxs: int) -> int:
        acc = idxs[0]
        for i in idxs[1:]:
            acc = self.trans(acc, i)
        return acc

    def cong(self, pos: str, inner: int, context) -> int:
        lhs, rhs, just = self.steps[inner]
        if pos not in POSITIONS:
            raise ProofError(f"unknown congruence position {pos!r}")
        lhs, rhs = plug(pos, context, lhs), plug(pos, context, rhs)
        if type(just) is Refl:
            return self.refl(lhs)
        return self._emit(lhs, rhs, _new(Cong, (pos, inner, context)))

    def sum_cong(self, i: int, j: int) -> int:
        """l + r = l' + r' from step i proving l = l' and step j proving
        r = r'."""
        return self.trans(self.cong("suml", i, self.steps[j].lhs),
                          self.cong("sumr", j, self.steps[i].rhs))

    def rewrite_at(self, host: Expr, path, inner: int) -> int:
        """Lift a step to a rewrite of the subterm of `host` at `path`;
        the result proves host = host-with-subterm-replaced."""
        if not path:
            lhs, _ = self.endpoints(inner)
            if lhs != host:
                raise ProofError(
                    f"rewrite target mismatch: {pretty(lhs)} at {pretty(host)}")
            return inner
        head, rest = path[0], path[1:]
        if head == "prefix":
            return self.cong("prefix", self.rewrite_at(host.body, rest, inner), host.act)
        if head == "suml":
            return self.cong("suml", self.rewrite_at(host.left, rest, inner), host.right)
        if head == "sumr":
            return self.cong("sumr", self.rewrite_at(host.right, rest, inner), host.left)
        if head == "rec":
            return self.cong("recbody", self.rewrite_at(host.body, rest, inner), host.binder)
        raise ProofError(f"bad path element {head!r}")

    def rhs_after(self, i: int) -> Expr:
        return self.steps[i][1]

    def finalize(self, conclusion: int) -> Derivation:
        """Extract the reachable part of the derivation ending at the
        conclusion step."""
        steps = self.steps
        order = sorted(_reach((conclusion,), lambda i: steps[i][2].refs()))
        remap = {old: new for new, old in enumerate(order)}
        return Derivation(tuple([_new(ProofStep, (lhs, rhs, just.renumber(remap)))
                                 for lhs, rhs, just in map(steps.__getitem__, order)]))


# --- sum rearrangement with proof ------------------------------------------------
#
# S1-S4 rearrange a sum over its summands: the nodes where a walk down
# its sum tree stops, at every node that is no sum and at the sums in a
# set `keep` of node ids.  `prove_canon` keeps no sum, so its summands
# are the leaves; `prove_sum_eq` keeps the coarsest sub-sums its two
# sides share.  The routines below hold the summands in a list, so a
# kept sum is one summand even where it equals a sum of others, and
# they loop instead of recursing, so a sum of any width costs no stack.


def _prove_lassoc(b: Builder, e: Expr, keep):
    """The summands of e, left to right, and a step proving e equal to
    their left-nested sum."""
    # per left-spine level: the chain that empties its right side, and
    # the summand left there
    levels = []
    # the rotations build sums on the left spine: `built` says that cur
    # is one, `below` how many are under it; each is opened, whatever
    # kept sum it may equal
    cur, built, below = e, False, 0
    while type(cur) is Sum and (built or id(cur) not in keep):
        acc = b.refl(cur)
        while type(cur.right) is Sum and id(cur.right) not in keep:
            s2 = b.axiom("S2", {"E": cur.left, "F": cur.right.left, "G": cur.right.right})
            acc = b.trans(acc, s2)
            cur = Sum(Sum(cur.left, cur.right.left), cur.right.right)
            below += 1
        levels.append((acc, cur.right))
        cur, built, below = cur.left, below > 0, max(below - 1, 0)
    xs, d = [cur], b.refl(cur)
    for acc, last in reversed(levels):
        d = b.trans(acc, b.cong("suml", d, last))
        xs.append(last)
    return xs, d


def _move_left(b: Builder, init: Expr, last: Expr, x: Expr) -> int:
    """(init + last) + x = (init + x) + last: S2 to init + (last + x), S1
    inside to init + (x + last), S2 back."""
    i1 = b.symm(b.axiom("S2", {"E": init, "F": last, "G": x}))
    i2 = b.cong("sumr", b.axiom("S1", {"E": last, "F": x}), init)
    i3 = b.axiom("S2", {"E": init, "F": x, "G": last})
    return b.chain(i1, i2, i3)


def _prove_insert(b: Builder, ys: list, pre: list, x: Expr, key) -> int:
    """Insert x into the summands ys, sorted by `key`, whose left-nested
    prefix sums are pre, updating both; proves pre[-1] + x = the new
    pre[-1]."""
    kx = key(x)
    levels = []  # the chain that moves x left past ys[j], and ys[j]
    j = len(ys) - 1
    while j > 0 and kx < key(ys[j]):
        last = ys[j]
        levels.append((_move_left(b, pre[j - 1], last, x), last))
        j -= 1
    if j == 0 and kx < key(ys[0]):
        d, at = b.axiom("S1", {"E": ys[0], "F": x}), 0
    else:
        d, at = b.refl(Sum(pre[j], x)), j + 1
    for chain, last in reversed(levels):
        d = b.trans(chain, b.cong("suml", d, last))
    ys.insert(at, x)
    del pre[at:]
    for y in ys[at:]:
        pre.append(Sum(pre[-1], y) if pre else y)
    return d


def _prove_sort(b: Builder, xs: list, key):
    """Insertion sort of left-nested summands by `key`: the sorted
    summands and a step proving the two sums equal."""
    ys, pre = [xs[0]], [xs[0]]
    d = b.refl(xs[0])
    for x in xs[1:]:
        acc = b.cong("suml", d, x)
        d = b.trans(acc, _prove_insert(b, ys, pre, x, key))
    return ys, d


def _prove_compress(b: Builder, ys: list):
    """Drop the repeated and empty summands of sorted ones: their
    left-nested sum and a step proving it equal to the sum of ys."""
    out = [ys[0]]  # left-nested prefix sums of the summands kept
    d = b.refl(ys[0])
    for last in ys[1:]:
        acc = b.cong("suml", d, last)
        if last is NIL:
            d = b.trans(acc, b.axiom("S4", {"E": out[-1]}))
        elif len(out) == 1 and out[0] is last:
            d = b.trans(acc, b.axiom("S3", {"E": last}))
        elif len(out) > 1 and out[-1].right is last:
            # (I + x) + x = I + (x + x) = I + x
            init = out[-2]
            i1 = b.symm(b.axiom("S2", {"E": init, "F": last, "G": last}))
            i2 = b.cong("sumr", b.axiom("S3", {"E": last}), init)
            d = b.chain(acc, i1, i2)
        else:
            out.append(Sum(out[-1], last))
            d = acc
    return out[-1], d


def _prove_sorted(b: Builder, xs: list, d: int, key=summand_key):
    """From d proving e equal to the left-nested sum of xs on: e equal to
    the left-nested sum of xs sorted by `key`, which puts 0 last, without
    repeats or 0s."""
    ys, d2 = _prove_sort(b, xs, key)
    out, d3 = _prove_compress(b, ys)
    return out, b.chain(d, d2, d3)


@_derived
def prove_canon(b: Builder, e: Expr):
    """Prove e equal to its canonical sum form (sorted, duplicate- and
    0-free, left-nested over its leaves)."""
    return _prove_sorted(b, *_prove_lassoc(b, e, ()))


def _sum_tree(e: Expr) -> dict:
    """id -> node for e and every child of a sum in its sum tree."""
    nodes = {id(e): e}
    todo = [e]
    while todo:
        n = todo.pop()
        if type(n) is Sum:
            for c in (n.left, n.right):
                if id(c) not in nodes:
                    nodes[id(c)] = c
                    todo.append(c)
    return nodes


def _summand_ids(e: Expr, keep) -> set:
    """The ids of e's summands under `keep`."""
    out, seen, todo = set(), set(), [e]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            if type(n) is Sum and id(n) not in keep:
                todo += (n.left, n.right)
            else:
                out.add(id(n))
    return out


def _shared_summands(lhs: Expr, rhs: Expr):
    """The coarsest sub-sums over which lhs and rhs have the same summands
    up to 0s and repeats: of the sums in both sum trees, every one that
    is a summand of one side only or holds such a summand is opened,
    until the two sets agree.  Returns the ids of the sums left whole."""
    ltree, rtree = _sum_tree(lhs), _sum_tree(rhs)
    keep = {i for i in ltree.keys() & rtree.keys() if type(ltree[i]) is Sum}
    parents = None  # child id -> ids of the sums above it, in either tree
    visited = set()
    while True:
        ls, rs = _summand_ids(lhs, keep), _summand_ids(rhs, keep)
        diff = (ls ^ rs) - {id(NIL)}
        if not diff:
            return keep
        if parents is None:
            parents = {}
            for n in (*ltree.values(), *rtree.values()):
                if type(n) is Sum:
                    for c in (n.left, n.right):
                        parents.setdefault(id(c), set()).add(id(n))
        opened = False
        todo = list(diff)
        while todo:
            i = todo.pop()
            if i not in visited:
                visited.add(i)
                if i in keep:
                    keep.remove(i)
                    opened = True
                todo += parents.get(i, ())
        if not opened:
            raise ProofError(
                f"sums differ beyond S1-S4: {pretty(lhs)} vs {pretty(rhs)}")


def _absorb_copy(b: Builder, host: Expr, x: Expr):
    """host + x = host when x is 0 or a node of host's sum tree: x moves
    down beside its nearest copy, where S3 merges the two; None when x
    is neither."""
    if x is NIL:
        return b.axiom("S4", {"E": host})
    above = {id(host): None}  # node id -> (the sum above it, the side it is on)
    queue = deque([host])
    while queue and id(x) not in above:
        n = queue.popleft()
        if type(n) is Sum:
            for side, c in (("l", n.left), ("r", n.right)):
                if id(c) not in above:
                    above[id(c)] = (n, side)
                    queue.append(c)
    if id(x) not in above:
        return None
    path = []
    link = above[id(x)]
    while link is not None:
        path.append(link)
        link = above[id(link[0])]
    # per sum on the path: the chain that moves x into the side that
    # holds the copy, that side's congruence position and the other side
    levels = []
    for n, side in reversed(path):
        l, r = n.left, n.right
        if side == "r":
            # (l + r) + x = l + (r + x)
            levels.append((b.symm(b.axiom("S2", {"E": l, "F": r, "G": x})), "sumr", l))
        else:
            levels.append((_move_left(b, l, r, x), "suml", r))
    d = b.axiom("S3", {"E": x})
    for chain, pos, other in reversed(levels):
        d = b.trans(chain, b.cong(pos, d, other))
    return d


def prove_sum_eq(b: Builder, lhs: Expr, rhs: Expr) -> int:
    """Prove two sums equal by S1-S4 when they have the same summands up
    to order, grouping, 0s and repeats, rearranging both over the
    coarsest sub-sums they share.  A side that is the other plus a 0 or
    a node of the other's sum tree absorbs it directly."""
    if lhs is rhs:
        return b.refl(lhs)
    held = b.held(lhs, rhs)
    if held is not None:
        return held
    held = b.held(rhs, lhs)
    if held is not None:
        return b.symm(held)
    if type(rhs) is Sum and rhs.left is lhs:
        d = _absorb_copy(b, lhs, rhs.right)
        if d is not None:
            return b.symm(d)
    if type(lhs) is Sum and lhs.left is rhs:
        d = _absorb_copy(b, rhs, lhs.right)
        if d is not None:
            return d
    keep = _shared_summands(lhs, rhs)
    xl, dl = _prove_lassoc(b, lhs, keep)
    xr, dr = _prove_lassoc(b, rhs, keep)
    if xl != xr:
        # the same summands in another order: both sides meet at lhs's
        # summands in the order they first occur in, 0 last
        rank = {}
        for x in xl:
            if x is not NIL:
                rank.setdefault(id(x), len(rank))

        def key(x):
            return rank.get(id(x), len(rank))

        dl = _prove_sorted(b, xl, dl, key)[1]
        dr = _prove_sorted(b, xr, dr, key)[1]
    return b.trans(dl, b.symm(dr))


# --- derived rules ----------------------------------------------------------------


@_derived
def _t1(b: Builder, a: Action, e: Expr) -> int:
    """a.tau.e = a.e via the branching axiom with an empty second summand."""
    s4 = b.axiom("S4", {"E": e})
    i1 = b.cong("prefix", b.symm(s4), TAU)  # tau.e = tau.(e+0)
    s4b = b.axiom("S4", {"E": Prefix(TAU, Sum(e, NIL))})
    i2 = b.trans(i1, b.symm(s4b))  # tau.e = tau.(e+0)+0
    i3 = b.cong("prefix", i2, a)  # a.tau.e = a.(tau.(e+0)+0)
    i4 = b.axiom("B", {"E": e, "F": NIL}, {"a": a})  # ... = a.(e+0)
    i5 = b.trans(i3, i4)
    i6 = b.cong("prefix", s4, a)  # a.(e+0) = a.e
    return b.trans(i5, i6)


def _loop_form(e: Expr) -> bool:
    """e is rec x.(tau.x + E): a loop in constructor form, but that x may
    occur in E."""
    return (isinstance(e, Rec) and isinstance(e.body, Sum)
            and e.body.left == Prefix(TAU, Var(e.binder)))


def is_loop_of_loop(e: Expr) -> bool:
    """e is rec x.(tau.x + rec y.(tau.y + E)) and x is not free in the
    inner recursion: the left-hand side of D6."""
    return (_loop_form(e) and _loop_form(e.body.right)
            and e.binder not in free_vars(e.body.right))


def _d6(b: Builder, lp: Expr) -> int:
    """lp = its inner loop, for a loop of a loop (`is_loop_of_loop`):
    R0 renames the outer binder when it clashes with the inner one, R7
    drops the outer silent self-step and R1 the outer recursion, whose
    binder the inner loop does not mention."""
    x, inner = lp.binder, lp.body.right
    steps = []
    if x == inner.binder:
        z = fresh_name(free_vars(inner) | {x})
        steps.append(b.axiom("R0", {"E": lp.body}, {"X": x, "Y": z}))
        x = z
    steps.append(b.axiom("R7", {"E": inner.body.right}, {"X": x, "Y": inner.binder}))
    steps.append(b.axiom("R1", {"E": inner}, {"X": x}))
    return b.chain(*steps)
