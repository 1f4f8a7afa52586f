"""The congruence prover: `prove_congruent` walks down both sides of a
pair to where they differ and closes each difference by a law (S1-S4,
T1, D6) or, at a pair that needs rooted equivalence, by the root route
(`_route`).  The root route past S1-S4 is in `route`, which is loaded
the first time a pair needs it.
"""

from __future__ import annotations

from typing import Optional

from .syntax import Expr, Prefix, Rec, Sum, canon_leaves, flatten_sum, free_vars
from .semantics import DEFAULT_BUDGET
from .equiv import RootedCheck, rooted_check
from .proof import Builder, _d6, _t1, is_loop_of_loop, prove_sum_eq

# the routines of the root route that `ses` still answers to, for
# callers that look them up here (the layer spans of
# `perfbench/spans.py`); they are not bound in this module
_ROUTE_NAMES = frozenset(
    {"_absorb_into", "_promote", "_extract_into", "_Quotient", "_prove_unique"})


def __getattr__(name):
    if name in _ROUTE_NAMES:
        from . import route

        return getattr(route, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _same_summands(e: Expr, f: Expr) -> bool:
    """e and f are sums of the same summands up to order, grouping, 0s
    and repeats: S1-S4 alone prove them equal."""
    return canon_leaves(flatten_sum(e)) == canon_leaves(flatten_sum(f))


def _route(b: Builder, e: Expr, f: Expr, budget: int) -> int:
    """e = f for rooted-equivalent e and f, proved at their roots: by
    S1-S4 alone when their sums have the same summands, otherwise by
    `route._absorb_both`, which standardizes each side once and absorbs
    it into the other."""
    if _same_summands(e, f):
        return prove_sum_eq(b, e, f)
    from .route import _absorb_both

    return _absorb_both(b, e, f, budget)


class _Fallback(Exception):
    """The walk met a pair that it does not prove here: the root is not
    rooted-equivalent, or a pair below it is not.  Its one argument is
    the root's rooted check."""


def _t1_shape(lhs: Expr, rhs: Expr) -> bool:
    """lhs is a.tau.E and rhs is a.F: T1 applies to lhs."""
    return (isinstance(lhs, Prefix) and isinstance(rhs, Prefix) and lhs.act == rhs.act
            and isinstance(lhs.body, Prefix) and lhs.body.act.is_tau)


def _close(b: Builder, e: Expr, f: Expr):
    """(d, flip, rest) for the first law that applies to e = f, with
    either side as its left-hand side (f when `flip`), or None.  T1
    (a.tau.E = a.E) when it meets the other side exactly: d proves the
    pair, read from the left-hand side, and `rest` is None.  Otherwise
    D6 (loop(loop E) = loop E), or T1 against a side a.F whose F is no
    silent prefix: d proves the law on the left-hand side, and the walk
    goes on from what it leaves to `rest`, the other side."""
    sides = ((e, f, False), (f, e, True))
    for lhs, rhs, flip in sides:
        if _t1_shape(lhs, rhs) and lhs.body.body == rhs.body:
            return _t1(b, lhs.act, rhs.body), flip, None
    for lhs, rhs, flip in sides:
        if is_loop_of_loop(lhs) and not is_loop_of_loop(rhs):
            return _d6(b, lhs), flip, rhs
        if (_t1_shape(lhs, rhs)
                and not (isinstance(rhs.body, Prefix) and rhs.body.act.is_tau)):
            return _t1(b, lhs.act, lhs.body.body), flip, rhs
    return None


# what a pending lift does with the proof of its sub-pair
_CONG, _THEN, _RIGHT, _SUM = range(4)


def _walk(b: Builder, e: Expr, f: Expr, budget: int, rc: Optional[RootedCheck]) -> int:
    """e = f, proved only where the two sides differ.  The walk goes down
    both sides while they share a constructor: a prefix with the same
    action, a sum by both halves, a recursion by its body after R0 when
    only the binders differ.  A pair that one law closes (`_close`) or
    S1-S4 alone proves stops it.  A free variable of the pair that a
    recursion binds higher up counts as an exposure.

    Any other pair needs rooted equivalence, so the walk checks the
    root the first time it meets one, unless `rc` is that check already:
    a pair that the laws alone close is never checked.  Pairs that laws
    and R0 alone lead to from the root are then known to hold, and any
    other is checked itself.  A pair that holds is proved by `_route`;
    when the root's check or the pair's fails, `_Fallback(rc)` is raised.

    The walk keeps its own stack of pending lifts, innermost last, so a
    term of any depth costs no interpreter stack: a congruence step, a
    law to chain in front (then a symmetry when the law was read from
    f), or a sum whose right halves are still to walk or whose left
    half is proved.  Steps are emitted in the order of a recursive walk
    that proves the left half of a sum first."""
    lifts = []
    root, known = (e, f), True
    while True:
        # down from (e, f) to a pair proved outright
        while True:
            if e == f:
                d = b.refl(e)
                break
            law = _close(b, e, f)
            if law is not None:
                d, flip, rest = law
                if rest is None:
                    d = b.symm(d) if flip else d
                    break
                lifts.append((_THEN, d, flip))
                e, f = b.rhs_after(d), rest
                continue
            if isinstance(e, Sum) and isinstance(f, Sum):
                # when the sides share a half, the other half holds what
                # differs, and the sums are not compared, so a wide sum
                # costs no more than its depth
                if e.left != f.left and e.right != f.right and _same_summands(e, f):
                    d = prove_sum_eq(b, e, f)
                    break
                lifts.append((_RIGHT, e.right, f.right))
                e, f, known = e.left, f.left, False
                continue
            if (isinstance(e, Sum) or isinstance(f, Sum)) and _same_summands(e, f):
                d = prove_sum_eq(b, e, f)
                break
            if isinstance(e, Prefix) and isinstance(f, Prefix) and e.act == f.act:
                lifts.append((_CONG, "prefix", e.act))
                e, f, known = e.body, f.body, False
                continue
            if isinstance(e, Rec) and isinstance(f, Rec):
                if e.binder == f.binder:
                    lifts.append((_CONG, "recbody", e.binder))
                    e, f, known = e.body, f.body, False
                    continue
                if f.binder not in free_vars(e):
                    d = b.axiom("R0", {"E": e.body}, {"X": e.binder, "Y": f.binder})
                    lifts.append((_THEN, d, False))
                    e = b.rhs_after(d)
                    continue
            if rc is None:
                rc = rooted_check(*root, budget)
            if not rc.equal or not (known or rooted_check(e, f, budget).equal):
                raise _Fallback(rc)
            d = _route(b, e, f, budget)
            break
        # up through the pending lifts, to the next right halves to walk
        while lifts:
            kind, x, y = lifts.pop()
            if kind is _CONG:
                d = b.cong(x, d, y)
            elif kind is _THEN:
                d = b.trans(x, d)
                if y:
                    d = b.symm(d)
            elif kind is _SUM:
                d = b.sum_cong(x, d)
            else:
                lifts.append((_SUM, d, None))
                e, f, known = x, y, False
                break
        else:
            return d


def prove_congruent(e: Expr, f: Expr, budget: int = DEFAULT_BUDGET,
                    rc: Optional[RootedCheck] = None):
    """A checkable derivation of e = f when they are rooted-equivalent,
    otherwise the failing rooted check.  `rc`, when given, is
    `rooted_check(e, f, budget)` made by the caller, and is not made
    again.

    Rooted equivalence is a congruence, so the proof goes down both
    sides to where they differ (`_walk`) and lifts what it proves there
    through one congruence step per level.  The walk checks the root
    only when it stops at a pair that the laws leave open: the axioms
    are sound, so a certificate that the laws alone close needs no
    check, and `budget` is not met.  A failing check is returned.  When
    a pair down there is not rooted-equivalent, the walk is dropped and
    the root route (`_route`) proves the whole pair on a fresh builder,
    so at most one rooted check fails per call."""
    if rc is not None and not rc.equal:
        return rc
    b = Builder()
    try:
        return b.finalize(_walk(b, e, f, budget, rc))
    except _Fallback as stop:
        rc, = stop.args
        if not rc.equal:
            return rc
    b = Builder()
    return b.finalize(_route(b, e, f, budget))
