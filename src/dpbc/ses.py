"""The congruence prover: `prove_congruent` walks down both sides of a
pair to where they differ (`proof.walk`) and closes each difference by
a law (S1-S4, T1, D6; `_close`) or, at a pair that needs rooted
equivalence, by the root route (`_route`).  The root route past S1-S4
is in `route`, which is loaded the first time a pair needs it.
"""

from __future__ import annotations

from typing import Optional

from .syntax import Expr, Prefix, Sum, canon_leaves, flatten_sum
from .semantics import DEFAULT_BUDGET
from .equiv import RootedCheck, rooted_check
from .proof import Builder, _d6, _t1, is_loop_of_loop, prove_sum_eq, walk

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
    """The closer of `_walk` (see `proof.walk`): refl for equal sides;
    T1 (a.tau.E = a.E), with either side as its left-hand side, when it
    meets the other side exactly; D6 (loop(loop E) = loop E), or T1
    against a side a.F whose F is no silent prefix, as a law to go on
    from; S1-S4 alone for sums with the same summands; else None."""
    if e == f:
        return b.refl(e)
    sides = ((e, f, False), (f, e, True))
    for lhs, rhs, flip in sides:
        if _t1_shape(lhs, rhs) and lhs.body.body == rhs.body:
            d = _t1(b, lhs.act, rhs.body)
            return b.symm(d) if flip else d
    for lhs, rhs, flip in sides:
        if is_loop_of_loop(lhs) and not is_loop_of_loop(rhs):
            return _d6(b, lhs), flip, rhs
        if (_t1_shape(lhs, rhs)
                and not (isinstance(rhs.body, Prefix) and rhs.body.act.is_tau)):
            return _t1(b, lhs.act, lhs.body.body), flip, rhs
    # when two sums share a half, the other half holds what differs, and
    # the sums are not compared, so a wide sum costs no more than its depth
    shared = (isinstance(e, Sum) and isinstance(f, Sum)
              and (e.left == f.left or e.right == f.right))
    if (isinstance(e, Sum) or isinstance(f, Sum)) and not shared and _same_summands(e, f):
        return prove_sum_eq(b, e, f)
    return None


def _walk(b: Builder, e: Expr, f: Expr, budget: int, rc: Optional[RootedCheck]) -> int:
    """e = f by `proof.walk`, closed by `_close`, where a free variable
    that a recursion binds higher up counts as an exposure.  Any other
    pair needs rooted equivalence, so the walk checks the root the first
    time it meets one, unless `rc` is that check already:
    a pair that the laws alone close is never checked.  Pairs that laws
    and R0 alone lead to from the root are then known to hold, and any
    other is checked itself.  A pair that holds is proved by `_route`;
    when the root's check or the pair's fails, `_Fallback(rc)` is raised."""
    root = (e, f)

    def stuck(e: Expr, f: Expr, top: bool) -> int:
        nonlocal rc
        if rc is None:
            rc = rooted_check(*root, budget)
        if not rc.equal or not (top or rooted_check(e, f, budget).equal):
            raise _Fallback(rc)
        return _route(b, e, f, budget)

    return walk(b, e, f, _close, stuck)


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
