"""The axiom system as data: schema instantiation, derivations, checker.

A derivation is a sequence of steps, each an equation justified by
reflexivity, symmetry, transitivity, an axiom instance (with its
metavariable bindings and side conditions), or a one-hole congruence.
The checker re-instantiates every axiom step from its recorded bindings
and compares trees, so certificates are self-contained.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from .syntax import (
    Action,
    Expr,
    Nil,
    NIL,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    all_vars,
    free_vars,
    fresh_name,
    is_guarded_in,
    pretty,
    _is_identifier,
    _is_var_name,
    parse,
    substitute,
    summand_key,
)
from .semantics import step as sos_step
from .semantics import DEFAULT_BUDGET, _tau_reachable, exposes

# metavariables (expressions) and extras (binders / actions) per schema;
# its keys are the axiom ids
SCHEMA_PARAMS = {
    "S1": (("E", "F"), ()),
    "S2": (("E", "F", "G"), ()),
    "S3": (("E",), ()),
    "S4": (("E",), ()),
    "B": (("E", "F"), ("a",)),
    "R0": (("E",), ("X", "Y")),
    "R1": (("E",), ("X",)),
    "R2": (("E", "F"), ("X",)),
    "R3": (("E",), ("X",)),
    "R4": (("E", "F", "G"), ("X",)),
    "R5": (("E", "F"), ("X", "Y")),
    "R6": (("E",), ("X",)),
    "R7": (("E",), ("X", "Y")),
    "R8": (("E", "F"), ("X", "Y")),
}


class ProofError(Exception):
    pass


class MissingMeta(ProofError):
    pass


class SideCondition(ProofError):
    def __init__(self, axiom: str, detail: str):
        super().__init__(f"{axiom}: {detail}")
        self.axiom = axiom
        self.detail = detail


class MoveNotPresent(ProofError):
    pass


def _axiom_sides(axiom: str, meta: dict, extra: dict):
    """Both sides of the schema under the given instantiation, checking
    side conditions.  The R2 premise is validated by the checker."""
    if axiom not in SCHEMA_PARAMS:
        raise ProofError(f"unknown axiom {axiom!r}")
    metas, extras = SCHEMA_PARAMS[axiom]
    for m in metas:
        if m not in meta or not isinstance(meta[m], Expr):
            raise MissingMeta(f"{axiom} needs expression {m}")
    for x in extras:
        if x not in extra:
            raise MissingMeta(f"{axiom} needs {x}")
    E = meta.get("E")
    F = meta.get("F")
    G = meta.get("G")
    X = extra.get("X")
    Y = extra.get("Y")
    if axiom == "S1":
        return Sum(E, F), Sum(F, E)
    if axiom == "S2":
        return Sum(E, Sum(F, G)), Sum(Sum(E, F), G)
    if axiom == "S3":
        return Sum(E, E), E
    if axiom == "S4":
        return Sum(E, NIL), E
    if axiom == "B":
        a = extra["a"]
        if not isinstance(a, Action):
            raise MissingMeta("B needs an action for a")
        return Prefix(a, Sum(Prefix(TAU, Sum(E, F)), F)), Prefix(a, Sum(E, F))
    if axiom == "R0":
        if Y in free_vars(Rec(X, E)):
            raise SideCondition("R0", f"{Y} occurs free in the recursion")
        return Rec(X, E), Rec(Y, substitute(E, {X: Var(Y)}))
    if axiom == "R1":
        return Rec(X, E), substitute(E, {X: Rec(X, E)})
    if axiom == "R2":
        if not is_guarded_in(X, E):
            raise SideCondition("R2", f"{X} is not guarded in the body")
        return F, Rec(X, E)
    if axiom == "R3":
        return Rec(X, Sum(Var(X), E)), Rec(X, E)
    if axiom == "R4":
        if is_guarded_in(X, E):
            raise SideCondition("R4", f"{X} is guarded in the summand")
        return (
            Rec(X, Sum(Prefix(TAU, Sum(Prefix(TAU, E), F)), G)),
            Rec(X, Sum(Prefix(TAU, Sum(E, F)), G)),
        )
    if axiom == "R5":
        if X == Y:
            raise SideCondition("R5", "binders must be distinct")
        if is_guarded_in(X, E):
            raise SideCondition("R5", f"{X} is guarded in the summand")
        inner_l = Rec(Y, Sum(Prefix(TAU, Var(Y)), E))
        return (
            Rec(X, Sum(Prefix(TAU, inner_l), F)),
            Rec(X, Sum(Prefix(TAU, Rec(Y, E)), F)),
        )
    if axiom == "R6":
        return (
            Rec(X, Prefix(TAU, E)),
            Prefix(TAU, Rec(X, substitute(E, {X: Prefix(TAU, Var(X))}))),
        )
    if axiom == "R7":
        if X == Y:
            raise SideCondition("R7", "binders must be distinct")
        inner = Rec(Y, Sum(Prefix(TAU, Var(Y)), E))
        return Rec(X, Sum(Prefix(TAU, Var(X)), inner)), Rec(X, inner)
    # R8
    if X == Y:
        raise SideCondition("R8", "binders must be distinct")
    return (
        Rec(X, Rec(Y, Sum(Prefix(TAU, Sum(Var(X), E)), F))),
        Rec(X, Rec(Y, Sum(Prefix(TAU, Sum(Var(Y), E)), F))),
    )


# --- steps and derivations ----------------------------------------------------


# Each justification names the earlier steps it rests on (`refs`) and
# makes a copy whose step indices go through a map (`renumber`).


@dataclass(frozen=True)
class Refl:
    def refs(self) -> tuple:
        return ()

    def renumber(self, remap):
        return self


@dataclass(frozen=True)
class Symm:
    of: int

    def refs(self) -> tuple:
        return (self.of,)

    def renumber(self, remap):
        return Symm(remap[self.of])


@dataclass(frozen=True)
class Trans:
    first: int
    second: int

    def refs(self) -> tuple:
        return (self.first, self.second)

    def renumber(self, remap):
        return Trans(remap[self.first], remap[self.second])


@dataclass(frozen=True)
class AxiomStep:
    axiom: str
    meta: tuple  # ((name, Expr), ...)
    extra: tuple  # ((name, str | Action), ...)
    premise: Optional[int] = None

    def refs(self) -> tuple:
        return () if self.premise is None else (self.premise,)

    def renumber(self, remap):
        if self.premise is None:
            return self
        return AxiomStep(self.axiom, self.meta, self.extra, remap[self.premise])


@dataclass(frozen=True)
class Cong:
    pos: str  # a key of POSITIONS
    inner: int
    context: object  # of type POSITIONS[pos].kind

    def refs(self) -> tuple:
        return (self.inner,)

    def renumber(self, remap):
        return Cong(self.pos, remap[self.inner], self.context)


Just = Union[Refl, Symm, Trans, AxiomStep, Cong]


HOLE = "◻"  # white medium square


@dataclass(frozen=True)
class Position:
    """A congruence position: the type of its context, the certificate
    text around the context's value, and how the context wraps a term."""

    kind: type
    before: str
    after: str
    wrap: Callable


POSITIONS = {
    "prefix": Position(Action, "", f".{HOLE}", Prefix),  # a.◻
    "suml": Position(Expr, f"{HOLE} + ", "", lambda c, e: Sum(e, c)),  # ◻ + F
    "sumr": Position(Expr, "", f" + {HOLE}", Sum),  # F + ◻
    "recbody": Position(str, "rec ", f". {HOLE}", Rec),  # rec X. ◻
}


def plug(pos: str, context, e: Expr) -> Expr:
    """The context at position `pos` with e in its hole."""
    return POSITIONS[pos].wrap(context, e)


@dataclass(frozen=True)
class ProofStep:
    lhs: Expr
    rhs: Expr
    just: Just


@dataclass(frozen=True)
class Derivation:
    steps: tuple

    @property
    def conclusion(self):
        last = self.steps[-1]
        return (last.lhs, last.rhs)

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class CheckFailure:
    index: int
    reason: str

    def __str__(self):
        return f"step {self.index}: {self.reason}"


def instantiate_axiom(axiom: str, meta: Mapping, extra: Mapping,
                      premise: Optional[int] = None) -> ProofStep:
    """A single axiom step; raises on unknown ids, missing bindings or
    violated side conditions."""
    lhs, rhs = _axiom_sides(axiom, dict(meta), dict(extra))
    just = AxiomStep(
        axiom,
        tuple(sorted(meta.items())),
        tuple(sorted(extra.items())),
        premise,
    )
    return ProofStep(lhs, rhs, just)


def _check_step(steps, i) -> Optional[str]:
    st = steps[i]
    j = st.just
    if isinstance(j, Refl):
        if st.lhs != st.rhs:
            return "refl endpoints differ"
        return None
    if isinstance(j, Symm):
        if not 0 <= j.of < i:
            return "symm reference out of range"
        prev = steps[j.of]
        if st.lhs != prev.rhs or st.rhs != prev.lhs:
            return "symm endpoints do not mirror the referenced step"
        return None
    if isinstance(j, Trans):
        if not (0 <= j.first < i and 0 <= j.second < i):
            return "trans reference out of range"
        a, b = steps[j.first], steps[j.second]
        if a.rhs != b.lhs:
            return "trans endpoints do not meet"
        if st.lhs != a.lhs or st.rhs != b.rhs:
            return "trans endpoints differ from the referenced chain"
        return None
    if isinstance(j, AxiomStep):
        try:
            lhs, rhs = _axiom_sides(j.axiom, dict(j.meta), dict(j.extra))
        except ProofError as exc:
            return str(exc)
        if st.lhs != lhs or st.rhs != rhs:
            return f"{j.axiom} instance does not match the recorded bindings"
        if j.axiom == "R2":
            if j.premise is None or not 0 <= j.premise < i:
                return "R2 needs an earlier premise step"
            prem = steps[j.premise]
            meta = dict(j.meta)
            extra = dict(j.extra)
            if prem.lhs != st.lhs:
                return "R2 premise must share the left-hand side"
            expected = substitute(meta["E"], {extra["X"]: st.lhs})
            if prem.rhs != expected:
                return "R2 premise does not unfold the recursion body"
        elif j.premise is not None:
            return f"{j.axiom} takes no premise"
        return None
    if isinstance(j, Cong):
        if not 0 <= j.inner < i:
            return "cong reference out of range"
        if j.pos not in POSITIONS:
            return f"unknown congruence position {j.pos!r}"
        inner = steps[j.inner]
        if not (isinstance(j.context, POSITIONS[j.pos].kind)
                and st.lhs == plug(j.pos, j.context, inner.lhs)
                and st.rhs == plug(j.pos, j.context, inner.rhs)):
            return "congruence endpoints do not wrap the referenced step"
        return None
    return f"unknown justification {j!r}"


def check(derivation: Derivation) -> Optional[CheckFailure]:
    """None when every step is justified, else the first failure."""
    steps = derivation.steps
    if not steps:
        return CheckFailure(0, "empty derivation")
    for i in range(len(steps)):
        reason = _check_step(steps, i)
        if reason is not None:
            return CheckFailure(i, reason)
    return None


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
    comes back as the step that already proves its equation.

    Derived results (canonical sums, substitution lifts, T1 and axiom
    steps) are memoised per Builder.  This is exact: each producer is a
    pure function of its arguments and of the steps it reads, and steps
    never change once emitted, so a repeated call would get back the
    steps it got the first time, and the step list is the same with or
    without the memo.
    """

    def __init__(self):
        self.steps = []
        self._index = {}
        self._derived = {}

    def _emit(self, lhs: Expr, rhs: Expr, just: Just) -> int:
        key = (lhs, rhs)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.steps)
            self.steps.append(ProofStep(lhs, rhs, just))
            self._index[key] = idx
        return idx

    def endpoints(self, i: int):
        st = self.steps[i]
        return st.lhs, st.rhs

    def refl(self, e: Expr) -> int:
        return self._emit(e, e, Refl())

    def axiom(self, axiom: str, meta: Mapping, extra: Mapping = (),
              premise: Optional[int] = None) -> int:
        return self._axiom(axiom, tuple(sorted(meta.items())),
                           tuple(sorted(dict(extra).items())), premise)

    @_derived
    def _axiom(self, axiom: str, meta: tuple, extra: tuple,
               premise: Optional[int]) -> int:
        st = instantiate_axiom(axiom, dict(meta), dict(extra), premise)
        return self._emit(st.lhs, st.rhs, st.just)

    def symm(self, i: int) -> int:
        st = self.steps[i]
        return self._emit(st.rhs, st.lhs, Symm(i))

    def trans(self, i: int, j: int) -> int:
        a, b = self.steps[i], self.steps[j]
        if a.rhs != b.lhs:
            raise ProofError(
                f"cannot chain: {pretty(a.rhs)} vs {pretty(b.lhs)}")
        return self._emit(a.lhs, b.rhs, Trans(i, j))

    def chain(self, *idxs: int) -> int:
        acc = idxs[0]
        for i in idxs[1:]:
            acc = self.trans(acc, i)
        return acc

    def cong(self, pos: str, inner: int, context) -> int:
        st = self.steps[inner]
        if pos not in POSITIONS:
            raise ProofError(f"unknown congruence position {pos!r}")
        lhs, rhs = plug(pos, context, st.lhs), plug(pos, context, st.rhs)
        if isinstance(st.just, Refl):
            return self.refl(lhs)
        return self._emit(lhs, rhs, Cong(pos, inner, context))

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
        return self.steps[i].rhs

    def finalize(self, conclusion: int) -> Derivation:
        """Extract the reachable part of the derivation ending at the
        conclusion step."""
        needed = set()
        stack = [conclusion]
        while stack:
            i = stack.pop()
            if i not in needed:
                needed.add(i)
                stack.extend(self.steps[i].just.refs())
        order = sorted(needed)
        remap = {old: new for new, old in enumerate(order)}
        out = []
        for old in order:
            st = self.steps[old]
            out.append(ProofStep(st.lhs, st.rhs, st.just.renumber(remap)))
        return Derivation(tuple(out))


# --- sum rearrangement with proof ------------------------------------------------


def _prove_lassoc(b: Builder, e: Expr):
    """Flatten every nested sum onto the left spine; returns the
    left-nested tree and a step proving equality."""
    if not isinstance(e, Sum):
        return e, b.refl(e)
    cur = e
    acc = b.refl(e)
    while isinstance(cur.right, Sum):
        s2 = b.axiom("S2", {"E": cur.left, "F": cur.right.left, "G": cur.right.right})
        acc = b.trans(acc, s2)
        cur = Sum(Sum(cur.left, cur.right.left), cur.right.right)
    left2, dl = _prove_lassoc(b, cur.left)
    acc = b.trans(acc, b.cong("suml", dl, cur.right))
    return Sum(left2, cur.right), acc


def _prove_insert(b: Builder, tree: Expr, x: Expr):
    """Insert x into a sorted left-nested sum; proves Sum(tree, x) = result."""
    host = Sum(tree, x)
    if not isinstance(tree, Sum):
        if summand_key(x) >= summand_key(tree):
            return host, b.refl(host)
        return Sum(x, tree), b.axiom("S1", {"E": tree, "F": x})
    init, last = tree.left, tree.right
    if summand_key(x) >= summand_key(last):
        return host, b.refl(host)
    # (init + last) + x = init + (last + x) = init + (x + last) = (init + x) + last
    i1 = b.symm(b.axiom("S2", {"E": init, "F": last, "G": x}))
    i2 = b.cong("sumr", b.axiom("S1", {"E": last, "F": x}), init)
    i3 = b.axiom("S2", {"E": init, "F": x, "G": last})
    acc = b.chain(i1, i2, i3)
    inner, d = _prove_insert(b, init, x)
    acc = b.trans(acc, b.cong("suml", d, last))
    return Sum(inner, last), acc


def _prove_sort(b: Builder, e: Expr):
    """Insertion sort of a left-nested sum by summand order."""
    if not isinstance(e, Sum):
        return e, b.refl(e)
    init, last = e.left, e.right
    init2, d = _prove_sort(b, init)
    acc = b.cong("suml", d, last)
    res, d2 = _prove_insert(b, init2, last)
    return res, b.trans(acc, d2)


def _prove_compress(b: Builder, e: Expr):
    """Remove duplicate and empty summands from a sorted left-nested sum."""
    if not isinstance(e, Sum):
        return e, b.refl(e)
    init, last = e.left, e.right
    init2, d = _prove_compress(b, init)
    acc = b.cong("suml", d, last)
    cur = Sum(init2, last)
    if isinstance(last, Nil):
        return init2, b.trans(acc, b.axiom("S4", {"E": init2}))
    if init2 == last:
        return last, b.trans(acc, b.axiom("S3", {"E": last}))
    if isinstance(init2, Sum) and init2.right == last:
        # (I + x) + x = I + (x + x) = I + x
        i1 = b.symm(b.axiom("S2", {"E": init2.left, "F": last, "G": last}))
        i2 = b.cong("sumr", b.axiom("S3", {"E": last}), init2.left)
        return init2, b.chain(acc, i1, i2)
    return cur, acc


@_derived
def prove_canon(b: Builder, e: Expr):
    """Prove e equal to its canonical sum form (sorted, duplicate- and
    0-free, left-nested)."""
    flat, d1 = _prove_lassoc(b, e)
    sorted_, d2 = _prove_sort(b, flat)
    out, d3 = _prove_compress(b, sorted_)
    return out, b.chain(d1, d2, d3)


def prove_sum_eq(b: Builder, lhs: Expr, rhs: Expr) -> int:
    """Prove two sums equal when their canonical forms coincide."""
    cl, dl = prove_canon(b, lhs)
    cr, dr = prove_canon(b, rhs)
    if cl != cr:
        raise ProofError(
            f"sums differ beyond S1-S4: {pretty(lhs)} vs {pretty(rhs)}")
    return b.trans(dl, b.symm(dr))


# --- alpha bridging -----------------------------------------------------------


def prove_alpha(b: Builder, lhs: Expr, rhs: Expr) -> int:
    """Prove two alpha-equivalent expressions equal via explicit renaming
    steps and congruence."""
    if lhs == rhs:
        return b.refl(lhs)
    if isinstance(lhs, Prefix) and isinstance(rhs, Prefix) and lhs.act == rhs.act:
        return b.cong("prefix", prove_alpha(b, lhs.body, rhs.body), lhs.act)
    if isinstance(lhs, Sum) and isinstance(rhs, Sum):
        return b.sum_cong(prove_alpha(b, lhs.left, rhs.left),
                          prove_alpha(b, lhs.right, rhs.right))
    if isinstance(lhs, Rec) and isinstance(rhs, Rec):
        if lhs.binder == rhs.binder:
            return b.cong("recbody", prove_alpha(b, lhs.body, rhs.body), lhs.binder)
        ren = b.axiom("R0", {"E": lhs.body}, {"X": lhs.binder, "Y": rhs.binder})
        renamed = b.rhs_after(ren)
        inner = prove_alpha(b, renamed.body, rhs.body)
        return b.trans(ren, b.cong("recbody", inner, rhs.binder))
    raise ProofError(
        f"not alpha-equivalent: {pretty(lhs)} vs {pretty(rhs)}")


def align(b: Builder, i: int, want: Expr) -> int:
    """Extend step i to `want`, an alpha-variant of its right-hand side."""
    got = b.rhs_after(i)
    return i if got == want else b.trans(i, prove_alpha(b, got, want))


def _align_both(b: Builder, i: int, lhs: Expr, rhs: Expr) -> int:
    """Step i restated as lhs = rhs, alpha-variants of its two sides."""
    got = b.endpoints(i)
    if got == (lhs, rhs):
        return i
    return b.chain(prove_alpha(b, lhs, got[0]), i, prove_alpha(b, got[1], rhs))


def _app(b: Builder, total: int, path, inner: int) -> int:
    """Extend a chain by rewriting inside its current right-hand side."""
    return b.trans(total, b.rewrite_at(b.rhs_after(total), path, inner))


def _rec_cong(b: Builder, context: Rec, sigmas: tuple, lift) -> int:
    """context{sigmas[0]} = context{sigmas[1]} from `lift(body, s0, s1)`,
    which proves body{s0} = body{s1} for the sigmas without the binder.
    A binder that would capture a free name of a substituted value is
    first renamed to a name fresh for the body, the sigmas and the values."""
    y = context.binder
    s0, s1 = ({k: v for k, v in s.items() if k != y} for s in sigmas)
    free = frozenset().union(*map(free_vars, [*s0.values(), *s1.values()]))
    if y not in free:
        return b.cong("recbody", lift(context.body, s0, s1), y)
    z = fresh_name(all_vars(context.body) | free | set(s0) | set(s1) | {y})
    mid = b.cong("recbody", lift(substitute(context.body, {y: Var(z)}), s0, s1), z)
    return _align_both(
        b, mid, substitute(context, sigmas[0]), substitute(context, sigmas[1]))


@_derived
def prove_subst_cong(b: Builder, context: Expr, hole: str, inner: int) -> int:
    """Lift a proven equation into every free occurrence of `hole` in
    `context`: proves context{lhs/hole} = context{rhs/hole}."""
    if hole not in free_vars(context):
        return b.refl(context)
    if isinstance(context, Var):
        return inner
    if isinstance(context, Prefix):
        return b.cong(
            "prefix", prove_subst_cong(b, context.body, hole, inner), context.act)
    if isinstance(context, Sum):
        return b.sum_cong(prove_subst_cong(b, context.left, hole, inner),
                          prove_subst_cong(b, context.right, hole, inner))
    lhs, rhs = b.endpoints(inner)
    return _rec_cong(b, context, ({hole: lhs}, {hole: rhs}),
                    lambda body, *_: prove_subst_cong(b, body, hole, inner))


# --- substitution through derivations --------------------------------------------


def _sigma_key(sigma: dict):
    return tuple(sorted(sigma.items(), key=lambda kv: kv[0]))


def subst_step(b: Builder, i: int, sigma: dict) -> int:
    """Transform a proven equation under a simultaneous substitution:
    returns a step proving lhs{sigma} = rhs{sigma}."""
    st = b.steps[i]
    relevant = set(sigma) & (free_vars(st.lhs) | free_vars(st.rhs))
    sigma = {k: v for k, v in sigma.items() if k in relevant and v != Var(k)}
    if not sigma:
        return i
    return _subst_step(b, i, _sigma_key(sigma))


@_derived
def _subst_step(b: Builder, i: int, sigma_key: tuple) -> int:
    st = b.steps[i]
    sigma = dict(sigma_key)
    res = _subst_step_raw(b, i, sigma)
    tl, tr = substitute(st.lhs, sigma), substitute(st.rhs, sigma)
    got = b.endpoints(res)
    if got != (tl, tr):
        raise ProofError(
            f"substitution transform drifted: {pretty(got[0])} = {pretty(got[1])}"
            f" wanted {pretty(tl)} = {pretty(tr)}")
    return res


def _subst_step_raw(b: Builder, i: int, sigma: dict) -> int:
    st = b.steps[i]
    j = st.just
    tl = substitute(st.lhs, sigma)
    tr = substitute(st.rhs, sigma)
    if isinstance(j, Refl):
        return b.refl(tl)
    if isinstance(j, Symm):
        return b.symm(subst_step(b, j.of, sigma))
    if isinstance(j, Trans):
        return b.trans(
            subst_step(b, j.first, sigma),
            subst_step(b, j.second, sigma),
        )
    if isinstance(j, Cong):
        if not isinstance(j.context, str):
            ctx = substitute(j.context, sigma) if isinstance(j.context, Expr) else j.context
            return b.cong(j.pos, subst_step(b, j.inner, sigma), ctx)
        # a binder: it may need renaming away from the substitution
        y = z = j.context
        inner_st = b.steps[j.inner]
        sigma2 = {k: v for k, v in sigma.items() if k != y}
        if any(y in free_vars(v) for v in sigma2.values()):
            avoid = (
                all_vars(inner_st.lhs) | all_vars(inner_st.rhs) | set(sigma2) | {y})
            for v in sigma2.values():
                avoid |= free_vars(v)
            z = fresh_name(avoid)
            sigma2[y] = Var(z)
        out = b.cong(j.pos, subst_step(b, j.inner, sigma2), z)
        return _align_both(b, out, tl, tr)
    if isinstance(j, AxiomStep):
        return _subst_axiom(b, st, sigma)
    raise ProofError(f"unknown justification {j!r}")


def _subst_axiom(b: Builder, st: ProofStep, sigma: dict) -> int:
    j = st.just
    meta = dict(j.meta)
    extra = dict(j.extra)
    tl = substitute(st.lhs, sigma)
    tr = substitute(st.rhs, sigma)
    metas, extras = SCHEMA_PARAMS[j.axiom]
    binders = [x for x in extras if x != "a"]
    if not binders:
        meta2 = {m: substitute(v, sigma) for m, v in meta.items()}
        return b.axiom(j.axiom, meta2, extra)
    # rename schema binders to names untouched by the substitution
    avoid = set(sigma) | {extra[x] for x in binders}
    for v in sigma.values():
        avoid |= free_vars(v)
    for v in meta.values():
        avoid |= all_vars(v)
    ren = {}
    extra2 = dict(extra)
    for x in binders:
        z = fresh_name(avoid)
        avoid.add(z)
        ren[extra[x]] = Var(z)
        extra2[x] = z
    composed = {k: v for k, v in sigma.items() if k not in ren}
    composed.update(ren)
    meta2 = {m: substitute(v, composed) for m, v in meta.items()}
    premise2 = None
    if j.axiom == "R2":
        # align the premise with the renamed instance if needed
        premise2 = align(b, subst_step(b, j.premise, sigma),
                         substitute(meta2["E"], {extra2["X"]: tl}))
        meta2["F"] = tl
    return _align_both(b, b.axiom(j.axiom, meta2, extra2, premise2), tl, tr)


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


def derive_T1(a: Action, e: Expr) -> Derivation:
    """a.tau.e = a.e."""
    b = Builder()
    return b.finalize(_t1(b, a, e))


def _has_leaf(e: Expr, leaf: Expr) -> bool:
    """Is `leaf` (a.target or a variable) a move or an exposure of e?"""
    if isinstance(leaf, Var):
        return leaf.name in exposes(e)
    return (leaf.act, leaf.body) in sos_step(e)


def _not_present(e: Expr, leaf: Expr) -> MoveNotPresent:
    if isinstance(leaf, Var):
        return MoveNotPresent(f"{pretty(e)} does not expose {leaf.name}")
    return MoveNotPresent(f"{pretty(e)} has no {leaf.act} move to {pretty(leaf.body)}")


def _absorb_summand(b: Builder, e: Expr, leaf: Expr) -> int:
    """e = e + leaf, for a move a.target or an exposed variable of e,
    replaying the rule of `semantics.step` (or `exposes`) that derives it.

    A recursion's moves are its body's moves with the recursion
    substituted in, so its absorption is the body's, lifted by the same
    substitution; each call goes into a strict subterm.
    """
    if e == leaf:
        return b.symm(b.axiom("S3", {"E": e}))
    if isinstance(e, Sum):
        if _has_leaf(e.left, leaf):
            ih = _absorb_summand(b, e.left, leaf)
            i1 = b.cong("suml", ih, e.right)  # l+r = (l+leaf)+r
            i2 = b.symm(b.axiom("S2", {"E": e.left, "F": leaf, "G": e.right}))
            i3 = b.cong("sumr", b.axiom("S1", {"E": leaf, "F": e.right}), e.left)
            i4 = b.axiom("S2", {"E": e.left, "F": e.right, "G": leaf})
            return b.chain(i1, i2, i3, i4)
        if _has_leaf(e.right, leaf):
            ih = _absorb_summand(b, e.right, leaf)
            i1 = b.cong("sumr", ih, e.left)  # l+r = l+(r+leaf)
            i2 = b.axiom("S2", {"E": e.left, "F": e.right, "G": leaf})
            return b.chain(i1, i2)
    if isinstance(e, Rec):
        sigma = {e.binder: e}
        if isinstance(leaf, Var):
            inner = leaf if leaf.name in exposes(e) else None
        else:  # the body's move that step substitutes into leaf
            inner = next((Prefix(a, d) for a, d in sos_step(e.body)
                          if a == leaf.act and substitute(d, sigma) is leaf.body), None)
        if inner is not None:
            r1 = b.axiom("R1", {"E": e.body}, {"X": e.binder})  # e = unfolded
            ih = subst_step(b, _absorb_summand(b, e.body, inner), sigma)
            i1 = b.trans(r1, ih)  # e = unfolded + leaf
            i2 = b.cong("suml", b.symm(r1), leaf)
            return b.trans(i1, i2)
    raise _not_present(e, leaf)


def derive_summand_absorption(e: Expr, move) -> Derivation:
    """e = e + a.e' for a move of e, or e = e + X for an exposed variable."""
    leaf = Var(move) if isinstance(move, str) else Prefix(*move)
    b = Builder()
    return b.finalize(_absorb_summand(b, e, leaf))


def _tau_path_to_exposure(e: Expr, x: str):
    """Shortest silent path from e to an expression exposing x,
    deterministic by derivative order."""
    parent = {}
    for cur in _tau_reachable(e, DEFAULT_BUDGET, parent):
        if x in exposes(cur):
            path = [cur]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
    return None


def _d0(b: Builder, e: Expr, f: Expr, x: str) -> int:
    """rec x.(tau.e + f) = rec x.(tau.(x + e) + f), given that e reaches
    an exposure of x by silent moves.

    The witnessing silent path e -> e1 -> ... -> en is absorbed summand
    by summand, the exposed variable is added, and the path is removed
    again; every tau in front of a path state is eliminated with R4.
    """
    path = _tau_path_to_exposure(e, x)
    if path is None:
        raise SideCondition("D0", f"{x} is not reachable unguarded from {pretty(e)}")

    def lift(total: int, inner: int) -> int:
        return _app(b, total, ["rec", "suml", "prefix"], inner)

    total = b.refl(Rec(x, Sum(Prefix(TAU, e), f)))
    accs = [e]  # accs[i] is e + e1 + ... + ei
    for i in range(1, len(path)):
        ei = path[i]
        acc = accs[-1]
        total = lift(total, _absorb_summand(b, acc, Prefix(TAU, ei)))
        total = lift(
            total, prove_sum_eq(b, Sum(acc, Prefix(TAU, ei)), Sum(Prefix(TAU, ei), acc)))
        total = b.trans(
            total, b.axiom("R4", {"E": ei, "F": acc, "G": f}, {"X": x}))
        total = lift(total, prove_sum_eq(b, Sum(ei, acc), Sum(acc, ei)))
        accs.append(Sum(acc, ei))
    # expose the variable and move it to the front
    acc = accs[-1]
    total = lift(total, _absorb_summand(b, acc, Var(x)))
    total = lift(total, prove_sum_eq(b, Sum(acc, Var(x)), Sum(Var(x), acc)))
    # strip the path states from the back, re-introducing each tau with R4
    for i in range(len(path) - 1, 0, -1):
        ei = path[i]
        rest = Sum(Var(x), accs[i - 1])
        total = lift(total, prove_sum_eq(b, Sum(Var(x), accs[i]), Sum(ei, rest)))
        total = b.trans(
            total, b.symm(b.axiom("R4", {"E": ei, "F": rest, "G": f}, {"X": x})))
        total = lift(
            total, prove_sum_eq(b, Sum(Prefix(TAU, ei), rest), Sum(rest, Prefix(TAU, ei))))
        total = lift(total, b.symm(_absorb_summand(b, rest, Prefix(TAU, ei))))
    return total


def derive_D0(e: Expr, f: Expr, x: str) -> Derivation:
    """rec x.(tau.e + f) = rec x.(tau.(x + e) + f)."""
    b = Builder()
    return b.finalize(_d0(b, e, f, x))


# --- certificate file format --------------------------------------------------
#
#   term <n> <one constructor over @k, variables and 0>
#   step <n> <lhs> = <rhs> by refl
#   step <n> <lhs> = <rhs> by symm <k>
#   step <n> <lhs> = <rhs> by trans <k> <l>
#   step <n> <lhs> = <rhs> by axiom <ID> {E:=..., X:=..., a:=...} [premise <k>]
#   step <n> <lhs> = <rhs> by cong <pos> <k> in <context with hole, see POSITIONS>
#
# The term table comes first and writes every distinct compound subterm
# once, children before parents (`term 5 a.@3`, `term 6 @4 + @5`,
# `term 7 rec X. @6`): each body is one constructor over fields, and a
# field is `@k`, `0` or a variable.  Step sides, bindings and contexts
# are fields too.  A certificate without term lines writes whole
# expressions there instead, and the reader parses those as such.


def _write(value, ref) -> str:
    """A binding or context value: a field for an expression, else the
    action or binder name."""
    return ref(value) if isinstance(value, Expr) else str(value)


def _format_just(just: Just, ref) -> str:
    if isinstance(just, Refl):
        return "refl"
    if isinstance(just, Symm):
        return f"symm {just.of}"
    if isinstance(just, Trans):
        return f"trans {just.first} {just.second}"
    if isinstance(just, AxiomStep):
        parts = [f"{n}:={_write(v, ref)}" for n, v in just.meta + just.extra]
        text = f"axiom {just.axiom} {{{', '.join(parts)}}}"
        if just.premise is not None:
            text += f" premise {just.premise}"
        return text
    if isinstance(just, Cong):
        p = POSITIONS[just.pos]
        return f"cong {just.pos} {just.inner} in {p.before}{_write(just.context, ref)}{p.after}"
    raise ProofError(f"cannot format {just!r}")


def format_derivation(d: Derivation) -> str:
    lhs, rhs = d.conclusion
    lines = [f"# proves: {pretty(lhs)} = {pretty(rhs)}"]
    ids = {}

    def ref(e: Expr) -> str:
        """`@n` for a compound term, adding its `term` line on first use."""
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Nil):
            return "0"
        n = ids.get(e)
        if n is None:
            if isinstance(e, Prefix):
                body = f"{e.act}.{ref(e.body)}"
            elif isinstance(e, Sum):
                body = f"{ref(e.left)} + {ref(e.right)}"
            else:
                body = f"rec {e.binder}. {ref(e.body)}"
            n = ids[e] = len(ids)
            lines.append(f"term {n} {body}")
        return f"@{n}"

    steps = [f"step {i} {ref(st.lhs)} = {ref(st.rhs)} by {_format_just(st.just, ref)}"
             for i, st in enumerate(d.steps)]
    return "\n".join(lines + steps) + "\n"


class CertificateError(ValueError):
    pass


def _name(text: str, variable: bool) -> str:
    """`text` when the expression grammar can write it as a variable or
    binder name (`variable`) or as an action name (otherwise)."""
    if not _is_identifier(text) or _is_var_name(text) != variable:
        raise CertificateError(
            f"bad {'variable' if variable else 'action'} name {text!r}")
    return text


_REF = re.compile(r"@([0-9]+)")


def _field(text: str, terms: list) -> Expr:
    """The expression a field denotes: a term reference `@k`, `0` or a
    variable."""
    word = text.strip(" \t\r\n")
    if word == "0":
        return NIL
    m = _REF.fullmatch(word)
    if m is None:
        return Var(_name(word, True))
    if int(m[1]) >= len(terms):
        raise CertificateError(f"undefined term @{m[1]}")
    return terms[int(m[1])]


def _side(text: str, terms: list) -> Expr:
    """A step side, binding or sum context: a field, or a whole expression
    in a certificate without term lines."""
    return _field(text, terms) if terms else parse(text)


def _term(text: str, terms: list) -> Expr:
    """A `term` body: `F + F`, `a.F` or `rec X. F` over fields F."""
    left, plus, right = text.partition("+")
    if plus:
        return Sum(_field(left, terms), _field(right, terms))
    head, dot, body = text.partition(".")
    words = head.split()
    if dot and len(words) == 2 and words[0] == "rec":
        return Rec(_name(words[1], True), _field(body, terms))
    if dot and len(words) == 1:
        return Prefix(Action(_name(words[0], False)), _field(body, terms))
    raise CertificateError(f"bad term {text!r}")


def _read(kind: type, text: str, terms: list):
    """A binding or context value of the given type: an expression, an
    action name or a binder name."""
    if kind is Expr:
        return _side(text, terms)
    if kind is Action:
        return Action(_name(text, False))
    return _name(text.strip(), True)


def _parse_bindings(axiom: str, text: str, terms: list):
    metas, extras = SCHEMA_PARAMS[axiom]
    meta, extra = {}, {}
    text = text.strip()
    if text:
        for chunk in text.split(","):
            if ":=" not in chunk:
                raise CertificateError(f"bad binding {chunk!r}")
            name, value = chunk.split(":=", 1)
            name = name.strip()
            value = value.strip()
            if name in metas:
                meta[name] = _read(Expr, value, terms)
            elif name in extras:
                extra[name] = _read(Action if name == "a" else str, value, terms)
            else:
                raise CertificateError(f"{axiom} takes no parameter {name!r}")
    return meta, extra


def _parse_just(text: str, terms: list) -> Just:
    kind, _, rest = text.strip().partition(" ")
    if kind == "refl" and not rest:
        return Refl()
    if kind == "symm":
        return Symm(int(rest))
    if kind == "trans":
        a, b = rest.split()
        return Trans(int(a), int(b))
    if kind == "axiom":
        name, _, rest = rest.strip().partition(" ")
        if name not in SCHEMA_PARAMS:
            raise CertificateError(f"unknown axiom {name!r}")
        rest = rest.strip()
        premise = None
        if not rest.startswith("{") or "}" not in rest:
            raise CertificateError(f"missing bindings for {name}")
        body, _, tail = rest[1:].partition("}")
        tail = tail.strip()
        if tail:
            if not tail.startswith("premise "):
                raise CertificateError(f"unexpected trailer {tail!r}")
            premise = int(tail[8:].strip())
        meta, extra = _parse_bindings(name, body, terms)
        return AxiomStep(
            name, tuple(sorted(meta.items())), tuple(sorted(extra.items())), premise)
    if kind == "cong":
        pos, _, rest = rest.partition(" ")
        num, _, rest = rest.strip().partition(" ")
        inner = int(num)
        rest = rest.strip()
        if not rest.startswith("in "):
            raise CertificateError("congruence step is missing its context")
        ctx = rest[3:].strip()
        p = POSITIONS.get(pos)
        if p is None:
            raise CertificateError(f"unknown congruence position {pos!r}")
        if not (ctx.startswith(p.before) and ctx.endswith(p.after)):
            raise CertificateError(f"bad {pos} context {ctx!r}")
        value = ctx[len(p.before) : len(ctx) - len(p.after)]
        return Cong(pos, inner, _read(p.kind, value, terms))
    raise CertificateError(f"unknown justification {text!r}")


def parse_derivation(text: str) -> Derivation:
    """Read a certificate.  `term n` and `step n` lines are each numbered
    from 0 in order, and `@k` may name only a term defined above it."""
    terms, steps = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if kind not in ("term", "step"):
            raise CertificateError(f"unexpected line {line!r}")
        num, _, rest = rest.partition(" ")
        try:
            expected = len(terms) if kind == "term" else len(steps)
            if int(num) != expected:
                raise CertificateError(f"{kind} numbered {num} but {expected} expected")
            if kind == "term":
                if steps:
                    raise CertificateError(f"term {num} follows a step")
                terms.append(_term(rest, terms))
                continue
            body, sep, just_text = rest.rpartition(" by ")
            if not sep:
                raise CertificateError(f"step {num} has no justification")
            if " = " not in body:
                raise CertificateError(f"step {num} is not an equation")
            lhs_text, _, rhs_text = body.partition(" = ")
            steps.append(ProofStep(_side(lhs_text, terms), _side(rhs_text, terms),
                                   _parse_just(just_text, terms)))
        except ValueError as exc:
            if isinstance(exc, CertificateError):
                raise
            raise CertificateError(f"malformed {kind} {num!r}: {exc}") from exc
    if not steps:
        raise CertificateError("certificate has no steps")
    return Derivation(tuple(steps))
