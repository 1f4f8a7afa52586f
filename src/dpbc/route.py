"""The root route of the congruence prover: standard equation systems,
their solutions, the quotient by solution equivalence and uniqueness of
solutions (R2), with which `_promote` proves tau.e = tau.f for
equivalent guarded e and f, and `_absorb_both` proves a rooted-equivalent
pair equal at its root.  `ses._route` loads this module the first time a
pair needs more than S1-S4 at its root.
"""

from __future__ import annotations

from itertools import count

from .syntax import (
    Expr, Nil, Prefix, Rec, Sum, TAU, Value, Var, _set, all_vars, canon_leaves, compose_sum,
    flatten_sum, free_vars, is_guarded_in, is_loop, loop, loop_body, pretty, substitute)
from .semantics import Lts, _reach, _tau_sccs, exposes
from .semantics import step as sos_step
from .equiv import Partition, bisimilarity, equivalent
from .kernel import ProofError
from .proof import Builder, _t1, prove_sum_eq
from .standardize import (
    NotGuarded, _absorb_along, _app, _d2, _d5, _hnf, _meet_loops, _rec_cong, _standardize,
    align, prove_loop_canonical, prove_subst_cong)


class SesSystem(Value):
    """A standard equation system over distinct formal variables:
    `from_equations` checks that every right-hand side is a sum of
    prefixes over formals plus non-formal variables, optionally inside a
    loop, and that the system is guarded.

    `lts` is the system as a transition system: state i is formal i,
    its moves are the prefixes of its equation plus a silent self-step
    when the equation is a loop, and it exposes the equation's
    non-formal variables.  `rhs` is not changed after construction."""

    _fields = ("formals", "rhs", "lts")
    __slots__ = _fields + ("_successors",)

    def __init__(self, formals: tuple, rhs: dict, lts: Lts):
        if len(set(formals)) != len(formals):
            raise ValueError(f"duplicate formal variables in {formals}")
        if set(formals) != set(rhs):
            raise ValueError("the formal variables and the equations differ")
        _set(self, "formals", formals)
        _set(self, "rhs", rhs)
        _set(self, "lts", lts)
        _set(self, "_successors", {
            x: tuple(sorted(y for y in free_vars(rhs[x])
                            if y in rhs and not is_guarded_in(y, rhs[x])))
            for x in formals})

    def unguarded_successors(self, x: str) -> tuple:
        """Formal variables occurring unguarded in the rhs of x."""
        return self._successors[x]

    def is_guarded(self) -> bool:
        """The unguarded-occurrence relation admits no cycle: none of its
        components holds two formals, and no formal is its own successor."""
        succ = self._successors
        return all(len(comp) == 1 and comp[0] not in succ[comp[0]]
                   for comp in _tau_sccs(succ))

    @staticmethod
    def from_equations(formals, rhs) -> "SesSystem":
        fs = tuple(formals)
        index = {x: i for i, x in enumerate(fs)}
        transitions = set()
        exposure = []
        for i, x in enumerate(fs):
            body = rhs[x]
            if isinstance(body, Rec) and is_loop(body):
                transitions.add((i, TAU, i))
                body = loop_body(body)
            exposed = set()
            for leaf in flatten_sum(body):
                if (isinstance(leaf, Prefix) and isinstance(leaf.body, Var)
                        and leaf.body.name in index):
                    transitions.add((i, leaf.act, index[leaf.body.name]))
                elif isinstance(leaf, Var) and leaf.name not in index:
                    exposed.add(leaf.name)
                elif not isinstance(leaf, Nil):
                    raise ValueError(
                        f"{x} has a non-standard right-hand side: {pretty(rhs[x])}")
            exposure.append(frozenset(exposed))
        transitions = tuple(sorted(transitions, key=lambda t: (t[0], t[1].key, t[2])))
        lts = Lts(fs, transitions, tuple(exposure), 0 if fs else None)
        sys = SesSystem(fs, dict(rhs), lts)
        if not sys.is_guarded():
            raise NotGuarded("equation system has an unguarded cycle")
        return sys


# --- extraction -----------------------------------------------------------------


def _extract_into(b: Builder, roots):
    """(formals, rhs, sols, ders): one formal per state that `roots` reach
    under `semantics.step`, numbered breadth first, the roots' first.  A
    formal's equation sums the state's moves onto formals and its exposed
    variables, inside a loop when the state steps silently to itself; its
    solution is the state, and `ders` holds the steps of `b` that prove
    each solution equal to its filled equation."""
    states = _reach(roots, lambda s: [t for _, t in sos_step(s)])
    # one walk over the states' shared subterms
    used = all_vars(compose_sum(states))
    names = (x for x in map("_X{}".format, count()) if x not in used)
    formal = {s: next(names) for s in states}
    sols = {x: s for s, x in formal.items()}

    def meet(e: Expr, filled: Expr) -> int:
        """e = filled, through e's head normal form."""
        hnf = _hnf(b, e)
        return b.trans(hnf, prove_sum_eq(b, b.rhs_after(hnf), filled))

    rhs, ders = {}, {}
    for s, x in formal.items():
        moves = sos_step(s)
        body = compose_sum(canon_leaves(
            [Prefix(a, Var(formal[t])) for a, t in moves if (a, t) != (TAU, s)]
            + [Var(w) for w in exposes(s)]))
        filled = substitute(body, sols)
        if (TAU, s) not in moves:
            rhs[x], ders[x] = body, meet(s, filled)
        elif is_loop(s):
            rhs[x] = loop(body)
            cl, dcanon = prove_loop_canonical(b, s)
            total = _app(b, dcanon, ["rec", "sumr"], meet(cl.body.right, filled))
            ders[x] = align(b, total, substitute(rhs[x], sols))
        else:
            raise ProofError(f"{pretty(s)} steps silently to itself but is no loop")
    return list(sols), rhs, sols, ders


# --- solving --------------------------------------------------------------------


def _live(order, rhs, roots) -> list:
    """The formals reachable from `roots` through the free formals of each
    right-hand side, in system order.  The set is closed under that
    dependency, so its equations form a system of their own."""
    formals = set(order)
    seen = set(_reach(roots, lambda x: free_vars(rhs[x]) & formals))
    return [x for x in order if x in seen]


def _solve_any(b: Builder, order, rhs):
    """Provable solutions for an arbitrary system, by eliminating the
    formals with recursion and closing each equation by unfolding."""
    order = list(order)
    work = dict(rhs)
    recs = {}
    for i in range(len(order) - 1, -1, -1):
        x = order[i]
        recs[x] = Rec(x, work[x])
        for j in range(i):
            work[order[j]] = substitute(work[order[j]], {x: recs[x]})
    sols = {}
    ders = {}
    for i, x in enumerate(order):
        partial = {order[j]: sols[order[j]] for j in range(i)}
        sols[x] = substitute(recs[x], partial)
        body = substitute(work[x], partial)
        if sols[x] != Rec(x, body):
            raise ProofError("solution shape drifted during elimination")
        ders[x] = b.axiom("R1", {"E": body}, {"X": x})
    # bridge each unfolding to the original equation, now that every
    # solution is known
    return sols, {x: align(b, ders[x], substitute(rhs[x], sols)) for x in order}


# --- classes of formals ---------------------------------------------------------------


def formal_classes(s: SesSystem) -> Partition:
    """Solution equivalence of the formal variables, decided on the
    system's own transition system."""
    return bisimilarity(s.lts, "dpbb")


def _class_of(s: SesSystem, part: Partition):
    return {x: part.class_of[i] for i, x in enumerate(s.formals)}


def bottom_variables(s: SesSystem, classes: Partition):
    """One designated bottom variable per class of formals: the least
    formal, in system order, with no equivalent unguarded successor."""
    cls = _class_of(s, classes)
    bottoms = {}
    for x in s.formals:
        succs = s.unguarded_successors(x)
        if all(cls[y] != cls[x] for y in succs):
            bottoms.setdefault(cls[x], x)
    for x in s.formals:
        if cls[x] not in bottoms:
            raise ProofError(f"class of {x} has no bottom variable")
    return bottoms


def derivatives(s: SesSystem, classes: Partition, x: str):
    """(stutter, rest): the silent moves of x's equation that stay in
    x's class, and its other moves plus its exposed variables, as
    canonical sums over the formals.  A loop's own silent step is in
    neither."""
    i = s.formals.index(x)
    cls = classes.class_of
    stutter, rest = [], []
    for a, j in s.lts.succ(i):
        if (a, j) == (TAU, i):
            continue
        (stutter if a.is_tau and cls[j] == cls[i] else rest).append(
            Prefix(a, Var(s.formals[j])))
    rest += map(Var, s.lts.exposure[i])
    return compose_sum(canon_leaves(stutter)), compose_sum(canon_leaves(rest))


# --- quotient construction ----------------------------------------------------------


class _Quotient:
    """Carrier for the quotient computation on one system."""

    def __init__(self, s: SesSystem, b: Builder):
        self.s = s
        self.b = b
        self.classes = formal_classes(s)
        self.cls = _class_of(s, self.classes)
        self.bottoms = bottom_variables(s, self.classes)
        class_ids = sorted({self.cls[x] for x in s.formals})
        self.class_ids = class_ids
        # one walk over the equations' shared subterms
        used = all_vars(compose_sum(s.rhs.values())) | set(s.formals)
        names = (z for z in map("_q{}".format, count()) if z not in used)
        self.zvar = {c: next(names) for c in class_ids}
        zmap = {y: Var(self.zvar[self.cls[y]]) for y in s.formals}
        self.quot_formals = tuple(self.zvar[c] for c in class_ids)
        self.quot_rhs = {
            self.zvar[c]: substitute(s.rhs[self.bottoms[c]], zmap) for c in class_ids
        }
        sols, ders = _solve_any(self.b, self.quot_formals, self.quot_rhs)
        self.bsol = {c: sols[self.zvar[c]] for c in class_ids}
        self.bmap = {y: self.bsol[self.cls[y]] for y in s.formals}
        # equality (2): each designated equation holds for the solutions
        self.eq2 = {
            c: align(self.b, ders[self.zvar[c]], self.fillb(self.bottoms[c]))
            for c in class_ids
        }

    # -- filled derivative sums --------------------------------------------

    def filled(self, x: str):
        f0, f1 = derivatives(self.s, self.classes, x)
        return substitute(f0, self.bmap), substitute(f1, self.bmap)

    def fillb(self, x: str) -> Expr:
        return substitute(self.s.rhs[x], self.bmap)

    def clause_split(self, x: str) -> int:
        """The filled equation equals its split into derivative sums
        (wrapped in a loop when the equation is in loop form)."""
        b = self.b
        f0, f1 = self.filled(x)
        fx = self.fillb(x)
        if not isinstance(self.s.rhs[x], Rec):
            return prove_sum_eq(b, fx, Sum(f0, f1))
        if not is_loop(fx):
            raise ProofError("filled loop equation lost its shape")
        idx = b.rewrite_at(
            fx, ["rec", "sumr"], prove_sum_eq(b, fx.body.right, Sum(f0, f1)))
        return align(b, idx, loop(Sum(f0, f1)))

    def clause_stutter(self, x: str) -> int:
        """A non-bottom stutter sum collapses to one silent step onto the
        common solution of its class."""
        b = self.b
        f0, _ = self.filled(x)
        return prove_sum_eq(b, f0, Prefix(TAU, self.bsol[self.cls[x]]))

    def clause_absorb(self, x: str) -> int:
        """The filled equation absorbs its own non-stuttering summands:
        F{B} = F{B} + F1{B}."""
        _, f1 = self.filled(x)
        return _absorb_along(self.b, self.clause_split(x), f1)

    def equality3(self, x: str) -> int:
        """tau.(filled equation of x) = tau.(filled designated equation)."""
        b = self.b
        c = self.cls[x]
        xi = self.bottoms[c]
        loop_x = isinstance(self.s.rhs[x], Rec)
        loop_i = isinstance(self.s.rhs[xi], Rec)
        is_bottom = x == xi or all(
            self.cls[y] != c for y in self.s.unguarded_successors(x))
        if x == xi:
            return b.refl(Prefix(TAU, self.fillb(x)))
        f0x, f1x = self.filled(x)
        f0i, f1i = self.filled(xi)
        fxi = self.fillb(xi)
        if is_bottom:
            # the stutter sums are empty and the rest coincide as sets,
            # so both sides meet at one canonical sum (loop) directly
            if loop_x != loop_i:
                raise ProofError("bottom variables of one class disagree on loops")
            if not loop_x:
                meet = prove_sum_eq(b, self.fillb(x), fxi)
            else:
                meet = _meet_loops(b, self.fillb(x), fxi)
            return b.cong("prefix", meet, TAU)
        if not loop_x:
            # expand the stutter step onto the designated equation and
            # absorb the leftover summands with the branching axiom
            total = b.cong("prefix", self.clause_split(x), TAU)
            total = _app(b, total, ["prefix", "suml"], self.clause_stutter(x))
            total = _app(b, total, ["prefix", "suml", "prefix"], self.eq2[c])
            total = _app(b, total, ["prefix", "suml", "prefix"],
                         self.clause_absorb(xi))
            grown = Sum(fxi, f1i)
            total = _app(b, total, ["prefix", "suml", "prefix"],
                         prove_sum_eq(b, grown, Sum(grown, f1x)))
            total = b.trans(
                total, b.axiom("B", {"E": grown, "F": f1x}, {"a": TAU}))
            total = _app(b, total, ["prefix"],
                         prove_sum_eq(b, Sum(grown, f1x), grown))
            total = _app(b, total, ["prefix"],
                         b.symm(self.clause_absorb(xi)))
            return total
        # x's equation is a loop, hence so is the designated one
        if not loop_i:
            raise ProofError("a loop equation met a loop-free designated bottom")
        total = b.cong("prefix", self.clause_split(x), TAU)
        total = _app(b, total, ["prefix", "rec", "sumr", "suml"],
                     self.clause_stutter(x))
        total = _app(b, total, ["prefix", "rec", "sumr", "suml", "prefix"],
                     self.eq2[c])
        total = _app(b, total, ["prefix", "rec", "sumr", "suml", "prefix"],
                     self.clause_split(xi))
        lpi = loop(Sum(f0i, f1i))
        dropnil = b.rewrite_at(
            lpi, ["rec", "sumr"], prove_sum_eq(b, Sum(f0i, f1i), Sum(f1i, f1x)))
        total = _app(b, total, ["prefix", "rec", "sumr", "suml", "prefix"], dropnil)
        # both loop layers now match the derived-rule shape
        lp_mid = loop(Sum(f1i, f1x))
        outer_target = loop(Sum(Prefix(TAU, lp_mid), f1x))
        total = align(b, total, Prefix(TAU, outer_target))
        total = _app(b, total, ["prefix"], _d5(b, f1i, f1x))
        # duplicate the tail inside the merged loop for the branching axiom
        dd2 = _absorb_along(b, _d2(b, lp_mid), f1x)
        total = _app(b, total, ["prefix", "suml", "prefix"], dd2)
        total = b.trans(
            total, b.axiom("B", {"E": lp_mid, "F": f1x}, {"a": TAU}))
        total = _app(b, total, ["prefix"], b.symm(dd2))
        # shrink the loop body back to the designated equation
        shrink = b.rewrite_at(
            lp_mid, ["rec", "sumr"],
            prove_sum_eq(b, Sum(f1i, f1x), Sum(f0i, f1i)))
        total = _app(b, total, ["prefix"], shrink)
        total = align(b, total, Prefix(TAU, lpi))
        total = _app(b, total, ["prefix"], b.symm(self.clause_split(xi)))
        return total

    def common_solutions(self):
        """For every formal X: (tau.B, derivation that it provably solves
        the silent-prefixed system for X)."""
        b = self.b
        taumap = {y: Prefix(TAU, self.bmap[y]) for y in self.s.formals}
        out = {}
        for x in self.s.formals:
            c = self.cls[x]
            sol = Prefix(TAU, self.bsol[c])
            idx = b.cong("prefix", self.eq2[c], TAU)  # tau.B = tau.F_Xi{B}
            idx = b.trans(idx, b.symm(self.equality3(x)))  # ... = tau.F_X{B}
            pad = _pad_tau(b, self.s.rhs[x], self.bmap, taumap)
            idx = b.trans(idx, b.cong("prefix", pad, TAU))
            out[x] = (sol, idx)
        return out


def _pad_tau(b: Builder, template: Expr, sigma1: dict, sigma2: dict) -> int:
    """template{sigma1} = template{sigma2}, where sigma2 silently prefixes
    every value of sigma1; the substituted variables occur only under
    prefixes in the template."""
    if not (free_vars(template) & set(sigma1)):
        return b.refl(substitute(template, sigma1))
    if isinstance(template, Prefix):
        if isinstance(template.body, Var) and template.body.name in sigma1:
            return b.symm(_t1(b, template.act, sigma1[template.body.name]))
        return b.cong(
            "prefix", _pad_tau(b, template.body, sigma1, sigma2), template.act)
    if isinstance(template, Sum):
        return b.sum_cong(_pad_tau(b, template.left, sigma1, sigma2),
                          _pad_tau(b, template.right, sigma1, sigma2))
    if isinstance(template, Rec):
        return _rec_cong(b, template, (sigma1, sigma2),
                         lambda body, s1, s2: _pad_tau(b, body, s1, s2))
    raise ProofError("template contains a formal variable in a bare position")


# --- uniqueness of solutions ---------------------------------------------------------


def _prove_unique(b: Builder, order, rhs, fam_d, fam_e, der_d, der_e, target) -> int:
    """Given two provable-solution families of a guarded system, derive
    the equality of their values at the target formal.  Only the target's
    live cone is eliminated: the other equations never reach it."""
    order = _live(order, rhs, (target,))
    rhs = {z: rhs[z] for z in order}
    fam_d = {z: fam_d[z] for z in order}
    fam_e = {z: fam_e[z] for z in order}
    der_d = {z: der_d[z] for z in order}
    der_e = {z: der_e[z] for z in order}

    def close(fam, der, m):
        """fam_m = (rec m. rhs_m){fam without m}, by fixpoint induction."""
        others = {z: fam[z] for z in order if z != m}
        fm = substitute(rhs[m], others)
        if not is_guarded_in(m, fm):
            raise NotGuarded(f"{m} is unguarded in its own equation")
        prem = align(b, der[m], substitute(fm, {m: fam[m]}))
        idx = b.axiom("R2", {"E": fm, "F": fam[m]}, {"X": m}, premise=prem)
        return align(b, idx, substitute(Rec(m, rhs[m]), others))

    while len(order) > 1:
        m = next(z for z in reversed(order) if z != target)
        l = Rec(m, rhs[m])
        dm = close(fam_d, der_d, m)
        em = close(fam_e, der_e, m)
        order.remove(m)
        del rhs[m]
        # an equation without m keeps its derivation: every later use
        # aligns it first
        new_rhs = {z: substitute(rhs[z], {m: l})
                   for z in order if m in free_vars(rhs[z])}
        for fam, der, dstar in ((fam_d, der_d, dm), (fam_e, der_e, em)):
            others = {z: fam[z] for z in order}
            for z in new_rhs:
                k = substitute(rhs[z], others)
                idx = align(b, der[z], substitute(k, {m: fam[m]}))
                idx = b.trans(idx, prove_subst_cong(b, k, m, dstar))
                der[z] = align(b, idx, substitute(new_rhs[z], others))
            del fam[m]
            del der[m]
        rhs.update(new_rhs)
    m = order[0]
    if m != target:
        raise ProofError("target formal was eliminated")
    dm = close(fam_d, der_d, m)
    em = close(fam_e, der_e, m)
    return b.trans(dm, b.symm(em))


# --- promotion and congruence ----------------------------------------------------------


def _promote(b: Builder, e: Expr, f: Expr) -> int:
    """tau.e = tau.f for equivalent guarded expressions."""
    if e == f:
        return b.refl(Prefix(TAU, e))
    order, rhs, sols, ders = _extract_into(b, (e, f))
    r1, r2 = order[:2]
    q = _Quotient(SesSystem.from_equations(order, rhs), b)
    if q.cls[r1] != q.cls[r2]:
        raise ProofError("expressions are not equivalent")
    common = q.common_solutions()
    # the silent-prefixed inputs solve the silent-prefixed system, which
    # is guarded as the system is: a silent prefix guards no occurrence
    taus = {x: Prefix(TAU, sols[x]) for x in order}
    taumap = dict(taus)
    tau_rhs = {x: Prefix(TAU, rhs[x]) for x in order}
    tau_ders = {}
    for x in order:
        idx = b.cong("prefix", ders[x], TAU)
        idx = b.trans(idx, b.cong("prefix", _pad_tau(b, rhs[x], sols, taumap), TAU))
        tau_ders[x] = idx
    com_fam = {x: common[x][0] for x in order}
    com_der = {x: common[x][1] for x in order}
    left = _prove_unique(b, order, tau_rhs, dict(taus), dict(com_fam),
                         dict(tau_ders), dict(com_der), r1)
    right = _prove_unique(b, order, tau_rhs, dict(taus), dict(com_fam),
                          dict(tau_ders), dict(com_der), r2)
    if com_fam[r1] != com_fam[r2]:
        raise ProofError("common solutions differ inside one class")
    return b.trans(left, b.symm(right))


def _absorb_into(b: Builder, e: tuple, f: tuple, budget: int) -> int:
    """e + f = f, when every move and exposure of e is covered by f.

    e and f are the sides as `_standardize` gives them: a standard sum
    and the step proving the side equal to it.  A summand of e's sum
    that is not one of f's meets the first of f's with its action and an
    equivalent body w, as a.body = a.tau.body = a.tau.w = a.w (T1,
    promotion, T1); both bodies are guarded, being the prefix bodies of
    standard sums.  The sums then meet by S1-S4."""
    (se, de), (sf, df) = e, f
    theirs = flatten_sum(sf)

    def meet(leaf: Expr) -> int:
        if isinstance(leaf, Sum):
            return b.sum_cong(meet(leaf.left), meet(leaf.right))
        if leaf in theirs or not isinstance(leaf, Prefix):
            return b.refl(leaf)
        a = leaf.act
        w = next((g.body for g in theirs if isinstance(g, Prefix) and g.act == a
                  and equivalent(leaf.body, g.body, "dpbb", budget)), None)
        if w is None:
            raise ProofError(f"{pretty(leaf)} has no matching summand in {pretty(sf)}")
        return b.chain(b.symm(_t1(b, a, leaf.body)),
                       b.cong("prefix", _promote(b, leaf.body, w), a),
                       _t1(b, a, w))

    mine = b.trans(de, meet(se))
    total = b.trans(b.sum_cong(mine, df),
                    prove_sum_eq(b, Sum(b.rhs_after(mine), sf), sf))
    return b.trans(total, b.symm(df))


def _absorb_both(b: Builder, e: Expr, f: Expr, budget: int) -> int:
    """e = f for rooted-equivalent e and f whose sums differ in more than
    their summands' order, grouping, 0s and repeats: each side is
    standardized once and absorbed into the other."""
    std_e, std_f = _standardize(b, e), _standardize(b, f)
    fwd = _absorb_into(b, std_e, std_f, budget)  # e + f = f
    bwd = _absorb_into(b, std_f, std_e, budget)  # f + e = e
    s1 = b.axiom("S1", {"E": e, "F": f})  # e + f = f + e
    left = b.symm(b.trans(s1, bwd))  # e = e + f
    return b.trans(left, fwd)
