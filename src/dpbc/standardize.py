"""Proof-producing rewriting of expressions into standard sums.

The derived rules for the loop operator are replayed as explicit
derivation chains; associativity and commutativity glue between the
printed steps is supplied by the canonical-sum prover.  Besides
`standardize`, the module holds the proof routines that it shares with
the root route (`route`): alpha bridging and the substitution lifts,
which run on `proof.walk`, head normal forms and the derived rules
D0-D5.
"""

from __future__ import annotations

from .syntax import (
    Expr,
    compose_sum,
    Nil,
    NIL,
    Prefix,
    Rec,
    Sum,
    TAU,
    Var,
    all_vars,
    flatten_sum,
    free_vars,
    fresh_name,
    is_guarded_expr,
    is_guarded_in,
    is_loop,
    is_standard_sum,
    loop,
    loop_body,
    pretty,
    substitute,
)
from .semantics import DEFAULT_BUDGET, _tau_reachable, exposes
from .kernel import ProofError, SideCondition
from .proof import Builder, _absorb_copy, _derived, _t1, prove_canon, prove_sum_eq, walk


class NotGuarded(ProofError):
    pass


class MoveNotPresent(ProofError):
    pass


# --- alpha bridging -----------------------------------------------------------


def _same(b: Builder, e: Expr, f: Expr):
    return b.refl(e) if e == f else None


def prove_alpha(b: Builder, lhs: Expr, rhs: Expr) -> int:
    """Prove two alpha-equivalent expressions equal by the walk down
    both (`proof.walk`): R0 where their binders differ, congruence
    elsewhere."""
    return walk(b, lhs, rhs, _same)


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


def _subst_lift(b: Builder, template: Expr, sigmas: tuple, leaf) -> int:
    """template{sigmas[0]} = template{sigmas[1]}, by the walk of the
    template against itself (`proof.walk`), which builds neither
    instance.  A subterm where no substituted name is free is its own
    instance; `leaf(b, e, sigma)` gives the step at a subterm e that it
    closes, sigma the first substitution there.  A recursion whose
    binder shadows a substituted name, or would capture a free name of
    a value, is lifted through its body with the substitutions narrowed
    to the other names, a capturing binder first renamed to a fresh
    name and both ends then aligned."""
    s0, s1 = sigmas

    def close(b: Builder, e: Expr, f: Expr):
        if free_vars(e).isdisjoint(s0):
            return b.refl(e)
        d = leaf(b, e, s0)
        if d is not None or not isinstance(e, Rec):
            return d
        y = e.binder
        n0, n1 = ({k: v for k, v in s.items() if k != y} for s in sigmas)
        free = frozenset().union(*map(free_vars, [*n0.values(), *n1.values()]))
        if y not in s0 and y not in free:
            return None
        if y not in free:
            return b.cong("recbody", _subst_lift(b, e.body, (n0, n1), leaf), y)
        z = fresh_name(all_vars(e.body) | free | set(n0) | set(n1) | {y})
        body = substitute(e.body, {y: Var(z)})
        mid = b.cong("recbody", _subst_lift(b, body, (n0, n1), leaf), z)
        return _align_both(b, mid, substitute(e, s0), substitute(e, s1))

    return walk(b, template, template, close)


@_derived
def prove_subst_cong(b: Builder, context: Expr, hole: str, inner: int) -> int:
    """Lift a proven equation into every free occurrence of `hole` in
    `context`: proves context{lhs/hole} = context{rhs/hole}."""
    lhs, rhs = b.endpoints(inner)
    return _subst_lift(b, context, ({hole: lhs}, {hole: rhs}),
                       lambda b, e, sigma: inner if isinstance(e, Var) else None)


# --- head normal forms and D0-D2 ----------------------------------------------


def _unfold(b: Builder, p: Expr, t: Expr, env: dict) -> int:
    """t = a sum of its unguarded summands, walking down p, a term as
    written, and t, its instance under the unfoldings above, together: a
    sum goes by both halves, a recursion of p is unfolded in t by R1 and
    the walk goes on with p's body, anything else is a summand.  `env`
    binds each recursion met to its term as `semantics.step` puts it in,
    all at once, outer first; a summand is brought to p under `env`,
    which R1's one-at-a-time substitutions reach up to the names of the
    binders they renamed."""
    if isinstance(p, Sum):
        return b.sum_cong(_unfold(b, p.left, t.left, env),
                          _unfold(b, p.right, t.right, env))
    if isinstance(p, Rec):
        r1 = b.axiom("R1", {"E": t.body}, {"X": t.binder})
        env = {**env, p.binder: substitute(p, env)}
        return b.trans(r1, _unfold(b, p.body, b.rhs_after(r1), env))
    return prove_alpha(b, t, substitute(p, env))


@_derived
def _hnf(b: Builder, e: Expr) -> int:
    """e = a sum of its moves a.e', its exposed variables and 0s, along
    the rules of `semantics.step` and `exposes`: R1 on each recursion
    met unguarded, then the unfolded body, with step's derivatives."""
    return _unfold(b, e, e, {})


def _absorb_along(b: Builder, d: int, extra: Expr) -> int:
    """X = X + extra from d: X = Y and Y = Y + extra.  A sum Y holds
    extra's summands and absorbs them by rearrangement; a loop in
    constructor form holds them in its body and absorbs them along D2.
    When extra is 0 or a node of X's own sum tree, X absorbs it directly."""
    direct = _absorb_copy(b, b.endpoints(d)[0], extra)
    if direct is not None:
        return b.symm(direct)
    mid = b.rhs_after(d)
    if isinstance(mid, Rec):
        g = _absorb_along(b, _d2(b, mid), extra)
    else:
        g = prove_sum_eq(b, mid, Sum(mid, extra))
    return _app(b, b.trans(d, g), ["suml"], b.symm(d))


def _d1(b: Builder, lp: Expr) -> int:
    """lp = tau.lp + body, for any constructor-shaped loop."""
    z, body = lp.binder, lp.body.right
    return b.axiom("R1", {"E": Sum(Prefix(TAU, Var(z)), body)}, {"X": z})


def _d2(b: Builder, lp: Expr) -> int:
    """lp = lp + body, for any constructor-shaped loop."""
    return _absorb_along(b, _d1(b, lp), lp.body.right)


def _absorb_summand(b: Builder, e: Expr, leaf: Expr) -> int:
    """e = e + leaf, for a move a.target or an exposed variable of e: a
    summand of e's head normal form."""
    hnf = _hnf(b, e)
    if leaf not in flatten_sum(b.rhs_after(hnf)):
        if isinstance(leaf, Var):
            raise MoveNotPresent(f"{pretty(e)} does not expose {leaf.name}")
        raise MoveNotPresent(
            f"{pretty(e)} has no {leaf.act} move to {pretty(leaf.body)}")
    return _absorb_along(b, hnf, leaf)


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


# --- loop helpers ----------------------------------------------------------


def prove_loop_canonical(b: Builder, e: Expr):
    """Reshape a recognized loop into constructor form, with the same
    binder and body; proves e = result."""
    cl = Rec(e.binder, Sum(Prefix(TAU, Var(e.binder)), loop_body(e)))
    if cl == e:
        return cl, b.refl(e)
    inner = prove_sum_eq(b, e.body, cl.body)
    return cl, b.cong("recbody", inner, e.binder)


def _meet_loops(b: Builder, lp: Expr, target: Expr) -> int:
    """lp = target for two constructor-shaped loops whose bodies agree up
    to S1-S4 and renaming: both bodies are brought to their canonical sum
    and the loops then meet up to renaming."""
    _, dl = prove_canon(b, lp.body.right)
    _, dt = prove_canon(b, target.body.right)
    step = b.rewrite_at(lp, ["rec", "sumr"], dl)
    back = b.rewrite_at(target, ["rec", "sumr"], dt)
    return b.trans(align(b, step, b.rhs_after(back)), b.symm(back))


def _d3(b: Builder, x: str, e: Expr, f: Expr, avoid=()) -> int:
    """rec x.(tau.(x+e)+f) = rec x.(tau.loop(e+f)+f)."""
    y = fresh_name(free_vars(e) | free_vars(f) | {x} | set(avoid))
    b1 = Sum(Prefix(TAU, Sum(Var(x), e)), f)
    total = b.refl(Rec(x, b1))
    # wrap the body in a vacuous recursion over the fresh binder
    inner_r1 = b.symm(b.axiom("R1", {"E": b1}, {"X": y}))
    total = b.trans(total, b.cong("recbody", inner_r1, x))
    # exchange the recursion variable for the inner binder
    total = b.trans(total, b.axiom("R8", {"E": e, "F": f}, {"X": x, "Y": y}))
    # guard the inner binder with a silent prefix
    r4 = b.symm(b.axiom("R4", {"E": Var(y), "F": e, "G": f}, {"X": y}))
    total = b.trans(total, b.cong("recbody", r4, x))
    # unfold the inner recursion once
    total = _app(
        b, total, ["rec"],
        b.axiom("R1", {"E": Sum(Prefix(TAU, Sum(Prefix(TAU, Var(y)), e)), f)},
                {"X": y}))
    # pull the silent prefix out of the recursion
    r6a = b.symm(
        b.axiom("R6", {"E": Sum(Prefix(TAU, Sum(Var(y), e)), f)}, {"X": y}))
    total = _app(b, total, ["rec", "suml", "prefix", "suml"], r6a)
    n1 = b.rhs_after(r6a)  # rec y. tau.(tau.(y+e)+f)
    # eliminate the inner silent guard, padding with an empty summand
    p = n1.body
    c = b.rewrite_at(n1, ["rec"], b.symm(b.axiom("S4", {"E": p})))
    c = b.trans(c, b.axiom("R4", {"E": Sum(Var(y), e), "F": f, "G": NIL}, {"X": y}))
    c = _app(b, c, ["rec"], b.axiom("S4", {"E": b.rhs_after(c).body.left}))
    total = _app(b, total, ["rec", "suml", "prefix", "suml"], c)
    # push the silent prefix back inside
    r6b = b.axiom("R6", {"E": Sum(Sum(Var(y), e), f)}, {"X": y})
    total = _app(b, total, ["rec", "suml", "prefix", "suml"], r6b)
    ll = b.rhs_after(r6b).body  # rec y.((tau.y+e)+f)
    # reshape into the canonical loop and align the binder
    lp = loop(Sum(e, f))
    shape = prove_sum_eq(b, ll.body, Sum(Prefix(TAU, Var(y)), Sum(e, f)))
    fix = b.cong("recbody", shape, y)
    fix = align(b, fix, lp)
    total = _app(b, total, ["rec", "suml", "prefix", "suml", "prefix"], fix)
    # absorb the loop body once
    total = _app(b, total, ["rec", "suml", "prefix", "suml", "prefix"], _d2(b, lp))
    grown = Sum(lp, Sum(e, f))
    # rearrange so the branching axiom applies
    total = _app(b, total, ["rec", "suml", "prefix", "suml", "prefix"],
                 prove_sum_eq(b, grown, Sum(Sum(lp, f), e)))
    total = _app(b, total, ["rec", "suml"],
                 b.axiom("B", {"E": Sum(lp, f), "F": e}, {"a": TAU}))
    # fold the loop body away again
    total = _app(b, total, ["rec", "suml", "prefix"],
                 prove_sum_eq(b, Sum(Sum(lp, f), e), grown))
    total = _app(b, total, ["rec", "suml", "prefix"], b.symm(_d2(b, lp)))
    return total


def _d4(b: Builder, x: str, e: Expr, f: Expr, g: Expr, avoid=()) -> int:
    """rec x.(tau.(x+e)+tau.(x+f)+g) = rec x.(tau.(x+e+f)+g)."""
    te = Prefix(TAU, Sum(Var(x), e))
    tf = Prefix(TAU, Sum(Var(x), f))
    total = b.refl(Rec(x, Sum(Sum(te, tf), g)))
    ff = Sum(tf, g)
    total = _app(b, total, ["rec"], prove_sum_eq(b, Sum(Sum(te, tf), g), Sum(te, ff)))

    def collapse(total: int, h: Expr, t: Expr) -> int:
        """From rec x.(tau.(x+h) + (tau.t+g)) on: loop the first silent
        summand, collapse the loop (its body reaches x unguarded through
        the tail) and absorb tau.t into it with R4, ending at
        rec x.(tau.(t+(h+g)) + (tau.t+g))."""
        tail = Sum(Prefix(TAU, t), g)
        total = b.trans(total, _d3(b, x, h, tail, avoid))
        lp = loop(Sum(h, tail))
        total = b.trans(
            total,
            b.axiom("R5", {"E": Sum(h, tail), "F": tail}, {"X": x, "Y": lp.binder}))
        total = _app(b, total, ["rec", "suml", "prefix"],
                     b.axiom("R1", {"E": Sum(h, tail)}, {"X": lp.binder}))
        total = _app(b, total, ["rec", "suml", "prefix"],
                     prove_sum_eq(b, Sum(h, tail), Sum(Prefix(TAU, t), Sum(h, g))))
        return b.trans(
            total, b.axiom("R4", {"E": t, "F": Sum(h, g), "G": tail}, {"X": x}))

    total = collapse(total, e, Sum(Var(x), f))
    w = Sum(Var(x), Sum(Sum(e, f), g))
    total = _app(b, total, ["rec", "suml", "prefix"],
                 prove_sum_eq(b, Sum(Sum(Var(x), f), Sum(e, g)), w))
    # swap the two silent summands and repeat on the other side
    tw = Prefix(TAU, w)
    gg = Sum(tw, g)
    total = _app(b, total, ["rec"], prove_sum_eq(b, Sum(tw, ff), Sum(tf, gg)))
    total = collapse(total, f, w)
    # drop the duplicated summands inside, then the duplicated silent step
    total = _app(b, total, ["rec", "suml", "prefix"],
                 prove_sum_eq(b, Sum(w, Sum(f, g)), w))
    total = _app(b, total, ["rec"], prove_sum_eq(b, Sum(tw, gg), Sum(tw, g)))
    # strip the inner copy of g with the loop rules, meeting the target
    # side at the canonical loop argument
    a_ = Sum(Sum(e, f), g)
    total = b.trans(total, _d3(b, x, a_, g, avoid))
    other = _d3(b, x, Sum(e, f), g, avoid)
    total = _app(b, total, ["rec", "suml", "prefix"],
                 _meet_loops(b, loop(Sum(a_, g)), loop(a_)))
    total = b.trans(total, b.symm(other))
    # final shape: left-nested inner sum
    total = _app(b, total, ["rec", "suml", "prefix"],
                 prove_sum_eq(b, Sum(Var(x), Sum(e, f)), Sum(Sum(Var(x), e), f)))
    return total


def _d5(b: Builder, e: Expr, f: Expr, avoid=()) -> int:
    """loop(tau.loop(e+f)+f) = tau.loop(e+f)+f."""
    p = loop(Sum(e, f))
    a = Sum(Prefix(TAU, p), f)
    l0 = loop(a)
    x0 = l0.binder
    y0 = fresh_name(free_vars(e) | free_vars(f) | {x0} | set(avoid))
    sub_avoid = set(avoid) | {x0, y0}
    total = b.refl(l0)
    # wrap the tail in a vacuous recursion
    total = _app(b, total, ["rec", "sumr"], b.symm(b.axiom("R1", {"E": a}, {"X": y0})))
    # fold the loop back into recursion form
    total = _app(b, total, ["rec", "sumr"], b.symm(_d3(b, y0, e, f, sub_avoid)))
    # duplicate the silent summand, padding with an empty operand
    te = Prefix(TAU, Sum(Var(y0), e))
    m1 = Rec(y0, Sum(te, f))
    inner = b.rewrite_at(
        m1, ["rec", "suml", "prefix"],
        prove_sum_eq(b, Sum(Var(y0), e), Sum(Sum(Var(y0), NIL), e)))
    inner = b.trans(inner, b.symm(_d4(b, y0, NIL, e, f, sub_avoid)))
    inner = _app(b, inner, ["rec", "suml", "suml", "prefix"], b.axiom("S4", {"E": Var(y0)}))
    inner = _app(b, inner, ["rec"],
                 prove_sum_eq(b, Sum(Sum(Prefix(TAU, Var(y0)), te), f),
                              Sum(Prefix(TAU, Var(y0)), Sum(te, f))))
    total = _app(b, total, ["rec", "sumr"], inner)
    # merge the nested loops
    total = b.trans(
        total, b.axiom("R7", {"E": Sum(te, f)}, {"X": x0, "Y": y0}))
    # undo the duplication inside the remaining recursion
    total = _app(b, total, ["rec"], b.trans(b.symm(inner), _d3(b, y0, e, f, sub_avoid)))
    # discard both vacuous recursions
    total = b.trans(total, b.axiom("R1", {"E": Rec(y0, a)}, {"X": x0}))
    total = b.trans(total, b.axiom("R1", {"E": a}, {"X": y0}))
    return total

# --- exposure as a summand -----------------------------------------------------


def _expose(b: Builder, x: str, e: Expr, f: Expr):
    """(e1, idx) with x guarded in e1 and idx proving
    rec x.(tau.e + f) = rec x.(tau.(x + e1) + f), for a guarded e that
    reaches x unguarded."""
    if isinstance(e, Var) and e.name == x:
        s4 = b.symm(b.axiom("S4", {"E": Var(x)}))
        host = Rec(x, Sum(Prefix(TAU, Var(x)), f))
        return NIL, b.rewrite_at(host, ["rec", "suml", "prefix"], s4)
    if isinstance(e, Prefix):
        if not e.act.is_tau:
            raise SideCondition("exposure", f"{x} is guarded in {pretty(e)}")
        t1 = _t1(b, TAU, e.body)
        host = Rec(x, Sum(Prefix(TAU, e), f))
        total = b.rewrite_at(host, ["rec", "suml"], t1)
        e1, d = _expose(b, x, e.body, f)
        return e1, b.trans(total, d)
    if isinstance(e, Sum):
        el, er = e.left, e.right
        if is_guarded_in(x, el):
            flip = prove_sum_eq(b, e, Sum(er, el))
            host = Rec(x, Sum(Prefix(TAU, e), f))
            total = b.rewrite_at(host, ["rec", "suml", "prefix"], flip)
            e1, d = _expose(b, x, Sum(er, el), f)
            return e1, b.trans(total, d)
        total = _d0(b, e, f, x)
        # split the two halves behind separate silent prefixes
        total = _app(b, total, ["rec", "suml", "prefix"],
                     prove_sum_eq(b, Sum(Var(x), e), Sum(Sum(Var(x), el), er)))
        total = b.trans(total, b.symm(_d4(b, x, el, er, f)))
        tl = Prefix(TAU, Sum(Var(x), el))
        tr = Prefix(TAU, Sum(Var(x), er))
        f2 = Sum(tr, f)
        total = _app(b, total, ["rec"], prove_sum_eq(b, Sum(Sum(tl, tr), f), Sum(tl, f2)))
        total = b.trans(total, b.symm(_d0(b, el, f2, x)))
        e1l, d = _expose(b, x, el, f2)
        total = b.trans(total, d)
        tl2 = Prefix(TAU, Sum(Var(x), e1l))
        e1r = er
        if not is_guarded_in(x, er):
            # the right half also reaches x unguarded: process it the same way
            f3 = Sum(tl2, f)
            total = _app(b, total, ["rec"], prove_sum_eq(b, Sum(tl2, f2), Sum(tr, f3)))
            total = b.trans(total, b.symm(_d0(b, er, f3, x)))
            e1r, d = _expose(b, x, er, f3)
            total = b.trans(total, d)
        return Sum(e1l, e1r), _merge_exposed(b, total, x, e1l, e1r, f)
    if isinstance(e, Rec):
        host = Rec(x, Sum(Prefix(TAU, e), f))
        if not is_loop(e):
            # e is guarded, so its binder is: unfold it once, and the
            # copies of e land under visible prefixes, where x is guarded
            r1 = b.axiom("R1", {"E": e.body}, {"X": e.binder})
            total = b.rewrite_at(host, ["rec", "suml", "prefix"], r1)
            e1, d = _expose(b, x, b.rhs_after(r1), f)
            return e1, b.trans(total, d)
        cl, dcanon = prove_loop_canonical(b, e)
        total = b.rewrite_at(host, ["rec", "suml", "prefix"], dcanon)
        body = cl.body.right
        if cl.binder == x:
            raise ProofError("loop binder clashes with the exposed variable")
        total = b.trans(
            total, b.axiom("R5", {"E": body, "F": f}, {"X": x, "Y": cl.binder}))
        total = _app(b, total, ["rec", "suml", "prefix"],
                     b.axiom("R1", {"E": body}, {"X": cl.binder}))
        e1, d = _expose(b, x, body, f)
        return e1, b.trans(total, d)
    raise SideCondition("exposure", f"{x} is not reachable unguarded in {pretty(e)}")


def _merge_exposed(b: Builder, total: int, x: str, e1: Expr, e2: Expr, rest: Expr) -> int:
    """Extend `total`, which ends at a recursion over x whose body is a
    sum of tau.(x + e1), tau.(x + e2) and rest, to
    rec x.(tau.(x + (e1 + e2)) + rest): S1-S4, D4, S1-S4."""
    silent = Sum(Prefix(TAU, Sum(Var(x), e1)), Prefix(TAU, Sum(Var(x), e2)))
    total = _app(b, total, ["rec"], prove_sum_eq(b, b.rhs_after(total).body, Sum(silent, rest)))
    total = b.trans(total, _d4(b, x, e1, e2, rest))
    return _app(b, total, ["rec", "suml", "prefix"],
                prove_sum_eq(b, Sum(Sum(Var(x), e1), e2), Sum(Var(x), Sum(e1, e2))))


# --- standardization -----------------------------------------------------------


def _guard_binder(b: Builder, total: int, y: str, sf: Expr) -> int:
    """Extend `total`, which ends at rec y. sf for a standard sum sf that
    reaches y unguarded, to an equal recursion whose binder is guarded:
    R3 drops a bare y, the binder is exposed in every unguarded silent
    summand, those summands are folded into one and D3 turns it into a
    loop."""
    group1 = []
    rest = []
    has_self = False
    for leaf in flatten_sum(sf):
        if isinstance(leaf, Var) and leaf.name == y:
            has_self = True
        elif (isinstance(leaf, Prefix) and leaf.act.is_tau
              and not is_guarded_in(y, leaf.body)):
            group1.append(leaf.body)
        else:
            rest.append(leaf)
    if has_self:
        remainder = compose_sum([Prefix(TAU, h) for h in group1] + rest)
        total = _app(b, total, ["rec"], prove_sum_eq(b, sf, Sum(Var(y), remainder)))
        total = b.trans(total, b.axiom("R3", {"E": remainder}, {"X": y}))
    if not group1:
        return total
    g = compose_sum(rest)
    # expose the binder in every unguarded silent summand
    exposed = []
    for i, h in enumerate(group1):
        todo = [Prefix(TAU, hh) for hh in group1[i + 1 :]]
        done = [Prefix(TAU, Sum(Var(y), hh)) for hh in exposed]
        remainder = compose_sum(todo + done + rest)
        total = _app(b, total, ["rec"], prove_sum_eq(
            b, b.rhs_after(total).body, Sum(Prefix(TAU, h), remainder)))
        h1, d = _expose(b, y, h, remainder)
        total = b.trans(total, d)
        exposed.append(h1)
    # fold the exposed summands together
    while len(exposed) > 1:
        e1, e2, *more = exposed
        remainder = compose_sum([Prefix(TAU, Sum(Var(y), hh)) for hh in more] + rest)
        total = _merge_exposed(b, total, y, e1, e2, remainder)
        exposed = [Sum(e1, e2), *more]
    tot = exposed[0]  # the body is now tau.(y + tot) + g
    total = b.trans(total, _d3(b, y, tot, g))
    return _app(b, total, ["rec", "suml", "prefix", "rec", "sumr"],
                prove_canon(b, Sum(tot, g))[1])


def _standardize(b: Builder, e: Expr):
    """(standard-sum expression, idx proving e = it)."""
    # a stack of `_standardize_node` generators stands in for recursion,
    # so a sum of any width, nested either way, costs no stack, and the
    # steps come in the order a recursion would emit them
    stack, result = [_standardize_node(b, e)], None
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_standardize_node(b, sub))
            result = None
    return result


def _standardize_node(b: Builder, e: Expr):
    """`_standardize` of e, as a generator that yields each subterm it
    needs standardized and is sent back the result."""
    if isinstance(e, (Nil, Var)):
        return e, b.refl(e)
    if isinstance(e, Prefix):
        if is_guarded_expr(e.body):
            return e, b.refl(e)
        sb, d = yield e.body
        return Prefix(e.act, sb), b.cong("prefix", d, e.act)
    if isinstance(e, Sum):
        sl, dl = yield e.left
        sr, dr = yield e.right
        out, d3 = prove_canon(b, Sum(sl, sr))
        return out, b.trans(b.sum_cong(dl, dr), d3)
    # recursion: standardize the body, guard the binder if it is not,
    # then unfold once into the head normal form
    sf, df = yield e.body
    total = b.cong("recbody", df, e.binder)
    if not is_guarded_expr(Rec(e.binder, sf)):
        total = _guard_binder(b, total, e.binder, sf)
    total = b.trans(total, _hnf(b, b.rhs_after(total)))
    out, d = prove_canon(b, b.rhs_after(total))
    return out, b.trans(total, d)


def standardize(e: Expr):
    """(standard sum, derivation of e = it)."""
    b = Builder()
    out, idx = _standardize(b, e)
    if not is_standard_sum(out):
        raise ProofError(f"standardization produced a non-standard shape: {pretty(out)}")
    return out, b.finalize(idx)
