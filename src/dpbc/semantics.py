"""Operational semantics: transitions, exposure, finite transition systems.

One walk, `_moves`, gives the moves of a term by the rules of the SOS.
A derivative is a subterm with its enclosing recursions put in for its
free names (Milner, JCSS 1984), and the walk leaves it to its caller how
to put them in.  `closure_lts` keeps a derivative as a closure: the
subterm and an environment that binds those names to recursion states.
It builds no term, and the verdicts of `equiv` are made on its states;
a closure's term is built only where a reader sees it (`closure_terms`).
`step` puts the recursions' terms in by one substitution, outer first,
in the order R1 unfolds them, so a derivative is the term of its
closure (R1, one recursion at a time, reaches it up to the names of
the binders it renames), and
`build_lts` numbers the terms that a term reaches, in a fixed order.
`lts` and `minimize` read terms, so they use it; the prover reads
`step` itself, through `ses._extract_into` and `_tau_reachable`.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Optional

from .syntax import (
    _NONE, DEFAULT_BUDGET, Expr, Prefix, Rec, Sum, Value, Var, _compare, _set, substitute)


class BudgetExceeded(Exception):
    """Raised when a state-space construction passes its state budget."""


def _moves(node: Expr, env: dict, close, bound) -> set:
    """The moves of `node` under `env`, as (action, derivative) pairs, in
    no order: the one walk of the SOS, which `step` and `closure_lts`
    share.  `env` binds free names of node to what their enclosing
    recursions stand for, and `close(sub, env)` gives a subterm's
    derivative under an environment: a closure state, or a term.
    A prefix moves to its body's derivative, a sum has its summands'
    moves, a recursion binds its binder to what `close` makes of the
    recursion and moves as its body, in which that binder has no moves,
    and a name that
    `env` binds has the moves `bound[env[name]]` of what it stands for.
    A stack stands in for recursion, so a term of any depth has its
    moves."""
    out = set()
    todo = [(node, env, _NONE)]  # what is left to walk, with the binders
    while todo:  # met on the way, which have no moves
        node, inner, met = todo.pop()
        tag = type(node)
        if tag is Prefix:
            out.add((node.act, close(node.body, inner)))
        elif tag is Sum:
            todo += ((node.left, inner, met), (node.right, inner, met))
        elif tag is Rec:
            x = node.binder
            if x in node.body._free:
                todo.append((node.body, {**inner, x: close(node, inner)}, met | {x}))
            else:  # a binder that its body does not use binds nothing
                todo.append((node.body, inner, met))
        elif tag is Var and node.name not in met and node.name in env:
            out.update(bound[env[node.name]])
    return out


def _compare_moves(p, q) -> int:
    """Moves sort by action, then by derivative."""
    a, b = p[0].key, q[0].key
    return (a > b) - (a < b) or _compare(p[1], q[1])


def step(e: Expr):
    """All derivatives of e, sorted by (action, expression) order.  A
    derivative is the subterm that moves with the terms of its enclosing
    recursions put in by one substitution, outer first: the term that
    `closure_terms` builds for the matching closure."""
    out = e._step
    if out is None:
        out = e._step = tuple(sorted(_moves(e, {}, substitute, ()),
                                     key=cmp_to_key(_compare_moves)))
    return out


def exposes(e: Expr) -> frozenset:
    """The variables e exposes as immediate unguarded summands."""
    return e._exposed


def _tau_reachable(e: Expr, budget: int, parent: Optional[dict] = None):
    """The expressions reachable from e by silent steps, breadth first in
    derivative order, e first; each is yielded before its successors are
    explored, so a caller that stops early searches no further.  `parent`,
    when given, maps each one to the expression it was first reached from
    (e to None), which links it to e by a shortest silent path."""
    if parent is None:
        parent = {}
    parent[e] = None
    queue = [e]
    for cur in queue:  # the loop also visits what it appends
        yield cur
        for act, nxt in step(cur):
            if act.is_tau and nxt not in parent:
                if len(parent) >= budget:
                    raise BudgetExceeded(f"state budget {budget} exceeded")
                parent[nxt] = cur
                queue.append(nxt)


def _reach(starts, succ) -> list:
    """The nodes reachable from `starts` along `succ(node)`, breadth
    first: the starts in order, then each node once, as first reached."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for cur in order:  # the loop also visits what it appends
        for nxt in succ(cur):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


class Lts(Value):
    """A finite labelled transition system with per-state exposure sets."""

    _fields = ("states", "transitions", "exposure", "root")
    # `_adj` and `_tauclos` cache the adjacency lists and silent closures
    __slots__ = _fields + ("_adj", "_tauclos")

    def __init__(self, states: tuple, transitions: tuple, exposure: tuple,
                 root: Optional[int]):
        _set(self, "states", states)
        _set(self, "transitions", transitions)  # (src, Action, dst), by src
        _set(self, "exposure", exposure)  # frozenset of identifiers per state
        _set(self, "root", root)
        _set(self, "_adj", None)
        _set(self, "_tauclos", None)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def succ(self, s: int):
        return self._adjacency()[s]

    def tau_succ(self, s: int):
        return [t for a, t in self._adjacency()[s] if a.is_tau]

    def _adjacency(self):
        adj = self._adj
        if adj is None:
            adj = [[] for _ in self.states]
            for src, act, dst in self.transitions:
                adj[src].append((act, dst))
            _set(self, "_adj", adj)
        return adj

    def tau_closure(self, s: int) -> frozenset:
        """States reachable from s by zero or more silent steps."""
        memo = self._tauclos
        if memo is None:
            memo = {}
            _set(self, "_tauclos", memo)
        if s not in memo:
            memo[s] = frozenset(_reach((s,), self.tau_succ))
        return memo[s]

    def tau_closure_plus(self, s: int) -> frozenset:
        """States reachable from s by one or more silent steps."""
        return frozenset(_reach(self.tau_succ(s), self.tau_succ))


def union_lts(a: Lts, b: Lts):
    """Disjoint union; returns the combined system and the two root indices."""
    off = a.n_states
    states = tuple(("L", s) for s in a.states) + tuple(("R", s) for s in b.states)
    transitions = tuple(a.transitions) + tuple(
        (src + off, act, dst + off) for src, act, dst in b.transitions
    )
    exposure = tuple(a.exposure) + tuple(b.exposure)
    return Lts(states, transitions, exposure, None), a.root, b.root + off


def build_lts(e: Expr, budget: int = DEFAULT_BUDGET) -> Lts:
    """Reachable closure of the transition relation from e.

    States are numbered by breadth-first discovery with derivatives in
    (action, expression) order, so construction is deterministic.
    """
    index = {e: 0}
    states = [e]
    transitions = []
    for src, cur in enumerate(states):  # the loop also visits what it appends
        for act, nxt in step(cur):
            dst = index.get(nxt)
            if dst is None:
                if len(states) >= budget:
                    raise BudgetExceeded(f"state budget {budget} exceeded")
                dst = index[nxt] = len(states)
                states.append(nxt)
            transitions.append((src, act, dst))
    return Lts(tuple(states), tuple(sorted(
        transitions, key=lambda t: (t[0], t[1].key, t[2]))),
        tuple([s._exposed for s in states]), 0)


def closure_lts(roots, budget: int = DEFAULT_BUDGET):
    """One transition system for the terms `roots`, whose states are
    closures, and the state of each root.

    A closure is a subterm with an environment: the environment maps
    each free variable of the subterm that an enclosing recursion binds
    to that recursion's state, and the closure stands for the closed
    term that putting those recursions in would give.  Every derivative
    of a term is such a closure (Milner, JCSS 1984), so no term is
    substituted or built.  The moves come from `_moves`, the walk that
    `step` makes on terms: a prefix moves to its body's closure (a bound variable there is its
    recursion's state), a sum has its summands' moves, a recursion binds
    its binder to its own state and moves as its body, in which that
    binder has no moves, and a variable the environment binds has its
    recursion's moves.  A closure exposes what its subterm exposes, with
    each bound name replaced by what that name's state exposes.

    The roots share one table, so a closure that two roots reach is one
    state.  Two closures may stand for one term, as in
    `b.(rec X. a.a.X) + c.a.(rec X. a.a.X)`, so the states are not
    terms: `build_lts` numbers terms, and `closure_terms` builds the
    term that a state stands for.  The closures reachable from each
    root, counted on their own, may not pass `budget`.  A recursion
    whose body uses its binder gets a state when it is met on the way to
    a move, even when no move enters it, since the binder stands for it;
    such a state is reached from no root and counts for none.
    """
    index = {}  # (subterm, the states its environment binds) -> state
    keys, envs, exposure, moves, transitions = [], [], [], [], []

    def close(node, env):
        """The state of node under env, new or found."""
        if env:
            if type(node) is Var and node.name in env:
                return env[node.name]
            # a state binds a name to a state of a recursion with that
            # binder, so the states alone, in the order of `_free`, give
            # the environment
            own = {x: env[x] for x in node._free if x in env}
            key = (node, tuple(own.values()))
        else:
            own, key = env, (node, ())
        s = index.get(key)
        if s is None:
            s = index[key] = len(keys)
            keys.append(key)
            envs.append(own)
            exp = node._exposed
            if own and not exp.isdisjoint(own):
                exp = exp.difference(own).union(*[exposure[own[x]] for x in exp if x in own])
            exposure.append(exp)
        return s

    def explore(s):
        """Work out the moves of state s.  It reads the moves of the
        states its environment binds, which were made, and so explored,
        before s."""
        out = _moves(keys[s][0], envs[s], close, moves)
        moves.append(out)
        transitions.extend([(s, act, t) for act, t in out])

    starts = []
    for root in roots:
        start = close(root, {})
        starts.append(start)
        reached = {start}
        queue = [start]
        for s in queue:  # the loop also visits what it appends
            while len(moves) <= s:
                explore(len(moves))
            for _, t in moves[s]:
                if t not in reached:
                    if len(reached) >= budget:
                        raise BudgetExceeded(f"state budget {budget} exceeded")
                    reached.add(t)
                    queue.append(t)
    while len(moves) < len(keys):  # the states that no root reaches
        explore(len(moves))
    return Lts(tuple(keys), tuple(transitions), tuple(exposure), None), starts


def closure_terms(lts: Lts, wanted) -> dict:
    """The terms that the states `wanted` of a `closure_lts`
    system stand for, by state, with those of the states they bind.  A
    state's term is its subterm with each name that its environment
    binds replaced, in one substitution, by the term of that name's
    recursion state.  A state binds only states made before it, so the
    states are built in order of number, bound states first."""
    states, terms = lts.states, {}
    for s in sorted(_reach(wanted, lambda s: states[s][1])):
        node, bound = states[s]
        terms[s] = substitute(node, {states[r][0].binder: terms[r] for r in bound})
    return terms


def _tau_sccs(succ):
    """Strongly connected components of the graph whose nodes are the
    keys of `succ`, each mapped to its successors, sinks first
    (iterative Tarjan).  A successor that is not a key is left out.  A
    node whose component is done gets an index past every other, so it
    lowers no low-link."""
    index, low = {}, {}
    stack, sccs = [], []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt in index:
                    if index[nxt] < low[node]:
                        low[node] = index[nxt]
                elif nxt in succ:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = len(succ)
                        comp.append(w)
                        if w == node:
                            break
                    sccs.append(comp)
    return sccs


def _can_reach_tau_cycle(lts: Lts, sources, allowed) -> frozenset:
    """States among `sources` that can silently reach a silent cycle,
    moving only through `allowed` states."""
    succ = {s: lts.tau_succ(s) for s in allowed}
    reach = set()
    for comp in _tau_sccs(succ):  # sinks first
        if len(comp) > 1 or any(t == s or t in reach for s in comp for t in succ[s]):
            reach.update(comp)
    return frozenset(s for s in sources if s in reach)


def format_aut(lts: Lts) -> str:
    """Render in Aldebaran format, with exposure sets as auxiliary lines."""
    root = lts.root if lts.root is not None else 0
    lines = [f"des ({root}, {len(lts.transitions)}, {lts.n_states})"]
    for src, act, dst in lts.transitions:
        lines.append(f'({src},"{act.name}",{dst})')
    for s in range(lts.n_states):
        for x in sorted(lts.exposure[s]):
            lines.append(f'exp ({s}, "{x}")')
    return "\n".join(lines) + "\n"
