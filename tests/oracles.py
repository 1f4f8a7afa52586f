"""Reference relations and engines that only the tests use.

`PairRelation` is a set of state pairs over a transition system, and
`functional_S`, `functional_B` and `functional_Bd` are the functionals
of strong, branching and divergence-preserving branching bisimilarity:
each maps a relation to the pairs that satisfy the relation's clauses,
the predicates `equiv.CLAUSES` holds.  `functional_Bp` is the
progressing branching functional, and `full_relation`,
`identity_relation` and `pairs` build relations to apply them to.

`round_bisimilarity` is the round-based signature refinement that
`equiv.bisimilarity` replaced: every round recomputes the signature of
every state against the whole partition (Blom & Orzan, STTT 2005).  It
is slow on long chains but plain, so it serves as an oracle past the
sizes that the literal fixpoint and `brute_oracle` reach.

`reference_parse` is the recursive-descent parser that the iterative
`syntax.parse` replaced: a tokenizer, then one method per grammar rule.
Its recursion limits the depth of what it reads, which the tests keep
small.  `tuple_expr_key` and `tuple_summand_key` are the nested-tuple
sort keys that `syntax._compare` replaced.  `de_bruijn_key` is a key
that two terms share exactly when they are equal up to the names of
their binders.

`reference_unguarded`, `reference_exposes` and
`reference_is_guarded_expr` are the recursive definitions of the
syntactic facts that each node now gets from its children when it is
built (`Expr._unguarded`, `_exposed`, `_guarded`); `reference_all_vars`
and `reference_is_loop` are those of `syntax.all_vars`, which walks a
term with a stack, and of the loop shape that `syntax.is_loop`
recognizes without building a term.

`reference_is_guarded` is the cycle check that `SesSystem.is_guarded`
made with `graphlib` before it read the engine's Tarjan routine.

`reference_subst` is the recursive `syntax._subst` that the one with a
stack of its own replaced; it recurses once per level of the term.
`reference_moves` is the recursive, inner-first rule that the one walk
of `semantics._moves` replaced: a recursion puts itself into its body's
derivatives one layer at a time, so a layer that puts in a term with a
free outer binder may rename an inner binder of that name.  Its
derivatives equal `semantics.step`'s up to the names of binders.
"""

from functools import partial
from graphlib import CycleError, TopologicalSorter

from dpbc.equiv import CLAUSES, Partition, _branching_ok, _strong_ok
from dpbc.semantics import Lts, _tau_sccs
from dpbc.syntax import (
    NIL, TAU, TAU_NAME, Action, Nil, ParseError, Prefix, Rec, Sum, Value, Var, _is_var_name,
    _set, _split_left, all_vars, fresh_name, free_vars, loop, substitute)


# --- the functionals ----------------------------------------------------------------


class PairRelation(Value):
    """A set of state pairs over a finite transition system."""

    __slots__ = _fields = ("lts", "pairs")

    def __init__(self, lts: Lts, pairs: frozenset):
        _set(self, "lts", lts)
        _set(self, "pairs", pairs)

    def __contains__(self, pair):
        return pair in self.pairs


def _image(rel: PairRelation, ok) -> PairRelation:
    """The pairs (i, j) of states for which ok(lts, pairs, i, j) holds."""
    lts = rel.lts
    n = lts.n_states
    return PairRelation(lts, frozenset(
        (i, j) for i in range(n) for j in range(n) if ok(lts, rel.pairs, i, j)))


def functional_S(rel: PairRelation) -> PairRelation:
    return _image(rel, _strong_ok)


def functional_B(rel: PairRelation) -> PairRelation:
    return _image(rel, _branching_ok)


def functional_Bd(rel: PairRelation) -> PairRelation:
    return _image(rel, CLAUSES["dpbb"])


def full_relation(lts: Lts) -> PairRelation:
    n = lts.n_states
    return PairRelation(lts, frozenset((i, j) for i in range(n) for j in range(n)))


def identity_relation(lts: Lts) -> PairRelation:
    return PairRelation(lts, frozenset((i, i) for i in range(lts.n_states)))


def functional_Bp(rel: PairRelation) -> PairRelation:
    """The progressing branching functional: a silent move is matched by
    at least one silent step."""
    return _image(rel, partial(_branching_ok, progressing=True))


def pairs(part: Partition) -> PairRelation:
    """The partition as the relation of the pairs that share a class."""
    cls = part.class_of
    return PairRelation(part.lts, frozenset(
        (i, j) for i in range(len(cls)) for j in range(len(cls)) if cls[i] == cls[j]))


def _round_signatures(lts: Lts, block, kind: str):
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
    # an inert cycle or enters a component that diverges.
    members = {}
    for s, c in enumerate(block):
        members.setdefault(c, []).append(s)
    sig = [None] * lts.n_states
    div = [False] * lts.n_states
    for states in members.values():
        inert = {s: [t for t in lts.tau_succ(s) if block[t] == block[s]] for s in states}
        for comp in _tau_sccs(inert):
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


def round_bisimilarity(lts: Lts, kind: str) -> Partition:
    """Signature refinement by rounds: starting from one block, every
    round splits each block by divergence bit and signature, until no
    block splits."""
    block = [0] * lts.n_states
    count = min(1, lts.n_states)
    while True:
        ids = {}
        block = [ids.setdefault(key, len(ids)) for key in _round_signatures(lts, block, kind)]
        if len(ids) == count:
            # the keys were taken against this same partition, so their
            # divergence bits are those of the final classes
            diverging = frozenset(c for key, c in ids.items() if key[1])
            return Partition(lts, tuple(block), diverging)
        count = len(ids)


# --- the recursive parser -----------------------------------------------------------


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in ".+()*":
            toks.append((c, c, i))
            i += 1
            continue
        if c == "0":
            toks.append(("0", "0", i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            toks.append(("rec" if word == "rec" else "ident", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} at offset {i}")
    toks.append(("eof", "", n))
    return toks


def reference_is_identifier(word: str) -> bool:
    try:
        toks = _tokenize(word)
    except ParseError:
        return False
    return len(toks) == 2 and toks[0][0] == "ident" and toks[0][1] == word


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r} at offset {tok[2]}")
        return tok

    def parse_expr(self):
        e = self.parse_term()
        while self.peek()[0] == "+":
            self.next()
            e = Sum(e, self.parse_term())
        return e

    def parse_term(self):
        kind, word, off = self.peek()
        if kind == "rec":
            self.next()
            tok = self.expect("ident")
            if not _is_var_name(tok[1]):
                raise ParseError(f"recursion binder {tok[1]!r} is not a variable name")
            self.expect(".")
            return Rec(tok[1], self.parse_expr())
        if kind == "ident" and word == TAU_NAME and self.toks[self.pos + 1][0] == "*":
            self.next()
            self.next()
            return loop(self.parse_term())
        if kind == "ident" and not _is_var_name(word) and self.toks[self.pos + 1][0] == ".":
            self.next()
            self.next()
            return Prefix(Action(word), self.parse_term())
        return self.parse_atom()

    def parse_atom(self):
        kind, word, off = self.next()
        if kind == "0":
            return NIL
        if kind == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind == "ident":
            if _is_var_name(word):
                return Var(word)
            raise ParseError(f"action {word!r} must be followed by '.' at offset {off}")
        if kind == "eof":
            raise ParseError(f"unexpected end of input at offset {off}")
        raise ParseError(f"unexpected token {word!r} at offset {off}")


def reference_parse(text: str):
    p = _Parser(text)
    e = p.parse_expr()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r} at offset {tok[2]}")
    return e


# --- the tuple orders ----------------------------------------------------------------


def tuple_expr_key(e):
    """Total order on expressions: constructor tag, then recursively."""
    if isinstance(e, Nil):
        return (0,)
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Prefix):
        return (2, e.act.key, tuple_expr_key(e.body))
    if isinstance(e, Sum):
        return (3, tuple_expr_key(e.left), tuple_expr_key(e.right))
    return (4, e.binder, tuple_expr_key(e.body))


def de_bruijn_key(e, bound=()):
    """e as nested tuples, with each bound variable written as the number
    of binders between it and its own: alpha-equal terms share it."""
    if isinstance(e, Var):
        return (1, bound.index(e.name)) if e.name in bound else (1, e.name)
    if isinstance(e, Prefix):
        return (2, e.act.key, de_bruijn_key(e.body, bound))
    if isinstance(e, Sum):
        return (3, de_bruijn_key(e.left, bound), de_bruijn_key(e.right, bound))
    if isinstance(e, Rec):
        return (4, de_bruijn_key(e.body, (e.binder,) + bound))
    return (0,)


def tuple_summand_key(e):
    """Order used when normalizing sums: prefixes, then variables, rest last."""
    if isinstance(e, Prefix):
        return (0, e.act.key, tuple_expr_key(e.body))
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Nil):
        return (3,)
    return (2, tuple_expr_key(e))


# --- the syntactic facts ---------------------------------------------------------------


def reference_subst(e, sub: dict):
    """`syntax._subst`, by one recursive call per subterm it rebuilds."""
    if type(e) is Var:
        return sub[e.name]
    if type(e) is Prefix:
        return Prefix(e.act, reference_subst(e.body, sub))
    if type(e) is Sum:
        left, right = e.left, e.right
        keys = sub.keys()
        return Sum(left if keys.isdisjoint(left._free) else reference_subst(left, sub),
                   right if keys.isdisjoint(right._free) else reference_subst(right, sub))
    sub = {x: sub[x] for x in free_vars(e) if x in sub}
    if any(e.binder in free_vars(f) for f in sub.values()):
        avoid = set(all_vars(e.body)) | set(sub)
        for f in sub.values():
            avoid |= free_vars(f)
        nb = fresh_name(avoid)
        if e.binder in free_vars(e.body):
            sub = {e.binder: Var(nb), **sub}
        return Rec(nb, reference_subst(e.body, sub))
    return Rec(e.binder, reference_subst(e.body, sub))


def reference_moves(e) -> set:
    """The moves of e, inner first, by one recursive call per summand or
    body: a recursion puts itself in for its binder in its body's
    derivatives."""
    if type(e) is Prefix:
        return {(e.act, e.body)}
    if type(e) is Sum:
        return reference_moves(e.left) | reference_moves(e.right)
    if type(e) is Rec:
        return {(act, substitute(d, {e.binder: e})) for act, d in reference_moves(e.body)}
    return set()


def reference_all_vars(e) -> frozenset:
    """Every identifier occurring in e, free or bound."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Prefix):
        return reference_all_vars(e.body)
    if isinstance(e, Sum):
        return reference_all_vars(e.left) | reference_all_vars(e.right)
    if isinstance(e, Rec):
        return reference_all_vars(e.body) | {e.binder}
    return frozenset()


def reference_unguarded(e) -> frozenset:
    """The free variables of e with an occurrence under no visible prefix."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Prefix):
        return reference_unguarded(e.body) if e.act.is_tau else frozenset()
    if isinstance(e, Sum):
        return reference_unguarded(e.left) | reference_unguarded(e.right)
    if isinstance(e, Rec):
        return reference_unguarded(e.body) - {e.binder}
    return frozenset()


def reference_exposes(e) -> frozenset:
    """The variables e exposes as immediate unguarded summands."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Sum):
        return reference_exposes(e.left) | reference_exposes(e.right)
    if isinstance(e, Rec):
        return reference_exposes(e.body) - {e.binder}
    return frozenset()


def reference_is_loop(e) -> bool:
    """A recursion whose body, split at the leftmost summand, starts with
    a silent self-step and whose other summands do not mention the
    binder."""
    if not isinstance(e, Rec) or not isinstance(e.body, Sum):
        return False
    first, rest = _split_left(e.body)
    if first != Prefix(TAU, Var(e.binder)):
        return False
    return e.binder not in free_vars(rest)


def reference_is_guarded_expr(e) -> bool:
    """Every recursion subterm is a loop or has its binder guarded."""
    if isinstance(e, Prefix):
        return reference_is_guarded_expr(e.body)
    if isinstance(e, Sum):
        return reference_is_guarded_expr(e.left) and reference_is_guarded_expr(e.right)
    if isinstance(e, Rec):
        if not (reference_is_loop(e) or e.binder not in reference_unguarded(e.body)):
            return False
        return reference_is_guarded_expr(e.body)
    return True


# --- guardedness of equation systems -----------------------------------------------------


def reference_is_guarded(successors) -> bool:
    """The graph that maps each formal to its unguarded successors has no
    cycle, a formal that is its own successor included."""
    try:
        TopologicalSorter(successors).prepare()
    except CycleError:
        return False
    return True
