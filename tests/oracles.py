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

`reference_pretty`, `reference_format_derivation` and
`reference_parse_derivation` are the printer and the certificate writer
and reader that the lean ones replaced (see their section below).
"""

from functools import partial
from graphlib import CycleError, TopologicalSorter

from dpbc.equiv import CLAUSES, Partition, _branching_ok, _strong_ok
from dpbc.kernel import (
    POSITIONS, SCHEMA_PARAMS, AxiomStep, CertificateError, Cong, Derivation, ProofError,
    ProofStep, Refl, Symm, Trans)
from dpbc.semantics import Lts, _tau_sccs
from dpbc.syntax import (
    NIL, TAU, TAU_NAME, Action, Expr, Nil, ParseError, Prefix, Rec, Sum, Value, Var,
    _is_identifier, _is_var_name, _set, all_vars, fresh_name, free_vars,
    compose_sum, is_loop, loop, loop_body, parse, substitute)


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
    rights, first = [], e.body
    while isinstance(first, Sum):
        rights.append(first.right)
        first = first.left
    rest = compose_sum(reversed(rights))
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


# --- the text layer -------------------------------------------------------------------
#
# `reference_pretty`, `reference_format_derivation` and
# `reference_parse_derivation` are the printer, certificate writer and
# certificate reader that `syntax.pretty` and `kernel`'s lean ones
# replaced.  The printer decides the loop sugar by building the loop it
# would print and comparing; the writer and reader build each step and
# justification through its constructor and test its kind with a chain
# of `isinstance`.  The reader keeps the last of two bindings of one
# parameter, which the lean reader refuses.


def _reference_loop_sugar(e):
    """The loop body when e prints back identically via the sugar."""
    if is_loop(e):
        body = loop_body(e)
        if loop(body) == e:
            return body
    return None


def _reference_nested(e, rightmost: bool) -> list:
    if isinstance(e, Sum):
        return ["(", (e, True), ")"]
    return [(e, rightmost)]


def reference_pretty(e) -> str:
    out = []
    todo = [(e, True)]
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            out.append(piece)
            continue
        e, rightmost = piece
        if isinstance(e, Nil):
            out.append("0")
            continue
        if isinstance(e, Var):
            out.append(e.name)
            continue
        if isinstance(e, Sum):
            parts = [(e.left, False), " + ", *_reference_nested(e.right, rightmost)]
        elif (body := _reference_loop_sugar(e)) is not None:
            parts = ["tau* ", *_reference_nested(body, rightmost)]
        elif isinstance(e, Prefix):
            parts = [f"{e.act}.", *_reference_nested(e.body, rightmost)]
        elif rightmost:
            parts = [f"rec {e.binder}. ", (e.body, True)]
        else:
            parts = [f"(rec {e.binder}. ", (e.body, True), ")"]
        todo.extend(reversed(parts))
    return "".join(out)


def _reference_write(value, ref) -> str:
    return ref(value) if isinstance(value, Expr) else str(value)


def _reference_format_just(just, ref) -> str:
    if isinstance(just, Refl):
        return "refl"
    if isinstance(just, Symm):
        return f"symm {just.of}"
    if isinstance(just, Trans):
        return f"trans {just.first} {just.second}"
    if isinstance(just, AxiomStep):
        parts = [f"{n}:={_reference_write(v, ref)}" for n, v in just.meta + just.extra]
        text = f"axiom {just.axiom} {{{', '.join(parts)}}}"
        if just.premise is not None:
            text += f" premise {just.premise}"
        return text
    if isinstance(just, Cong):
        p = POSITIONS[just.pos]
        return (f"cong {just.pos} {just.inner} in "
                f"{p.before}{_reference_write(just.context, ref)}{p.after}")
    raise ProofError(f"cannot format {just!r}")


def reference_format_derivation(d) -> str:
    lhs, rhs = d.conclusion
    lines = [f"# proves: {reference_pretty(lhs)} = {reference_pretty(rhs)}"]
    ids = {id(NIL): "0"}

    def ref(e) -> str:
        field = ids.get(id(e))
        if field is not None:
            return field
        todo = [e]
        while todo:
            n = todo.pop()
            if id(n) in ids:
                continue
            if isinstance(n, Var):
                ids[id(n)] = n.name
                continue
            if isinstance(n, Sum):
                left, right = ids.get(id(n.left)), ids.get(id(n.right))
                if left is None or right is None:
                    todo.append(n)
                    if right is None:
                        todo.append(n.right)
                    if left is None:
                        todo.append(n.left)
                    continue
                body = f"{left} + {right}"
            else:
                inner = ids.get(id(n.body))
                if inner is None:
                    todo += (n, n.body)
                    continue
                body = (f"{n.act}.{inner}" if isinstance(n, Prefix)
                        else f"rec {n.binder}. {inner}")
            k = len(lines) - 1
            ids[id(n)] = f"@{k}"
            lines.append(f"term {k} {body}")
        return ids[id(e)]

    steps = [f"step {i} {ref(st.lhs)} = {ref(st.rhs)} by {_reference_format_just(st.just, ref)}"
             for i, st in enumerate(d.steps)]
    return "\n".join(lines + steps) + "\n"


def _reference_name(text: str, variable: bool) -> str:
    if not _is_identifier(text) or _is_var_name(text) != variable:
        raise CertificateError(
            f"bad {'variable' if variable else 'action'} name {text!r}")
    return text


def _reference_numeral(text: str) -> int:
    if text.isdigit() and text.isascii() and (text[0] != "0" or text == "0"):
        return int(text)
    raise CertificateError(f"bad number {text!r}")


class _ReferenceFields(dict):
    def __init__(self):
        super().__init__({"0": NIL})
        self.table = False

    def __missing__(self, text: str):
        if not self.table:
            e = self[text] = parse(text)
            return e
        word = text.strip(" \t\r\n")
        if word != text:
            return self[word]
        if word.startswith("@"):
            raise CertificateError(f"undefined term @{_reference_numeral(word[1:])}")
        e = self[word] = Var(_reference_name(word, True))
        return e


class _ReferenceNames(dict):
    def __init__(self, variable: bool):
        super().__init__()
        self.variable = variable

    def __missing__(self, text: str):
        name = _reference_name(text, self.variable)
        value = self[text] = name if self.variable else Action(name)
        return value


class _ReferenceReader:
    def __init__(self):
        self.fields = _ReferenceFields()
        self.actions = _ReferenceNames(variable=False)
        self.binders = _ReferenceNames(variable=True)

    def term(self, text: str):
        fields = self.fields
        left, plus, right = text.partition(" + ")
        if not plus:
            left, plus, right = text.partition("+")
        if plus:
            return Sum(fields[left], fields[right])
        head, dot, body = text.partition(".")
        if dot:
            words = head.split()
            if len(words) == 2 and words[0] == "rec":
                return Rec(self.binders[words[1]], fields[body])
            if len(words) == 1:
                return Prefix(self.actions[words[0]], fields[body])
        raise CertificateError(f"bad term {text!r}")

    def just(self, text: str):
        kind, _, rest = text.strip().partition(" ")
        if kind == "trans":
            a, b = rest.split()
            return Trans(_reference_numeral(a), _reference_numeral(b))
        if kind == "cong":
            return self.cong(rest)
        if kind == "axiom":
            return self.axiom(rest)
        if kind == "symm":
            return Symm(_reference_numeral(rest.strip()))
        if kind == "refl" and not rest:
            return Refl()
        raise CertificateError(f"unknown justification {text!r}")

    def cong(self, text: str):
        pos, _, rest = text.partition(" ")
        num, _, rest = rest.strip().partition(" ")
        inner = _reference_numeral(num)
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
        if p.kind is Expr:
            return Cong(pos, inner, self.fields[value])
        if p.kind is Action:
            return Cong(pos, inner, self.actions[value])
        return Cong(pos, inner, self.binders[value.strip()])

    def axiom(self, text: str):
        name, _, rest = text.strip().partition(" ")
        params = SCHEMA_PARAMS.get(name)
        if params is None:
            raise CertificateError(f"unknown axiom {name!r}")
        rest = rest.strip()
        if not rest.startswith("{") or "}" not in rest:
            raise CertificateError(f"missing bindings for {name}")
        body, _, tail = rest[1:].partition("}")
        tail = tail.strip()
        premise = None
        if tail:
            if not tail.startswith("premise "):
                raise CertificateError(f"unexpected trailer {tail!r}")
            premise = _reference_numeral(tail[8:].strip())
        metas, extras = params
        meta, extra = {}, {}
        if body.strip():
            for chunk in body.split(","):
                key, sep, value = chunk.partition(":=")
                if not sep:
                    raise CertificateError(f"bad binding {chunk!r}")
                key = key.strip()
                value = value.strip()
                if key in metas:
                    meta[key] = self.fields[value]
                elif key in extras:
                    extra[key] = (self.actions if key == "a" else self.binders)[value]
                else:
                    raise CertificateError(f"{name} takes no parameter {key!r}")
        return AxiomStep(
            name, tuple(sorted(meta.items())), tuple(sorted(extra.items())), premise)


def reference_parse_derivation(text: str):
    reader = _ReferenceReader()
    fields, just = reader.fields, reader.just
    n_terms, steps = 0, []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        kind, _, rest = line.partition(" ")
        if kind not in ("term", "step"):
            raise CertificateError(f"unexpected line {line!r}")
        num, _, rest = rest.partition(" ")
        try:
            expected = n_terms if kind == "term" else len(steps)
            if num != str(expected):
                raise CertificateError(
                    f"{kind} numbered {_reference_numeral(num)} but {expected} expected")
            if kind == "term":
                if steps:
                    raise CertificateError(f"term {num} follows a step")
                fields.table = True
                fields["@" + num] = reader.term(rest)
                n_terms += 1
                continue
            body, sep, just_text = rest.rpartition(" by ")
            if not sep:
                raise CertificateError(f"step {num} has no justification")
            lhs_text, eq, rhs_text = body.partition(" = ")
            if not eq:
                raise CertificateError(f"step {num} is not an equation")
            steps.append(ProofStep(fields[lhs_text], fields[rhs_text], just(just_text)))
        except ValueError as exc:
            if isinstance(exc, CertificateError):
                raise
            raise CertificateError(f"malformed {kind} {num!r}: {exc}") from exc
    if not steps:
        raise CertificateError("certificate has no steps")
    return Derivation(tuple(steps))
