"""Abstract syntax of process expressions.

Terms are built from 0, variables, action prefixes, binary sums and
recursion.  Values are immutable after construction and hashable;
equality is raw tree identity, never implicit alpha-conversion (the
proof system makes alpha steps explicit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional

TAU_NAME = "tau"


@dataclass(frozen=True, slots=True)
class Action:
    """A transition label: a visible action name or the silent move."""

    name: str

    @property
    def is_tau(self) -> bool:
        return self.name == TAU_NAME

    def key(self):
        # the silent move sorts before every visible action
        return (0,) if self.is_tau else (1, self.name)

    def __str__(self) -> str:
        return self.name


TAU = Action(TAU_NAME)


class Expr:
    """Base class of process expressions."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"<expr {pretty(self)}>"


class Nil(Expr):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(("nil",))

    def __eq__(self, other):
        return type(other) is Nil

    __hash__ = Expr.__hash__


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("var", name))

    def __eq__(self, other):
        return self is other or (type(other) is Var and other.name == self.name)

    __hash__ = Expr.__hash__


class Prefix(Expr):
    __slots__ = ("act", "body")

    def __init__(self, act: Action, body: Expr):
        self.act = act
        self.body = body
        self._hash = hash(("pre", act, body))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is Prefix
            and self._hash == other._hash
            and self.act == other.act
            and self.body == other.body
        )

    __hash__ = Expr.__hash__


class Sum(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash(("sum", left, right))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is Sum
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = Expr.__hash__


class Rec(Expr):
    __slots__ = ("binder", "body")

    def __init__(self, binder: str, body: Expr):
        self.binder = binder
        self.body = body
        self._hash = hash(("rec", binder, body))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is Rec
            and self._hash == other._hash
            and self.binder == other.binder
            and self.body == other.body
        )

    __hash__ = Expr.__hash__


NIL = Nil()


# --- orders ---------------------------------------------------------------


@lru_cache(maxsize=None)
def expr_key(e: Expr):
    """Total order on expressions: constructor tag, then recursively."""
    if isinstance(e, Nil):
        return (0,)
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Prefix):
        return (2, e.act.key(), expr_key(e.body))
    if isinstance(e, Sum):
        return (3, expr_key(e.left), expr_key(e.right))
    return (4, e.binder, expr_key(e.body))


def summand_key(e: Expr):
    """Order used when normalizing sums: prefixes, then variables, rest last."""
    if isinstance(e, Prefix):
        return (0, e.act.key(), expr_key(e.body))
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Nil):
        return (3,)
    return (2, expr_key(e))


# --- variables -------------------------------------------------------------


@lru_cache(maxsize=None)
def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Prefix):
        return free_vars(e.body)
    if isinstance(e, Sum):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Rec):
        return free_vars(e.body) - {e.binder}
    return frozenset()


@lru_cache(maxsize=None)
def all_vars(e: Expr) -> frozenset:
    """Every identifier occurring in e, free or bound."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Prefix):
        return all_vars(e.body)
    if isinstance(e, Sum):
        return all_vars(e.left) | all_vars(e.right)
    if isinstance(e, Rec):
        return all_vars(e.body) | {e.binder}
    return frozenset()


def fresh_name(avoid: Iterable[str], prefix: str = "_g") -> str:
    """Lowest-index unused name in the reserved namespace."""
    avoid = set(avoid)
    i = 0
    while f"{prefix}{i}" in avoid:
        i += 1
    return f"{prefix}{i}"


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous capture-free substitution.

    Bound variables are renamed (deterministically, lowest unused index
    in the reserved namespace) only when capture would occur.  Returns e
    itself when no binding applies to a free variable of e.
    """
    rel = {x: f for x, f in bindings.items() if x in free_vars(e) and f != Var(x)}
    if not rel:
        return e
    return _subst(e, rel)


def _subst(e: Expr, sub: dict) -> Expr:
    sub = {x: f for x, f in sub.items() if x in free_vars(e)}
    if not sub:
        return e
    if isinstance(e, Var):
        return sub[e.name]
    if isinstance(e, Prefix):
        return Prefix(e.act, _subst(e.body, sub))
    if isinstance(e, Sum):
        return Sum(_subst(e.left, sub), _subst(e.right, sub))
    # recursion: drop the binder, rename it first if some value captures it
    inner = {x: f for x, f in sub.items() if x != e.binder}
    if not inner:
        return e
    if any(e.binder in free_vars(f) for f in inner.values()):
        avoid = set(all_vars(e.body)) | set(inner)
        for f in inner.values():
            avoid |= free_vars(f)
        nb = fresh_name(avoid)
        body = _subst(e.body, {e.binder: Var(nb), **inner})
        return Rec(nb, body)
    return Rec(e.binder, _subst(e.body, inner))


# --- loops ------------------------------------------------------------------


def loop(e: Expr) -> Expr:
    """The expression with a silent self-step plus the moves of e.

    Built as a recursion over a fresh binder: the lowest-index reserved
    name not free in e.
    """
    x = fresh_name(free_vars(e))
    return Rec(x, Sum(Prefix(TAU, Var(x)), e))


def _split_left(body: Sum):
    """Leftmost summand of a sum tree, and the remaining summands rebuilt
    as a left-nested sum (preserving order)."""
    rights = []
    node = body
    while isinstance(node, Sum):
        rights.append(node.right)
        node = node.left
    rights.reverse()
    rest = rights[0]
    for r in rights[1:]:
        rest = Sum(rest, r)
    return node, rest


def is_loop(e: Expr) -> bool:
    """Recognize the loop shape: a recursion whose body, after flattening
    nested sums on the left spine, starts with a silent self-step and
    whose remaining summands do not mention the binder."""
    if not isinstance(e, Rec) or not isinstance(e.body, Sum):
        return False
    first, rest = _split_left(e.body)
    if first != Prefix(TAU, Var(e.binder)):
        return False
    return e.binder not in free_vars(rest)


def loop_body(e: Expr) -> Expr:
    if not is_loop(e):
        raise ValueError(f"not a loop expression: {e}")
    _, rest = _split_left(e.body)
    return rest


# --- syntactic predicates ---------------------------------------------------


@lru_cache(maxsize=None)
def is_guarded_in(x: str, e: Expr) -> bool:
    """True iff every free occurrence of x in e lies under a visible prefix."""
    if isinstance(e, Var):
        return e.name != x
    if isinstance(e, Prefix):
        return True if not e.act.is_tau else is_guarded_in(x, e.body)
    if isinstance(e, Sum):
        return is_guarded_in(x, e.left) and is_guarded_in(x, e.right)
    if isinstance(e, Rec):
        return True if e.binder == x else is_guarded_in(x, e.body)
    return True


@lru_cache(maxsize=None)
def is_guarded_expr(e: Expr) -> bool:
    """True iff every recursion subterm is a loop or has its binder guarded."""
    if isinstance(e, Prefix):
        return is_guarded_expr(e.body)
    if isinstance(e, Sum):
        return is_guarded_expr(e.left) and is_guarded_expr(e.right)
    if isinstance(e, Rec):
        if not (is_loop(e) or is_guarded_in(e.binder, e.body)):
            return False
        return is_guarded_expr(e.body)
    return True


def is_fully_exposed(x: str, e: Expr) -> bool:
    """True iff every unguarded free occurrence of x sits only inside
    recursions that are loops."""
    if isinstance(e, Prefix):
        return True if not e.act.is_tau else is_fully_exposed(x, e.body)
    if isinstance(e, Sum):
        return is_fully_exposed(x, e.left) and is_fully_exposed(x, e.right)
    if isinstance(e, Rec):
        if e.binder == x:
            return True
        if not is_guarded_in(x, e.body) and not is_loop(e):
            return False
        return is_fully_exposed(x, e.body)
    return True


# --- sums -------------------------------------------------------------------


def flatten_sum(e: Expr) -> list:
    """All non-sum leaves of a sum tree, in syntactic order."""
    if isinstance(e, Sum):
        return flatten_sum(e.left) + flatten_sum(e.right)
    return [e]


def canon_leaves(leaves: Iterable[Expr]) -> list:
    """Sort by summand order, remove duplicates and empty summands."""
    out = []
    for leaf in sorted(leaves, key=summand_key):
        if isinstance(leaf, Nil):
            continue
        if out and out[-1] == leaf:
            continue
        out.append(leaf)
    return out


def compose_sum(leaves: Iterable[Expr]) -> Expr:
    """Left-nested sum of the given summands; empty list gives 0."""
    leaves = list(leaves)
    if not leaves:
        return NIL
    acc = leaves[0]
    for leaf in leaves[1:]:
        acc = Sum(acc, leaf)
    return acc


def canon_sum(e: Expr) -> Expr:
    """The canonical form of a sum: sorted, duplicate- and 0-free."""
    return compose_sum(canon_leaves(flatten_sum(e)))


@dataclass(frozen=True)
class SumView:
    """A sum seen as prefixed summands plus variable summands, normalized."""

    prefixed: tuple
    vars: tuple

    def is_empty(self) -> bool:
        return not self.prefixed and not self.vars


def make_view(prefixed, var_names) -> SumView:
    pre = canon_leaves(Prefix(a, b) for a, b in prefixed)
    vs = []
    for v in sorted(set(var_names)):
        vs.append(v)
    return SumView(tuple((p.act, p.body) for p in pre), tuple(vs))


def view_expr(view: SumView) -> Expr:
    """The canonical expression denoted by a sum view."""
    leaves = [Prefix(a, b) for a, b in view.prefixed] + [Var(v) for v in view.vars]
    return compose_sum(canon_leaves(leaves))


def as_standard_sum(e: Expr) -> Optional[SumView]:
    """View e as a sum of prefixes over guarded expressions plus variables.

    Returns None when some summand has another shape; empty summands are
    absorbed.
    """
    prefixed = []
    var_names = []
    for leaf in flatten_sum(e):
        if isinstance(leaf, Nil):
            continue
        if isinstance(leaf, Var):
            var_names.append(leaf.name)
        elif isinstance(leaf, Prefix) and is_guarded_expr(leaf.body):
            prefixed.append((leaf.act, leaf.body))
        else:
            return None
    return make_view(prefixed, var_names)


# --- concrete grammar --------------------------------------------------------
#
#   0                    deadlock
#   X, Y1, _g0           variables (uppercase or underscore initial)
#   a.E, tau.E           prefix (right associative, binds tighter than +)
#   E + E                sum (left associative)
#   rec X. E             recursion (body extends maximally right)
#   tau* E               loop sugar
#   # comment            to end of line
#   @3                   reference to term 3 of a certificate's term table;
#                        only `parse_derivation` resolves it, and plain
#                        `parse` rejects it


class ParseError(ValueError):
    pass


_KEYWORDS = {"rec", "0"}


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
        if c == "@":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j > i + 1:
                toks.append(("ref", text[i + 1 : j], i))
                i = j
                continue
        raise ParseError(f"unexpected character {c!r} at offset {i}")
    toks.append(("eof", "", n))
    return toks


def _is_var_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


class _Parser:
    def __init__(self, text: str, terms: Optional[list]):
        self.toks = _tokenize(text)
        self.pos = 0
        self.terms = terms

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

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek()[0] == "+":
            self.next()
            e = Sum(e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
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

    def parse_atom(self) -> Expr:
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
        if kind == "ref":
            if self.terms is None:
                raise ParseError(f"term reference @{word} outside a certificate at offset {off}")
            k = int(word)
            if k >= len(self.terms):
                raise ParseError(f"undefined term @{word} at offset {off}")
            return self.terms[k]
        if kind == "eof":
            raise ParseError(f"unexpected end of input at offset {off}")
        raise ParseError(f"unexpected token {word!r} at offset {off}")


def parse(text: str) -> Expr:
    """Parse one expression; trailing whitespace and comments are ignored."""
    return _parse(text, None)


def _parse(text: str, terms: Optional[list]) -> Expr:
    """`parse`, resolving each `@n` to `terms[n]` (certificates only)."""
    p = _Parser(text, terms)
    e = p.parse_expr()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r} at offset {tok[2]}")
    return e


def _loop_sugar(e: Expr) -> Optional[Expr]:
    """The loop body when e prints back identically via the sugar."""
    if isinstance(e, Rec) and is_loop(e):
        body = loop_body(e)
        if loop(body) == e:
            return body
    return None


def _pp(e: Expr, rightmost: bool) -> str:
    if isinstance(e, Nil):
        return "0"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Sum):
        return f"{_pp(e.left, False)} + {_pp_summand(e.right, rightmost)}"
    body = _loop_sugar(e)
    if body is not None:
        return f"tau* {_pp_guard_body(body, rightmost)}"
    if isinstance(e, Prefix):
        return f"{e.act}.{_pp_guard_body(e.body, rightmost)}"
    if rightmost:
        return f"rec {e.binder}. {_pp(e.body, True)}"
    return f"(rec {e.binder}. {_pp(e.body, True)})"


def _pp_summand(e: Expr, rightmost: bool) -> str:
    # a sum appearing as the right child must keep its parentheses
    if isinstance(e, Sum):
        return f"({_pp(e, True)})"
    return _pp(e, rightmost)


def _pp_guard_body(e: Expr, rightmost: bool) -> str:
    # prefix and loop bodies: sums always need parentheses; recursions
    # only when something follows to the right
    if isinstance(e, Sum):
        return f"({_pp(e, True)})"
    return _pp(e, rightmost)


def pretty(e: Expr) -> str:
    """Print in the concrete grammar; parse(pretty(e)) == e."""
    return _pp(e, True)
