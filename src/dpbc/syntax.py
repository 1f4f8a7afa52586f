"""Abstract syntax of process expressions.

Terms are built from 0, variables, action prefixes, binary sums and
recursion.  Terms are hash-consed: every distinct term is built once
and shared, so equality is node identity, never implicit
alpha-conversion (the proof system makes alpha steps explicit).  The
table of nodes holds them weakly; a term nothing uses leaves it.
"""

from __future__ import annotations

import weakref
from functools import wraps
from typing import Iterable, Mapping, Optional

TAU_NAME = "tau"

# The state budget of a search through a term's derivatives (see
# `semantics`).  It is set here so that the command line can show it as
# the default of `--budget` without loading the semantics.
DEFAULT_BUDGET = 100000


# the `__init__` of a `Value` subclass fills its slots through this,
# past the `__setattr__` that keeps the value immutable
_set = object.__setattr__


class Value:
    """Base of the package's immutable value classes.

    A subclass declares its `__slots__` and names in `_fields` the slots
    that make up its value: two instances of the same class are equal,
    and hash alike, when those slots are.  Assigning or deleting an
    attribute raises `AttributeError`; `__init__` fills the slots with
    `_set`.  Defining a subclass generates and compiles no code, so
    loading a module costs nothing per value class.
    """

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Action(Value):
    """A transition label: a visible action name or the silent move."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    @property
    def is_tau(self) -> bool:
        return self.name == TAU_NAME

    def key(self):
        # the silent move sorts before every visible action
        return (0,) if self.is_tau else (1, self.name)

    def __str__(self) -> str:
        return self.name


TAU = Action(TAU_NAME)


class _Ref(weakref.ref):
    """A weak reference to an interned node that carries its table key."""

    __slots__ = ("key",)


# (tag, action name or binder, child ids) -> _Ref of the one live node.
# A key names its children by id; the node holds its children, so while
# an entry's node lives no other object can take a child's id.
_TABLE: dict = {}


def _forget(ref, table=_TABLE):
    # `table` is bound here so that nodes freed while the interpreter
    # tears down module globals still find it.  A dead entry may already
    # have been replaced by a live node built under the same key.
    if table.get(ref.key) is ref:
        del table[ref.key]


def _make(cls, key, h, free):
    node = object.__new__(cls)
    node._hash = h
    node._free = free
    node._memo = None
    ref = _Ref(node, _forget)
    ref.key = key
    _TABLE[key] = ref
    return node


class Expr:
    """Base class of process expressions.

    Hash-consed: each constructor returns the one live node with its tag,
    label and children, so equal terms are the same object and `==` is
    identity.  `_free` holds the free variables, worked out from the
    children when the node is built, so that no walk over a term of any
    depth is needed for them.  `_memo` holds the results of the
    functions marked `_per_node`, so they live exactly as long as the
    node.
    """

    __slots__ = ("_hash", "_free", "_memo", "__weakref__")

    def __hash__(self):
        return self._hash

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"<expr {pretty(self)}>"


class Nil(Expr):
    __slots__ = ()

    def __new__(cls):
        return NIL


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = ("var", name)
        ref = _TABLE.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = _make(cls, key, hash(key), frozenset((name,)))
            node.name = name
        return node


class Prefix(Expr):
    __slots__ = ("act", "body")

    def __new__(cls, act: Action, body: Expr):
        key = ("pre", act.name, id(body))
        ref = _TABLE.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = _make(cls, key, hash(("pre", act, body)), body._free)
            node.act = act
            node.body = body
        return node


class Sum(Expr):
    __slots__ = ("left", "right")

    def __new__(cls, left: Expr, right: Expr):
        key = ("sum", id(left), id(right))
        ref = _TABLE.get(key)
        node = ref() if ref is not None else None
        if node is None:
            lf, rf = left._free, right._free
            free = lf if rf <= lf else rf if lf <= rf else lf | rf
            node = _make(cls, key, hash(("sum", left, right)), free)
            node.left = left
            node.right = right
        return node


class Rec(Expr):
    __slots__ = ("binder", "body")

    def __new__(cls, binder: str, body: Expr):
        key = ("rec", binder, id(body))
        ref = _TABLE.get(key)
        node = ref() if ref is not None else None
        if node is None:
            free = body._free - {binder} if binder in body._free else body._free
            node = _make(cls, key, hash(("rec", binder, body)), free)
            node.binder = binder
            node.body = body
        return node


NIL = _make(Nil, ("nil",), hash(("nil",)), frozenset())


def _per_node(fn):
    """Keep fn's result for a term in the term's `_memo`, under fn."""

    @wraps(fn)
    def cached(e):
        memo = e._memo
        if memo is None:
            memo = e._memo = {}
        elif cached in memo:
            return memo[cached]
        out = memo[cached] = fn(e)
        return out

    return cached


# --- orders ---------------------------------------------------------------


@_per_node
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


def free_vars(e: Expr) -> frozenset:
    """The free variables of e, set when its node was built."""
    return e._free


@_per_node
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
    rel = {}
    for x in free_vars(e):
        f = bindings.get(x)
        if f is not None and f is not Var(x):
            rel[x] = f
    if not rel:
        return e
    return _subst(e, rel)


def _restrict(sub: dict, e: Expr) -> dict:
    return {x: sub[x] for x in free_vars(e) if x in sub}


def _subst(e: Expr, sub: dict) -> Expr:
    """`substitute` for a non-empty `sub` over free variables of e only."""
    if type(e) is Var:
        return sub[e.name]
    if type(e) is Prefix:
        return Prefix(e.act, _subst(e.body, sub))
    if type(e) is Sum:
        left = _restrict(sub, e.left)
        right = _restrict(sub, e.right)
        return Sum(_subst(e.left, left) if left else e.left,
                   _subst(e.right, right) if right else e.right)
    # recursion: the binder is not free in e, so not in sub; rename it
    # first if some value would capture it
    if any(e.binder in free_vars(f) for f in sub.values()):
        avoid = set(all_vars(e.body)) | set(sub)
        for f in sub.values():
            avoid |= free_vars(f)
        nb = fresh_name(avoid)
        if e.binder in free_vars(e.body):
            sub = {e.binder: Var(nb), **sub}
        return Rec(nb, _subst(e.body, sub))
    return Rec(e.binder, _subst(e.body, sub))


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


@_per_node
def _unguarded(e: Expr) -> frozenset:
    """The free variables of e with an occurrence under no visible prefix."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Prefix):
        return _unguarded(e.body) if e.act.is_tau else frozenset()
    if isinstance(e, Sum):
        return _unguarded(e.left) | _unguarded(e.right)
    if isinstance(e, Rec):
        return _unguarded(e.body) - {e.binder}
    return frozenset()


def is_guarded_in(x: str, e: Expr) -> bool:
    """True iff every free occurrence of x in e lies under a visible prefix.

    Equivalently, no expression that e reaches by silent steps exposes x:
    the silent steps fire the silent prefixes above an unguarded
    occurrence, and unfolding a recursion copies only occurrences that
    are guarded in it."""
    return x not in _unguarded(e)


@_per_node
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


# --- sums -------------------------------------------------------------------


def flatten_sum(e: Expr) -> list:
    """All non-sum leaves of a sum tree, in syntactic order."""
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        if isinstance(n, Sum):
            todo += (n.right, n.left)
        else:
            out.append(n)
    return out


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


def is_standard_sum(e: Expr) -> bool:
    """Every summand of e is 0, a variable, or a prefix over a guarded
    expression."""
    return all(isinstance(leaf, (Nil, Var))
               or (isinstance(leaf, Prefix) and is_guarded_expr(leaf.body))
               for leaf in flatten_sum(e))


# --- concrete grammar --------------------------------------------------------
#
#   0                    deadlock
#   X, Y1, _g0           variables (uppercase or underscore initial)
#   a.E, tau.E           prefix (right associative, binds tighter than +)
#   E + E                sum (left associative)
#   rec X. E             recursion (body extends maximally right)
#   tau* E               loop sugar
#   # comment            to end of line


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
        raise ParseError(f"unexpected character {c!r} at offset {i}")
    toks.append(("eof", "", n))
    return toks


def _is_var_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


def _is_identifier(word: str) -> bool:
    """`word` reads as exactly one identifier token (not the keyword `rec`)."""
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
        if kind == "eof":
            raise ParseError(f"unexpected end of input at offset {off}")
        raise ParseError(f"unexpected token {word!r} at offset {off}")


def parse(text: str) -> Expr:
    """Parse one expression; trailing whitespace and comments are ignored."""
    p = _Parser(text)
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


def _nested(e: Expr, rightmost: bool) -> list:
    # the right child of a sum, a prefix body or a loop body: a sum always
    # needs parentheses there, a recursion only when something follows
    # to the right
    if isinstance(e, Sum):
        return ["(", (e, True), ")"]
    return [(e, rightmost)]


def pretty(e: Expr) -> str:
    """Print in the concrete grammar; parse(pretty(e)) == e.

    Iterative, so a term of any depth prints: `todo` holds what is left
    to write, next piece last, as strings and (term, rightmost) pairs,
    where `rightmost` says that nothing follows the term."""
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
            parts = [(e.left, False), " + ", *_nested(e.right, rightmost)]
        elif (body := _loop_sugar(e)) is not None:
            parts = ["tau* ", *_nested(body, rightmost)]
        elif isinstance(e, Prefix):
            parts = [f"{e.act}.", *_nested(e.body, rightmost)]
        elif rightmost:
            parts = [f"rec {e.binder}. ", (e.body, True)]
        else:
            parts = [f"(rec {e.binder}. ", (e.body, True), ")"]
        todo.extend(reversed(parts))
    return "".join(out)
