"""Abstract syntax of process expressions.

Terms are built from 0, variables, action prefixes, binary sums and
recursion.  Terms are hash-consed: every distinct term is built once
and shared, so equality is node identity, never implicit
alpha-conversion (the proof system makes alpha steps explicit).  The
table of nodes holds them weakly; a term nothing uses leaves it.
"""

from __future__ import annotations

import re
import weakref
from functools import cmp_to_key, partial, reduce
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


class Action(Value):
    """A transition label: a visible action name or the silent move.  As
    with `Var`, `Action(name)` returns the one action of that name, its
    `is_tau`, sort `key` (silent first, then by name) and hash set once.
    Names are few, so `_ACTIONS` keeps every action built."""

    __slots__ = ("name", "is_tau", "key", "_hash")
    _fields = ("name",)

    def __new__(cls, name: str):
        act = _ACTIONS.get(name)
        if act is None:
            act = _ACTIONS[name] = object.__new__(cls)
            _set(act, "name", name)
            _set(act, "is_tau", name == TAU_NAME)
            _set(act, "key", (0,) if name == TAU_NAME else (1, name))
            _set(act, "_hash", hash((name,)))
        return act

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        return self.name


_ACTIONS: dict = {}
TAU = Action(TAU_NAME)


def _make(cls, key, h, free, unguarded, exposed, guarded):
    node = object.__new__(cls)
    node._hash = h
    node._free = free
    node._unguarded = unguarded
    node._exposed = exposed
    node._guarded = guarded
    node._step = None
    ref = _Ref(node, _forget)
    ref.key = key
    _TABLE[key] = ref
    return node


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, but one of the two itself when it holds the other."""
    return a if b <= a else b if a <= b else a | b


class Expr:
    """Base class of process expressions.

    Hash-consed: each constructor returns the one live node with its tag,
    label and children, so equal terms are the same object and `==` is
    identity.  The facts that side conditions and the standard form ask
    about are worked out from the children when the node is built, so no
    walk over a term of any depth is needed for them: `_free` (see
    `free_vars`), `_unguarded` (`is_guarded_in`), `_exposed`
    (`semantics.exposes`) and `_guarded` (`is_guarded_expr`).
    `_step` keeps the node's moves, sorted, once `semantics.step` has
    worked them out.
    """

    __slots__ = ("_hash", "_free", "_unguarded", "_exposed", "_guarded", "_step",
                 "__weakref__")

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
            names = frozenset((name,))
            node = _make(cls, key, hash(key), names, names, names, True)
            node.name = name
        return node


class Prefix(Expr):
    __slots__ = ("act", "body")

    def __new__(cls, act: Action, body: Expr):
        key = ("pre", act.name, id(body))
        ref = _TABLE.get(key)
        node = ref() if ref is not None else None
        if node is None:
            # a visible prefix guards every occurrence below it
            node = _make(cls, key, hash(("pre", act, body)), body._free,
                         body._unguarded if act.is_tau else _NONE, _NONE, body._guarded)
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
            node = _make(cls, key, hash(("sum", left, right)),
                         _union(left._free, right._free),
                         _union(left._unguarded, right._unguarded),
                         _union(left._exposed, right._exposed),
                         left._guarded and right._guarded)
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
            free, unguarded, exposed = body._free, body._unguarded, body._exposed
            # exposed <= unguarded <= free
            if binder in free:
                free = free - {binder}
                if binder in unguarded:
                    unguarded, exposed = unguarded - {binder}, exposed - {binder}
            node = _make(cls, key, hash(("rec", binder, body)), free, unguarded, exposed,
                         body._guarded)
            node.binder = binder
            node.body = body
            # a recursion that leaves its binder unguarded must be a loop
            if node._guarded and binder in body._unguarded:
                node._guarded = is_loop(node)
        return node


_NONE = frozenset()
NIL = _make(Nil, ("nil",), hash(("nil",)), _NONE, _NONE, _NONE, True)


# --- orders ---------------------------------------------------------------


_TAG = {Nil: 0, Var: 1, Prefix: 2, Sum: 3, Rec: 4}
# the order of a standard sum's summands: prefixes, then variables, sums
# and recursions, 0 last
_SUMMAND_RANK = {Prefix: 0, Var: 1, Sum: 2, Rec: 3, Nil: 4}


def _compare(x: Expr, y: Expr, rank: dict = _TAG) -> int:
    """-1, 0 or 1 as x sorts before, with or after y: by constructor
    (ranked by `rank` at the top, by `_TAG` below), then by name, action
    `key` or binder, then by the children from the left.  Equal terms
    are the same node, so the walk stops at the first difference."""
    todo = []
    while True:
        if x is not y:
            tx = type(x)
            if tx is not type(y):
                return -1 if rank[tx] < rank[type(y)] else 1
            rank = _TAG
            if tx is Sum:
                todo.append((x.right, y.right))
                x, y = x.left, y.left
                continue
            if tx is Var:
                return -1 if x.name < y.name else 1
            if tx is Prefix:
                if x.act.key != y.act.key:
                    return -1 if x.act.key < y.act.key else 1
            elif x.binder != y.binder:
                return -1 if x.binder < y.binder else 1
            x, y = x.body, y.body
        elif todo:
            x, y = todo.pop()
        else:
            return 0


summand_key = cmp_to_key(partial(_compare, rank=_SUMMAND_RANK))


# --- variables -------------------------------------------------------------


def free_vars(e: Expr) -> frozenset:
    """The free variables of e, set when its node was built."""
    return e._free


def all_vars(e: Expr) -> frozenset:
    """Every identifier occurring in e, free or bound: its free variables
    and the binders of its recursions.  A stack walks e, each shared
    subterm once.  (A set per node would grow with the number of
    binders nested below it.)"""
    names, seen, todo = set(e._free), set(), [e]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            if type(n) is Sum:
                todo += (n.left, n.right)
            elif type(n) is Rec:
                names.add(n.binder)
                todo.append(n.body)
            elif type(n) is Prefix:
                todo.append(n.body)
    return frozenset(names)


def fresh_name(avoid: Iterable[str]) -> str:
    """Lowest-index unused name in the reserved namespace `_g`."""
    avoid = set(avoid)
    i = 0
    while f"_g{i}" in avoid:
        i += 1
    return f"_g{i}"


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous capture-free substitution.

    Bound variables are renamed (deterministically, lowest unused index
    in the reserved namespace) only when capture would occur.  Returns e
    itself when no binding applies to a free variable of e.
    """
    rel = {}
    for x in free_vars(e):
        f = bindings.get(x)
        if f is not None and (type(f) is not Var or f.name != x):
            rel[x] = f
    if not rel:
        return e
    return _subst(e, rel)


def _subst(e: Expr, sub: dict) -> Expr:
    """`substitute` for a `sub` that binds some free variable of e; its
    other bindings are passed down until a recursion drops them.

    A stack stands in for recursion, so a term of any depth is
    substituted.  The walk goes down from e to a variable, leaving on
    `todo` what is left: a (term, bindings) pair is the right half of a
    sum, still to walk.  Anything else puts a term back together over
    `new`, the subterm just finished: a prefix, the binder of a
    recursion, or a sum with 1, 2 or 3 as its left, right or both halves
    change.  A left half that is done waits on `done` for its right."""
    done = []
    todo = []
    push, pop = todo.append, todo.pop
    while True:
        while True:  # down to a variable
            t = type(e)
            if t is Prefix:
                push(e)
                e = e.body
            elif t is Var:
                new = sub[e.name]
                break
            elif t is Sum:
                keys = sub.keys()
                if keys.isdisjoint(e.left._free):
                    push(2)
                    push(e)
                    e = e.right
                elif keys.isdisjoint(e.right._free):
                    push(1)
                    push(e)
                    e = e.left
                else:
                    push(3)
                    push(e)
                    push((e.right, sub))
                    e = e.left
            else:
                # recursion: keep only the bindings of its free variables, so
                # that the binder, which is not free in e, is not bound, and
                # rename it first if one of the values kept would capture it
                sub = {x: sub[x] for x in e._free if x in sub}
                binder = e.binder
                if any(binder in f._free for f in sub.values()):
                    avoid = set(all_vars(e.body)) | set(sub)
                    for f in sub.values():
                        avoid |= f._free
                    binder = fresh_name(avoid)
                    if e.binder in e.body._free:
                        sub = {e.binder: Var(binder), **sub}
                push(binder)
                e = e.body
        while True:  # up to the next half to walk
            if not todo:
                return new
            x = pop()
            t = type(x)
            if t is Prefix:
                new = Prefix(x.act, new)
            elif t is Sum:
                which = pop()
                if which == 1:
                    new = Sum(new, x.right)
                elif which == 2:
                    new = Sum(x.left, new)
                else:
                    new = Sum(done.pop(), new)
            elif t is str:
                new = Rec(x, new)
            else:
                done.append(new)
                e, sub = x
                break


# --- loops ------------------------------------------------------------------


def loop(e: Expr) -> Expr:
    """The expression with a silent self-step plus the moves of e.

    Built as a recursion over a fresh binder: the lowest-index reserved
    name not free in e.
    """
    x = fresh_name(free_vars(e))
    return Rec(x, Sum(Prefix(TAU, Var(x)), e))


def is_loop(e: Expr) -> bool:
    """Recognize the loop shape: a recursion whose body, after flattening
    nested sums on the left spine, starts with a silent self-step and
    whose remaining summands do not mention the binder.  It walks the
    left spine and builds no term."""
    if type(e) is not Rec or type(e.body) is not Sum:
        return False
    node = e.body
    while type(node) is Sum:
        if e.binder in node.right._free:
            return False
        node = node.left
    return (type(node) is Prefix and node.act.is_tau
            and type(node.body) is Var and node.body.name == e.binder)


def loop_body(e: Expr) -> Expr:
    """The summands of a loop after its silent self-step, as a sum nested
    to the left, in order."""
    if not is_loop(e):
        raise ValueError(f"not a loop expression: {e}")
    rights, node = [], e.body
    while type(node) is Sum:
        rights.append(node.right)
        node = node.left
    return compose_sum(reversed(rights))


# --- syntactic predicates ---------------------------------------------------


def is_guarded_in(x: str, e: Expr) -> bool:
    """True iff every free occurrence of x in e lies under a visible prefix.

    Equivalently, no expression that e reaches by silent steps exposes x:
    the silent steps fire the silent prefixes above an unguarded
    occurrence, and unfolding a recursion copies only occurrences that
    are guarded in it."""
    return x not in e._unguarded


def is_guarded_expr(e: Expr) -> bool:
    """True iff every recursion subterm is a loop or has its binder guarded."""
    return e._guarded


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
    return sorted(set(leaves) - {NIL}, key=summand_key)


def compose_sum(leaves: Iterable[Expr]) -> Expr:
    """Left-nested sum of the given summands; empty list gives 0."""
    leaves = list(leaves)
    return reduce(Sum, leaves) if leaves else NIL


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


# A token, after any whitespace and comments: an identifier (a word
# character but no decimal digit, then word characters and primes), any
# other character, or "" at the end.  `_word` reads an identifier.
_TOKEN = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*([^\W\d][\w']*|.|\Z)", re.S)
_REC, _OTHER = object(), object()


def _is_var_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


def _word(tok: str):
    """What a token reads as: `_REC`, a variable, an action, or `_OTHER`
    when it is no identifier (a word character need not be a letter)."""
    if not (tok[:1].isalpha() or tok[:1] == "_"):
        return _OTHER
    if tok == "rec":
        return _REC
    return Var(tok) if _is_var_name(tok) else Action(tok)


def _is_identifier(word: str) -> bool:
    """`word` reads as exactly one identifier token (not the keyword `rec`)."""
    return (_TOKEN.match(word)[1] == word and word != "rec"
            and (word[:1].isalpha() or word[:1] == "_"))


def _error(text: str, k: int, message: str) -> ParseError:
    """`message` formatted with the text and the offset of token k, unless
    some token is no identifier and no punctuation: the first such one is
    the error then, wherever it stands."""
    for j, m in enumerate(_TOKEN.finditer(text)):
        tok = m[1]
        if tok and not (tok[0].isalpha() or tok[0] == "_") and tok not in ".+()*0":
            return ParseError(f"unexpected character {tok[0]!r} at offset {m.start(1)}")
        if j == k:
            word, offset = tok, m.start(1)
    return ParseError(message.format(word, offset))


def parse(text: str) -> Expr:
    """Parse one expression; trailing whitespace and comments are ignored.

    Iterative, so a term of any depth parses.  `stack` holds what the
    term being read completes, innermost last: an `Action` (a prefix),
    `"*"` (the loop sugar), an expression (the left operand of a `+`),
    `"("`, a binder (a recursion's body, which extends as far right as
    it can) or, at the bottom, `""` (the whole text)."""
    toks = _TOKEN.findall(text)
    words = {"0": NIL, "(": "("}  # token -> what it reads as, once per call
    stack = [""]
    i = 0
    while True:
        tok = toks[i]
        w = words.get(tok) or words.setdefault(tok, _word(tok))
        i += 1
        if type(w) is Action:
            if toks[i] == ".":
                stack.append(w)
            elif toks[i] == "*" and tok == TAU_NAME:
                stack.append("*")
            else:
                raise _error(text, i - 1, "action {!r} must be followed by '.' at offset {}")
            i += 1
            continue
        if w is _REC:
            b = words.get(toks[i]) or words.setdefault(toks[i], _word(toks[i]))
            if type(b) is not Var:
                raise _error(text, i, "recursion binder {!r} is not a variable name"
                             if type(b) is Action else "expected 'ident', found {!r} at offset {}")
            if toks[i + 1] != ".":
                raise _error(text, i + 1, "expected '.', found {!r} at offset {}")
            stack.append(b.name)
            i += 2
            continue
        if w == "(":
            stack.append(w)
            continue
        if w is _OTHER:
            raise _error(text, i - 1, "unexpected token {!r} at offset {}" if tok
                         else "unexpected end of input at offset {1}")
        e = w
        # e is a whole term: complete what it completes, and so on out
        while True:
            f = stack[-1]
            if type(f) is Action:
                e = Prefix(stack.pop(), e)
                continue
            if f == "*":
                stack.pop()
                e = loop(e)
                continue
            if type(f) is not str:
                e = Sum(stack.pop(), e)
                f = stack[-1]
            tok = toks[i]
            if tok == "+":
                stack.append(e)
                i += 1
                break
            if f == "(":
                if tok != ")":
                    raise _error(text, i, "expected ')', found {!r} at offset {}")
                stack.pop()
                i += 1
            elif f:
                e = Rec(stack.pop(), e)
            elif tok:
                raise _error(text, i, "trailing input {!r} at offset {}")
            else:
                return e


def _loop_body(e: Rec) -> Optional[Expr]:
    """R when e is `loop(R)`, which prints as `tau* R`: read off e's body,
    `tau.X + R` with X the name that `loop` picks over R's free names."""
    body = e.body
    if type(body) is Sum and type(body.left) is Prefix and body.left.act.is_tau:
        x = body.left.body
        if type(x) is Var and x.name == e.binder == fresh_name(body.right._free):
            return body.right
    return None


def pretty(e: Expr) -> str:
    """Print in the concrete grammar; parse(pretty(e)) == e.

    Iterative, so a term of any depth prints: the walk writes its way
    down the leftmost term not yet written, and `todo` holds what follows
    it, next piece last, as strings and (term, rightmost) pairs, where
    `rightmost` says that nothing follows the term."""
    out, todo, rightmost = [], [], True
    while True:
        t = type(e)
        if t is Sum:
            right = e.right
            todo += (")", (right, True), " + (") if type(right) is Sum else ((right, rightmost), " + ")
            e, rightmost = e.left, False
            continue
        if t is Prefix:
            out.append(f"{e.act.name}.")
            e = e.body
        elif t is Rec and (body := _loop_body(e)) is not None:
            out.append("tau* ")
            e = body
        elif t is Rec:
            out.append(f"rec {e.binder}. " if rightmost else f"(rec {e.binder}. ")
            if not rightmost:
                todo.append(")")
            e, rightmost = e.body, True
            continue
        else:
            out.append("0" if t is Nil else e.name)
            while todo:
                piece = todo.pop()
                if type(piece) is not str:
                    e, rightmost = piece
                    break
                out.append(piece)
            else:
                return "".join(out)
            continue
        # a sum as a prefix or loop body, or as a sum's right child, is
        # put in parentheses; a recursion only when something follows
        if type(e) is Sum:
            out.append("(")
            todo.append(")")
            rightmost = True
