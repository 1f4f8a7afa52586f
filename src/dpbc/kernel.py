"""The trusted kernel: the axiom system as data, the checker and the
certificate format.

A derivation is a sequence of steps, each an equation justified by
reflexivity, symmetry, transitivity, an axiom instance (with its
metavariable bindings and side conditions), or a one-hole congruence.
The checker re-instantiates every axiom step from its recorded bindings
and compares trees, so certificates are self-contained.  This module
imports only `syntax`: checking a certificate loads no part of the
decision procedures or of the prover (`proof`, `standardize`, `ses`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Optional, Union

from .syntax import (
    NIL, TAU, Action, Expr, Prefix, Rec, Sum, Value, Var, _TABLE, _is_identifier, _is_var_name,
    _set, free_vars, is_guarded_in, parse, pretty, substitute)


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


_new = tuple.__new__


class Record(tuple, Value):
    """A `Value` held as the tuple of its fields, in `_fields` order, so
    that `_new(cls, fields)` builds one without running Python code.  A
    field is read by an `itemgetter` property or by unpacking.  It equals
    a record of its class with the same fields, and hashes as the tuple;
    its length, iteration and truth are the tuple's (`Refl()` is false)."""

    __slots__ = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *fields):
        if len(fields) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
        return _new(cls, fields)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__
    __repr__ = Value.__repr__

    def _values(self) -> tuple:
        return tuple(self)


# Each justification names the earlier steps it rests on (`refs`) and
# makes a copy whose step indices go through a map (`renumber`).


class _Indices(Record):
    """A justification whose fields are all step indices."""

    __slots__ = ()

    def refs(self) -> tuple:
        return tuple(self)

    def renumber(self, remap):
        return _new(type(self), tuple(map(remap.__getitem__, self)))


class Refl(_Indices):
    __slots__ = _fields = ()


class Symm(_Indices):
    __slots__ = ()
    _fields = ("of",)


class Trans(_Indices):
    __slots__ = ()
    _fields = ("first", "second")


class AxiomStep(Record):
    # meta: ((name, Expr), ...); extra: ((name, str | Action), ...)
    __slots__ = ()
    _fields = ("axiom", "meta", "extra", "premise")

    def __new__(cls, axiom: str, meta: tuple, extra: tuple, premise: Optional[int] = None):
        return _new(cls, (axiom, meta, extra, premise))

    def refs(self) -> tuple:
        return () if self[3] is None else (self[3],)

    def renumber(self, remap):
        axiom, meta, extra, premise = self
        return self if premise is None else _new(AxiomStep, (axiom, meta, extra, remap[premise]))


class Cong(Record):
    # pos: a key of POSITIONS; context: of type POSITIONS[pos].kind
    __slots__ = ()
    _fields = ("pos", "inner", "context")

    def refs(self) -> tuple:
        return (self[1],)

    def renumber(self, remap):
        return _new(Cong, (self[0], remap[self[1]], self[2]))


Just = Union[Refl, Symm, Trans, AxiomStep, Cong]


HOLE = "◻"  # white medium square


class Position(Record):
    """A congruence position: the type of its context, the certificate
    text around the context's value, and how the context wraps a term."""

    __slots__ = ()
    _fields = ("kind", "before", "after", "wrap")


POSITIONS = {
    "prefix": Position(Action, "", f".{HOLE}", Prefix),  # a.◻
    "suml": Position(Expr, f"{HOLE} + ", "", lambda c, e: Sum(e, c)),  # ◻ + F
    "sumr": Position(Expr, "", f" + {HOLE}", Sum),  # F + ◻
    "recbody": Position(str, "rec ", f". {HOLE}", Rec),  # rec X. ◻
}


def plug(pos: str, context, e: Expr) -> Expr:
    """The context at position `pos` with e in its hole."""
    return POSITIONS[pos].wrap(context, e)


class ProofStep(Record):
    __slots__ = ()
    _fields = ("lhs", "rhs", "just")


class Derivation(Value):
    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple):
        _set(self, "steps", steps)

    @property
    def conclusion(self):
        return self.steps[-1][:2]

    def __len__(self):
        return len(self.steps)


class CheckFailure(Record):
    __slots__ = ()
    _fields = ("index", "reason")

    def __str__(self):
        return f"step {self.index}: {self.reason}"


def instantiate_axiom(axiom: str, meta: Mapping, extra: Mapping,
                      premise: Optional[int] = None) -> ProofStep:
    """A single axiom step; raises on unknown ids, missing bindings or
    violated side conditions."""
    lhs, rhs = _axiom_sides(axiom, dict(meta), dict(extra))
    just = (axiom, tuple(sorted(meta.items())), tuple(sorted(extra.items())), premise)
    return _new(ProofStep, (lhs, rhs, _new(AxiomStep, just)))


def _check_step(steps, i) -> Optional[str]:
    lhs, rhs, j = steps[i]
    t = type(j)
    if t is Refl:
        return "refl endpoints differ" if lhs != rhs else None
    if t is Symm:
        (k,) = j
        if not 0 <= k < i:
            return "symm reference out of range"
        if lhs != steps[k][1] or rhs != steps[k][0]:
            return "symm endpoints do not mirror the referenced step"
        return None
    if t is Trans:
        first, second = j
        if not (0 <= first < i and 0 <= second < i):
            return "trans reference out of range"
        a, b = steps[first], steps[second]
        if a[1] != b[0]:
            return "trans endpoints do not meet"
        if lhs != a[0] or rhs != b[1]:
            return "trans endpoints differ from the referenced chain"
        return None
    if t is AxiomStep:
        axiom, meta, extra, premise = j
        try:
            sides = _axiom_sides(axiom, dict(meta), dict(extra))
        except ProofError as exc:
            return str(exc)
        if lhs != sides[0] or rhs != sides[1]:
            return f"{axiom} instance does not match the recorded bindings"
        if axiom == "R2":
            if premise is None or not 0 <= premise < i:
                return "R2 needs an earlier premise step"
            prem = steps[premise]
            if prem[0] != lhs:
                return "R2 premise must share the left-hand side"
            expected = substitute(dict(meta)["E"], {dict(extra)["X"]: lhs})
            if prem[1] != expected:
                return "R2 premise does not unfold the recursion body"
        elif premise is not None:
            return f"{axiom} takes no premise"
        return None
    if t is Cong:
        pos, k, context = j
        if not 0 <= k < i:
            return "cong reference out of range"
        if pos not in POSITIONS:
            return f"unknown congruence position {pos!r}"
        kind, _, _, wrap = POSITIONS[pos]
        inner = steps[k]
        if not (isinstance(context, kind)
                and lhs == wrap(context, inner[0]) and rhs == wrap(context, inner[1])):
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
    """A binding or context value: an expression's field, else its name."""
    return ref(value) if isinstance(value, Expr) else str(value)


def _format_just(just: Just, ref) -> str:
    t = type(just)
    if t is Trans:
        return f"trans {just[0]} {just[1]}"
    if t is Cong:
        pos, inner, context = just
        p = POSITIONS[pos]
        return f"cong {pos} {inner} in {p.before}{_write(context, ref)}{p.after}"
    if t is AxiomStep:
        axiom, meta, extra, premise = just
        parts = ", ".join([f"{n}:={_write(v, ref)}" for n, v in meta + extra])
        if premise is None:
            return f"axiom {axiom} {{{parts}}}"
        return f"axiom {axiom} {{{parts}}} premise {premise}"
    if t is Symm:
        return f"symm {just[0]}"
    if t is Refl:
        return "refl"
    raise ProofError(f"cannot format {just!r}")


def format_derivation(d: Derivation) -> str:
    lhs, rhs = d.conclusion
    lines = [f"# proves: {pretty(lhs)} = {pretty(rhs)}"]
    # id of each term written so far -> its field; hash-consed terms are
    # equal exactly when they are the same object, and d keeps them alive
    ids = {id(NIL): "0"}
    get = ids.get

    def ref(e: Expr) -> str:
        """The field of e: `0`, a variable's name, or `@n` for a compound
        term, whose `term` line is added on first use, after those of
        its children.  Iterative, so a term of any depth writes."""
        field = get(id(e))
        if field is not None:
            return field
        todo = [e]
        while todo:
            n = todo.pop()
            if id(n) in ids:
                continue
            t = type(n)
            if t is Var:
                ids[id(n)] = n.name
                continue
            if t is Sum:
                left, right = get(id(n.left)), get(id(n.right))
                if left is None or right is None:
                    # back to n once its children have their fields
                    todo.append(n)
                    if right is None:
                        todo.append(n.right)
                    if left is None:
                        todo.append(n.left)
                    continue
                body = f"{left} + {right}"
            else:
                inner = get(id(n.body))
                if inner is None:
                    todo += (n, n.body)
                    continue
                body = f"{n.act.name}.{inner}" if t is Prefix else f"rec {n.binder}. {inner}"
            k = len(lines) - 1
            ids[id(n)] = f"@{k}"
            lines.append(f"term {k} {body}")
        return ids[id(e)]

    # a side already written is looked up before `ref` is called
    steps = [f"step {i} {get(id(l)) or ref(l)} = {get(id(r)) or ref(r)} by {_format_just(j, ref)}"
             for i, (l, r, j) in enumerate(d.steps)]
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


def _numeral(text: str) -> int:
    """A line number, step reference or term index: ASCII decimal with no
    sign, underscore or leading zero."""
    if text.isdigit() and text.isascii() and (text[0] != "0" or text == "0"):
        return int(text)
    raise CertificateError(f"bad number {text!r}")


class _Names(dict):
    """Action names (`Action`s) or, in a `_Binders`, binder names, each
    text validated on its first lookup."""

    variable = False

    def __missing__(self, text: str):
        name = _name(text, self.variable)
        value = self[text] = name if self.variable else Action(name)
        return value


class _Binders(_Names):
    variable = True


class _Fields(dict):
    """Field text -> term, for one certificate.  It starts with `0`, gains
    `@n` as term line n is read and each variable once `_name` accepts
    it.  A certificate with term lines (`table`) writes only those in a
    field; one without writes whole expressions, parsed once each."""

    table = False

    def __missing__(self, text: str) -> Expr:
        if not self.table:
            e = self[text] = parse(text)
            return e
        word = text.strip(" \t\r\n")
        if word != text:
            return self[word]
        if word.startswith("@"):
            # every term defined so far is in the table
            raise CertificateError(f"undefined term @{_numeral(word[1:])}")
        e = self[word] = Var(_name(word, True))
        return e


class _Reader:
    """The tables of one certificate: text already read -> its value, so
    that each field, action name and binder name is read once."""

    def __init__(self):
        self.fields = _Fields({"0": NIL})
        self.actions = _Names()
        self.binders = _Binders()

    def term(self, text: str) -> Expr:
        """A `term` body: `F + F`, `a.F` or `rec X. F` over fields F.  A term
        that lives is looked up (`ref and ref()` is it or None), not built."""
        fields = self.fields
        if "+" in text:
            # the writer's ` + ` first, so that its fields need no strip
            left, plus, right = text.partition(" + ")
            if not plus:
                left, plus, right = text.partition("+")
            left, right = fields[left], fields[right]
            ref = _TABLE.get(("sum", id(left), id(right)))
            return (ref and ref()) or Sum(left, right)
        head, dot, body = text.partition(".")
        if dot:
            words = head.split()
            if len(words) == 2 and words[0] == "rec":
                x, body = self.binders[words[1]], fields[body.strip(" \t\r\n")]
                ref = _TABLE.get(("rec", x, id(body)))
                return (ref and ref()) or Rec(x, body)
            if len(words) == 1:
                act, body = self.actions[words[0]], fields[body]
                ref = _TABLE.get(("pre", act.name, id(body)))
                return (ref and ref()) or Prefix(act, body)
        raise CertificateError(f"bad term {text!r}")

    def trans(self, rest: str) -> Trans:
        a, b = rest.split()
        return _new(Trans, (_numeral(a), _numeral(b)))

    def cong(self, text: str) -> Cong:
        """`<pos> <k> in <context>`, the context written as POSITIONS says."""
        pos, _, rest = text.partition(" ")
        num, _, rest = rest.strip().partition(" ")
        inner = _numeral(num)
        rest = rest.strip()
        if not rest.startswith("in "):
            raise CertificateError("congruence step is missing its context")
        ctx = rest[3:].strip()
        if pos not in POSITIONS:
            raise CertificateError(f"unknown congruence position {pos!r}")
        kind, before, after, _ = POSITIONS[pos]
        if not (ctx.startswith(before) and ctx.endswith(after)):
            raise CertificateError(f"bad {pos} context {ctx!r}")
        value = ctx[len(before) : len(ctx) - len(after)]
        if kind is Expr:
            return _new(Cong, (pos, inner, self.fields[value]))
        if kind is Action:
            return _new(Cong, (pos, inner, self.actions[value]))
        return _new(Cong, (pos, inner, self.binders[value.strip()]))

    def axiom(self, text: str) -> AxiomStep:
        """`<ID> {<name>:=<value>, ...} [premise <k>]`, each parameter of
        the axiom bound at most once."""
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
            premise = _numeral(tail[8:].strip())
        metas, extras = params
        meta, extra = {}, {}
        if body.strip():
            for chunk in body.split(","):
                key, sep, value = chunk.partition(":=")
                if not sep:
                    raise CertificateError(f"bad binding {chunk!r}")
                key = key.strip()
                if key in metas:
                    bound, table = meta, self.fields
                elif key in extras:
                    bound, table = extra, self.actions if key == "a" else self.binders
                else:
                    raise CertificateError(f"{name} takes no parameter {key!r}")
                if key in bound:
                    raise CertificateError(f"{name} binds {key} twice")
                bound[key] = table[value.strip()]
        return _new(AxiomStep, (
            name, tuple(sorted(meta.items())), tuple(sorted(extra.items())), premise))

    # each justification's reader, by its first word
    kinds = {"trans": trans, "cong": cong, "axiom": axiom,
             "symm": lambda self, rest: _new(Symm, (_numeral(rest.strip()),)),
             "refl": lambda self, rest: _new(Refl, ())}


def parse_derivation(text: str) -> Derivation:
    """Read a certificate.  `term n` and `step n` lines are each numbered
    from 0 in order, and `@k` may name only a term defined above it."""
    reader = _Reader()
    fields, kinds, term = reader.fields, _Reader.kinds, reader.term
    n_terms, steps = 0, []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        kind, _, rest = line.partition(" ")
        if kind != "step" and kind != "term":
            raise CertificateError(f"unexpected line {line!r}")
        num, _, rest = rest.partition(" ")
        try:
            expected = len(steps) if kind == "step" else n_terms
            if num != str(expected):
                raise CertificateError(
                    f"{kind} numbered {_numeral(num)} but {expected} expected")
            if kind == "step":
                body, sep, just_text = rest.rpartition(" by ")
                if not sep:
                    raise CertificateError(f"step {num} has no justification")
                lhs_text, eq, rhs_text = body.partition(" = ")
                if not eq:
                    raise CertificateError(f"step {num} is not an equation")
                lhs, rhs = fields[lhs_text], fields[rhs_text]
                how, _, args = just_text.strip().partition(" ")
                read = kinds.get(how)
                if read is None or args and how == "refl":
                    raise CertificateError(f"unknown justification {just_text!r}")
                steps.append(_new(ProofStep, (lhs, rhs, read(reader, args))))
                continue
            if steps:
                raise CertificateError(f"term {num} follows a step")
            fields.table = True
            fields["@" + num] = term(rest)
            n_terms += 1
        except ValueError as exc:
            if isinstance(exc, CertificateError):
                raise
            raise CertificateError(f"malformed {kind} {num!r}: {exc}") from exc
    if not steps:
        raise CertificateError("certificate has no steps")
    return Derivation(tuple(steps))
