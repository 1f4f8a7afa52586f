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

from typing import Callable, Mapping, Optional, Union

from .syntax import (
    Action,
    Expr,
    NIL,
    Prefix,
    Rec,
    Sum,
    TAU,
    Value,
    Var,
    _set,
    free_vars,
    is_guarded_in,
    pretty,
    _is_identifier,
    _is_var_name,
    parse,
    substitute,
)


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


# Each justification names the earlier steps it rests on (`refs`) and
# makes a copy whose step indices go through a map (`renumber`).


class Refl(Value):
    __slots__ = ()

    def refs(self) -> tuple:
        return ()

    def renumber(self, remap):
        return self


class Symm(Value):
    __slots__ = _fields = ("of",)

    def __init__(self, of: int):
        _set(self, "of", of)

    def refs(self) -> tuple:
        return (self.of,)

    def renumber(self, remap):
        return Symm(remap[self.of])


class Trans(Value):
    __slots__ = _fields = ("first", "second")

    def __init__(self, first: int, second: int):
        _set(self, "first", first)
        _set(self, "second", second)

    def refs(self) -> tuple:
        return (self.first, self.second)

    def renumber(self, remap):
        return Trans(remap[self.first], remap[self.second])


class AxiomStep(Value):
    __slots__ = _fields = ("axiom", "meta", "extra", "premise")

    def __init__(self, axiom: str, meta: tuple, extra: tuple,
                 premise: Optional[int] = None):
        _set(self, "axiom", axiom)
        _set(self, "meta", meta)  # ((name, Expr), ...)
        _set(self, "extra", extra)  # ((name, str | Action), ...)
        _set(self, "premise", premise)

    def refs(self) -> tuple:
        return () if self.premise is None else (self.premise,)

    def renumber(self, remap):
        if self.premise is None:
            return self
        return AxiomStep(self.axiom, self.meta, self.extra, remap[self.premise])


class Cong(Value):
    __slots__ = _fields = ("pos", "inner", "context")

    def __init__(self, pos: str, inner: int, context):
        _set(self, "pos", pos)  # a key of POSITIONS
        _set(self, "inner", inner)
        _set(self, "context", context)  # of type POSITIONS[pos].kind

    def refs(self) -> tuple:
        return (self.inner,)

    def renumber(self, remap):
        return Cong(self.pos, remap[self.inner], self.context)


Just = Union[Refl, Symm, Trans, AxiomStep, Cong]


HOLE = "◻"  # white medium square


class Position(Value):
    """A congruence position: the type of its context, the certificate
    text around the context's value, and how the context wraps a term."""

    __slots__ = _fields = ("kind", "before", "after", "wrap")

    def __init__(self, kind: type, before: str, after: str, wrap: Callable):
        _set(self, "kind", kind)
        _set(self, "before", before)
        _set(self, "after", after)
        _set(self, "wrap", wrap)


POSITIONS = {
    "prefix": Position(Action, "", f".{HOLE}", Prefix),  # a.◻
    "suml": Position(Expr, f"{HOLE} + ", "", lambda c, e: Sum(e, c)),  # ◻ + F
    "sumr": Position(Expr, "", f" + {HOLE}", Sum),  # F + ◻
    "recbody": Position(str, "rec ", f". {HOLE}", Rec),  # rec X. ◻
}


def plug(pos: str, context, e: Expr) -> Expr:
    """The context at position `pos` with e in its hole."""
    return POSITIONS[pos].wrap(context, e)


class ProofStep(Value):
    __slots__ = _fields = ("lhs", "rhs", "just")

    def __init__(self, lhs: Expr, rhs: Expr, just: Just):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "just", just)


class Derivation(Value):
    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple):
        _set(self, "steps", steps)

    @property
    def conclusion(self):
        last = self.steps[-1]
        return (last.lhs, last.rhs)

    def __len__(self):
        return len(self.steps)


class CheckFailure(Value):
    __slots__ = _fields = ("index", "reason")

    def __init__(self, index: int, reason: str):
        _set(self, "index", index)
        _set(self, "reason", reason)

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
    # id of each term written so far -> its field; hash-consed terms are
    # equal exactly when they are the same object, and d keeps them alive
    ids = {id(NIL): "0"}

    def ref(e: Expr) -> str:
        """The field of e: `0`, a variable's name, or `@n` for a compound
        term, whose `term` line is added on first use, after those of
        its children.  Iterative, so a term of any depth writes."""
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
                    # back to n once its children have their fields
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


def _numeral(text: str) -> int:
    """A line number, step reference or term index: ASCII decimal with no
    sign, underscore or leading zero."""
    if text.isdigit() and text.isascii() and (text[0] != "0" or text == "0"):
        return int(text)
    raise CertificateError(f"bad number {text!r}")


class _Fields(dict):
    """Field text -> term, for one certificate.  It starts with `0`, gains
    `@n` as term line n is read and each variable once `_name` accepts
    it.  A certificate with term lines (`table`) writes only those in a
    field; one without writes whole expressions, parsed once each."""

    def __init__(self):
        super().__init__({"0": NIL})
        self.table = False

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


class _Names(dict):
    """Action names (`Action`s) or binder names (`variable`), each text
    validated on its first lookup."""

    def __init__(self, variable: bool):
        super().__init__()
        self.variable = variable

    def __missing__(self, text: str):
        name = _name(text, self.variable)
        value = self[text] = name if self.variable else Action(name)
        return value


class _Reader:
    """The tables of one certificate: text already read -> its value, so
    that each field, action name and binder name is read once."""

    def __init__(self):
        self.fields = _Fields()
        self.actions = _Names(variable=False)
        self.binders = _Names(variable=True)

    def term(self, text: str) -> Expr:
        """A `term` body: `F + F`, `a.F` or `rec X. F` over fields F."""
        fields = self.fields
        # the writer's ` + ` first, so that its fields need no strip
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

    def just(self, text: str) -> Just:
        kind, _, rest = text.strip().partition(" ")
        if kind == "trans":
            a, b = rest.split()
            return Trans(_numeral(a), _numeral(b))
        if kind == "cong":
            return self.cong(rest)
        if kind == "axiom":
            return self.axiom(rest)
        if kind == "symm":
            return Symm(_numeral(rest.strip()))
        if kind == "refl" and not rest:
            return Refl()
        raise CertificateError(f"unknown justification {text!r}")

    def cong(self, text: str) -> Cong:
        """`<pos> <k> in <context>`, the context written as POSITIONS says."""
        pos, _, rest = text.partition(" ")
        num, _, rest = rest.strip().partition(" ")
        inner = _numeral(num)
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

    def axiom(self, text: str) -> AxiomStep:
        """`<ID> {<name>:=<value>, ...} [premise <k>]`."""
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
                value = value.strip()
                if key in metas:
                    meta[key] = self.fields[value]
                elif key in extras:
                    extra[key] = (self.actions if key == "a" else self.binders)[value]
                else:
                    raise CertificateError(f"{name} takes no parameter {key!r}")
        return AxiomStep(
            name, tuple(sorted(meta.items())), tuple(sorted(extra.items())), premise)


def parse_derivation(text: str) -> Derivation:
    """Read a certificate.  `term n` and `step n` lines are each numbered
    from 0 in order, and `@k` may name only a term defined above it."""
    reader = _Reader()
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
                    f"{kind} numbered {_numeral(num)} but {expected} expected")
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
