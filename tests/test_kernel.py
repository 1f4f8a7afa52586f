"""The certificate reader: the text it accepts, the numerals it refuses,
and mutated certificates that neither it nor the checker may raise on."""

import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import dpbc
from dpbc.kernel import (
    POSITIONS,
    AxiomStep,
    CertificateError,
    CheckFailure,
    Cong,
    Derivation,
    Position,
    ProofError,
    ProofStep,
    Refl,
    Symm,
    Trans,
    check,
    format_derivation,
    instantiate_axiom,
    parse_derivation,
)
from dpbc.proof import Builder, _t1
from dpbc.semantics import DEFAULT_BUDGET
from dpbc.ses import _route
from dpbc.syntax import NIL, TAU, Action, Prefix, Rec, Sum, Var, parse

from genexpr import benchmark_gen, derive
from oracles import reference_format_derivation, reference_parse_derivation

_PINNED = os.path.join(os.path.dirname(__file__), "pinned")


def _pin(name: str) -> str:
    with open(os.path.join(_PINNED, name), encoding="utf-8") as fh:
        return fh.read()


def _root_route(left: str, right: str) -> str:
    """The certificate that the root route of `prove_congruent` writes."""
    b = Builder()
    return format_derivation(
        b.finalize(_route(b, parse(left), parse(right), DEFAULT_BUDGET)))


# T1 over b.0 (axioms S4 and B, symm, trans, cong prefix) and, with R2
# premises and rec and sum contexts, the root route's proof of the pair
# of the taupad pin (the pin itself is one T1 inside the recursion)
_T1 = format_derivation(derive(_t1, Action("a"), parse("b.0")))
_TAUPAD = _root_route("rec X. a.X", "rec X. a.tau.X")


def _on_lines(kind: str, edit):
    """Apply `edit` to the lines that start with `kind`."""
    def apply(text):
        return "\n".join(edit(l) if l.startswith(kind) else l
                         for l in text.split("\n"))
    return apply


# Layouts the writer never produces and the reader has always accepted
_LAYOUTS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "trailing spaces": lambda t: t.replace("\n", "   \n"),
    "indented steps": _on_lines("step ", lambda l: "  " + l),
    "blank and comment lines": lambda t: t.replace("\nstep ", "\n\n# a note\n\nstep "),
    "spaced equation": lambda t: t.replace(" = ", "  =  "),
    "spaced step number": _on_lines("step ", lambda l: re.sub(r"^(step \d+) ", r"\1  ", l)),
    "spaced sum terms": _on_lines("term ", lambda l: l.replace(" + ", "  +  ")),
    "spaced bindings": lambda t: (t.replace("{", "{ ").replace("}", " }")
                                  .replace(":=", "  :=  ").replace(", ", " ,  ")),
    "spaced premise": lambda t: t.replace(" premise ", " premise   "),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_certificate_layouts_read_alike(layout):
    edit = _LAYOUTS[layout]
    changed = False
    for text in (_T1, _TAUPAD):
        variant = edit(text)
        changed |= variant != text
        assert parse_derivation(variant) == parse_derivation(text)
    assert changed


@pytest.mark.parametrize("tab", ["\t= ", " =\t", "\t=\t"])
def test_tab_around_the_equals_sign_is_rejected(tab):
    with pytest.raises(CertificateError):
        parse_derivation(_T1.replace(" = ", tab))


# Line numbers, step references, `@k`, `premise k` and the congruence
# index are ASCII decimal with no sign, underscore or leading zero.
@pytest.mark.parametrize("text", [
    "term 0 a.0\nstep +0 @0 = @0 by refl",
    "term 0 a.0\nstep 0 @0 = @0 by refl\nstep 1 @0 = @0 by symm ٠",
    "term 0 a.0\nstep 0 @0 = @0 by refl\nstep 1 @0 = @0 by trans 0 +0_0",
    "term 0 a.0\nstep 0 @00 = @0 by refl",
    "term 00 a.0\nstep 0 @0 = @0 by refl",
    "term 0 a.0\nstep 0 @0 = @0 by refl\nstep 1 @0 = @0 by cong prefix 00 in b.◻",
    "term 0 a.X\nterm 1 rec X. @0\nterm 2 a.@1\n"
    "step 0 @1 = @2 by axiom R1 {E:=@0, X:=X}\n"
    "step 1 @1 = @1 by axiom R2 {E:=@0, F:=@1, X:=X} premise 0_0",
])
def test_certificate_rejects_non_canonical_numerals(text):
    with pytest.raises(CertificateError):
        parse_derivation(text)


# The smaller pins (under 30 kB) cover every justification, R2 premises
# and every congruence position.
_FUZZ_PINS = {name: _pin(name) for name in sorted(os.listdir(_PINNED))
              if name.endswith(".cert") and os.path.getsize(os.path.join(_PINNED, name)) < 30000}
# Their words with every number made 1 (a term and a step every pin
# has), and numerals and separators of other shapes
_VOCABULARY = sorted(
    {re.sub(r"[0-9]+", "1", word) for text in _FUZZ_PINS.values() for word in text.split()}
    | {"", "0", "@0", "@", "00", "+1", "-1", "1_0", "٠", "99999", "{", "}", ":=", ",",
       "\t", "(", ")", "tau*", "rec", "term", "step", "by", "in", "premise", "R9"})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_mutated_certificates_fail_closed(data):
    text = _FUZZ_PINS[data.draw(st.sampled_from(sorted(_FUZZ_PINS)))]
    lines = text.split("\n")
    i = data.draw(st.sampled_from(
        [i for i, l in enumerate(lines) if l.startswith(("term ", "step "))]))
    words = lines[i].split(" ")
    for _ in range(data.draw(st.integers(1, 3))):
        # the line keeps its kind and number, so the edit reaches its body
        j = data.draw(st.integers(2, len(words)))
        edit = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "insert":
            words.insert(j, data.draw(st.sampled_from(_VOCABULARY)))
        elif j < len(words):
            if edit == "delete":
                del words[j]
            else:
                words[j] = data.draw(st.sampled_from(_VOCABULARY))
    lines[i] = " ".join(words)
    try:
        derivation = parse_derivation("\n".join(lines))
    except CertificateError:
        return
    failure = check(derivation)
    assert failure is None or isinstance(failure, CheckFailure)


def test_a_wide_regrouping_writes_and_reads_back():
    # S2 rotates a right-nested sum of 2,000 summands into a left-nested
    # one, a step at a time (3,995 steps); the writer walks the terms
    # with a stack of its own, so the certificate writes at the default
    # recursion limit
    leaves = [parse(f"a{i}.0") for i in range(2000)]
    cur = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        cur = Sum(leaf, cur)
    right_nested = cur
    steps = []
    while isinstance(cur.right, Sum):
        st = instantiate_axiom(
            "S2", {"E": cur.left, "F": cur.right.left, "G": cur.right.right}, {}, None)
        steps.append(st)
        if len(steps) > 1:
            # the chain so far, then this rotation
            steps.append(ProofStep(right_nested, st.rhs, Trans(len(steps) - 2, len(steps) - 1)))
        cur = st.rhs
    d = Derivation(tuple(steps))
    assert len(d.steps) == 3995 and check(d) is None
    back = parse_derivation(format_derivation(d))
    assert back.conclusion == (right_nested, cur) and check(back) is None


_A0 = parse("a.0")
# each value class, built twice from the same fields; `Position` holds a
# callable, compared as the same object
_VALUES = {
    "Refl": lambda: Refl(),
    "Symm": lambda: Symm(3),
    "Trans": lambda: Trans(1, 2),
    "AxiomStep": lambda: AxiomStep("S4", (("E", _A0),), ()),
    "AxiomStep-premise": lambda: AxiomStep("R2", (("E", _A0), ("F", _A0)), (("X", "X"),), 4),
    "Cong": lambda: Cong("prefix", 0, Action("a")),
    "Position": lambda: Position(str, "rec ", ". ◻", Rec),
    "ProofStep": lambda: ProofStep(_A0, _A0, Refl()),
    "Derivation": lambda: Derivation((ProofStep(_A0, _A0, Symm(0)),)),
    "CheckFailure": lambda: CheckFailure(2, "refl endpoints differ"),
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_classes_compare_by_fields_and_reject_assignment(name):
    one, two = _VALUES[name](), _VALUES[name]()
    assert one is not two and one == two and not one != two
    assert hash(one) == hash(two)
    for field in type(one).__slots__ or ("anything",):
        with pytest.raises(AttributeError):
            setattr(one, field, None)
        with pytest.raises(AttributeError):
            delattr(one, field)
    assert one == two


def test_action_is_one_instance_per_name():
    # as with `Var`, `Action(name)` returns the one live action of that
    # name; it still compares and hashes as the tuple of its name, and
    # refuses assignment
    one = Action("a")
    assert Action("a") is one and Action("tau") is TAU and Action("b") is not one
    assert one == Action("a") and not one != Action("a") and one != Action("b")
    assert hash(one) == hash(("a",)) and (one.is_tau, one.key) == (False, (1, "a"))
    for field in type(one).__slots__:
        with pytest.raises(AttributeError):
            setattr(one, field, None)
        with pytest.raises(AttributeError):
            delattr(one, field)
    assert parse("a.0").act is one and parse_derivation("step 0 a.0 = a.0 by refl\n").conclusion[0].act is one


def test_value_classes_differ_by_any_field_and_by_class():
    assert Symm(3) != Symm(4) and Trans(1, 2) != Trans(2, 1)
    assert Refl() != Symm(0) and Symm(0) != Trans(0, 0)
    assert AxiomStep("S4", (("E", _A0),), ()) != AxiomStep("S4", (("E", _A0),), (), 0)
    assert ProofStep(_A0, _A0, Refl()) != ProofStep(_A0, _A0, Symm(0))
    assert CheckFailure(2, "x") != CheckFailure(3, "x")
    assert POSITIONS["prefix"] != POSITIONS["sumr"]
    assert len({Symm(3), Symm(3), Symm(4), Trans(3, 4)}) == 3


def test_value_defaults_and_hashes_are_kept():
    step = AxiomStep("S4", (("E", _A0),), ())
    assert step.premise is None and step.refs() == ()
    assert step.renumber({}) is step
    assert AxiomStep("R2", (), (), 1).renumber({1: 5}).refs() == (5,)
    # a prefix term's hash is built from its action's, which must hash
    # as the tuple of its fields, as before
    assert hash(Action("a")) == hash(("a",)) and hash(Refl()) == hash(())
    assert hash(Trans(1, 2)) == hash((1, 2))
    assert str(CheckFailure(2, "x")) == "step 2: x"
    assert repr(Trans(1, 2)) == "Trans(first=1, second=2)"


# --- the checker's refusals ------------------------------------------------------------


_BODY = parse("a.X")
_REC = parse("rec X. a.X")
_UNFOLD = ProofStep(_REC, Prefix(Action("a"), _REC),
                    AxiomStep("R1", (("E", _BODY),), (("X", "X"),)))


def _r2(premise):
    """rec X. a.X = rec X. a.X by R2 over the body a.X."""
    return ProofStep(_REC, _REC, AxiomStep(
        "R2", (("E", _BODY), ("F", _REC)), (("X", "X"),), premise))


def _checked(*steps) -> str:
    return str(check(Derivation(steps)))


def _read(text: str) -> str:
    with pytest.raises(CertificateError) as exc:
        parse_derivation(text)
    return str(exc.value)


_REFL = ProofStep(_A0, _A0, Refl())
_REFUSALS = {
    "missing-extra": (lambda: _checked(ProofStep(
        _A0, _A0, AxiomStep("R1", (("E", _A0),), ()))), "step 0: R1 needs X"),
    "B-non-action": (lambda: _checked(ProofStep(_A0, _A0, AxiomStep(
        "B", (("E", _A0), ("F", _A0)), (("a", "X"),)))), "step 0: B needs an action for a"),
    "R5-equal-binders": (lambda: _checked(ProofStep(_A0, _A0, AxiomStep(
        "R5", (("E", _A0), ("F", _A0)), (("X", "X"), ("Y", "X"))))),
        "step 0: R5: binders must be distinct"),
    "R7-equal-binders": (lambda: _checked(ProofStep(_A0, _A0, AxiomStep(
        "R7", (("E", _A0),), (("X", "Y"), ("Y", "Y"))))),
        "step 0: R7: binders must be distinct"),
    "R8-equal-binders": (lambda: _checked(ProofStep(_A0, _A0, AxiomStep(
        "R8", (("E", _A0), ("F", _A0)), (("X", "X"), ("Y", "X"))))),
        "step 0: R8: binders must be distinct"),
    "symm-not-mirrored": (lambda: _checked(_REFL, ProofStep(_A0, NIL, Symm(0))),
                          "step 1: symm endpoints do not mirror the referenced step"),
    "trans-out-of-range": (lambda: _checked(_REFL, ProofStep(_A0, _A0, Trans(0, 1))),
                           "step 1: trans reference out of range"),
    "cong-out-of-range": (lambda: _checked(ProofStep(_A0, _A0, Cong("prefix", 0, Action("a")))),
                          "step 0: cong reference out of range"),
    "R2-no-premise": (lambda: _checked(_r2(None)), "step 0: R2 needs an earlier premise step"),
    "R2-later-premise": (lambda: _checked(_UNFOLD, _r2(1)),
                         "step 1: R2 needs an earlier premise step"),
    "R2-other-left-side": (lambda: _checked(_REFL, _r2(0)),
                           "step 1: R2 premise must share the left-hand side"),
    "R2-no-unfolding": (lambda: _checked(ProofStep(_REC, _REC, Refl()), _r2(0)),
                        "step 1: R2 premise does not unfold the recursion body"),
    "premise-on-S4": (lambda: _checked(_REFL, ProofStep(Sum(_A0, NIL), _A0, AxiomStep(
        "S4", (("E", _A0),), (), 0))), "step 1: S4 takes no premise"),
    "unknown-justification": (lambda: _checked(ProofStep(_A0, _A0, None)),
                              "step 0: unknown justification None"),
    "unformattable-justification": (
        lambda: str(pytest.raises(ProofError, format_derivation,
                                  Derivation((ProofStep(_A0, _A0, None),))).value),
        "cannot format None"),
    "empty-derivation": (lambda: _checked(), "step 0: empty derivation"),
    "unknown-position": (lambda: _read("step 0 a.0 = a.0 by cong middle 0 in a.\u25fb\n"),
                         "unknown congruence position 'middle'"),
    "missing-brace": (lambda: _read("step 0 a.0 + 0 = a.0 by axiom S4 E:=a.0\n"),
                      "missing bindings for S4"),
    "binding-without-assignment": (lambda: _read("step 0 a.0 + 0 = a.0 by axiom S4 {E=a.0}\n"),
                                   "bad binding 'E=a.0'"),
    "no-steps": (lambda: _read("# proves: nothing\nterm 0 a.0\n"), "certificate has no steps"),
    # a parameter bound twice is refused, not read as its last binding
    "expression-bound-twice": (lambda: _read("step 0 0 + 0 = 0 by axiom S3 {E:=a.0, E:=0}\n"),
                               "S3 binds E twice"),
    "binder-bound-twice": (lambda: _read(
        "step 0 rec X. 0 = 0 by axiom R1 {E:=0, X:=Y, X:=X}\n"), "R1 binds X twice"),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_checker_and_reader_refusals_are_exact(name):
    # the R2 premise rules sit beside the guardedness test that R2, R4
    # and R5 share; each refusal of the trusted base keeps its reason
    refuse, reason = _REFUSALS[name]
    assert refuse() == reason
    # the premise and the valid R2 step that the refusals are built from
    assert check(Derivation((_UNFOLD, _r2(0)))) is None


def test_deep_R4_step_verifies(tmp_path):
    # X is unguarded under 10^4 silent prefixes: the side condition reads
    # the set each node got when it was built, so no walk is made, and
    # `verify` checks the step at the default recursion limit
    e = Var("X")
    for _ in range(10_000):
        e = Prefix(TAU, e)
    step = instantiate_axiom("R4", {"E": e, "F": NIL, "G": _A0}, {"X": "X"})
    cert = tmp_path / "r4.cert"
    cert.write_text(format_derivation(Derivation((step,))), encoding="utf-8")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dpbc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "dpbc.cli", "verify", str(cert)],
                         capture_output=True, text=True, env=env)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr[-300:]
    assert res.stdout.startswith("verified: rec X. tau.(tau.tau.")


# --- the reader and writer against the reference ones -----------------------------------


def _certificates() -> list:
    """The certificates of the prove benchmark's congruent pairs (seeds 1,
    7 and 11) and the pinned ones."""
    from dpbc import prove_congruent
    from dpbc.equiv import RootedCheck
    gen = benchmark_gen()
    texts = []
    for seed in (1, 7, 11):
        for op in gen.prove_ops(seed, 4):
            d = prove_congruent(parse(op["left"]), parse(op["right"]))
            if not isinstance(d, RootedCheck):
                texts.append(format_derivation(d))
    return texts + [_pin(name) for name in sorted(os.listdir(_PINNED)) if name.endswith(".cert")]


_CERTIFICATES = _certificates()


def test_writer_and_reader_match_the_reference_ones():
    # every benchmark and pinned certificate reads as the reference reader
    # reads it, and writes back as the reference writer writes it: the
    # text it was read from, byte for byte
    assert len(_CERTIFICATES) == 120 + 14
    for text in _CERTIFICATES:
        d = parse_derivation(text)
        assert d == reference_parse_derivation(text)
        assert format_derivation(d) == reference_format_derivation(d) == text


def _reading(read, text):
    try:
        return read(text)
    except CertificateError as exc:
        return f"CertificateError: {exc}"


# small certificates to garble: those of the benchmark and the pins under 30 kB
_SMALL = [text for text in _CERTIFICATES if len(text) < 30000]
_STRAY = ["@", "{", "}", ",", ":", ":=", "=", "#", ".", "+", "◻", "x", "X", "0", "by", "in",
          " ", "  ", "\t", "\r", "\n", "\u00a0", "\x0b", "premise"]


@st.composite
def _garbled_certificate(draw):
    """A small certificate with one to three edits, each to a step line
    half the time: a line dropped, duplicated or moved, or, in the body
    of a line (most often) or anywhere in it, two fields swapped, a
    numeral edited, whitespace changed or a stray character put in."""
    lines = draw(st.sampled_from(_SMALL)).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "duplicate", "move", "swap", "swap", "numeral",
                                     "numeral", "space", "space", "stray", "stray", "stray"]))
        steps = [i for i, line in enumerate(lines) if line.startswith("step ")]
        i = draw(st.sampled_from(steps) if steps and draw(st.booleans())
                 else st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
            continue
        if edit == "duplicate":
            lines.insert(i, lines[i])
            continue
        if edit == "move":
            lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))
            continue
        # the edit keeps the line's kind and number three times in four
        words = lines[i].split(" ")
        keep = 2 if len(words) > 2 and draw(st.integers(0, 3)) else 0
        head, line = " ".join(words[:keep] + [""]) if keep else "", " ".join(words[keep:])
        words = line.split(" ")
        if edit == "swap" and len(words) > 1:
            j, k = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, len(words) - 1))
            words[j], words[k] = words[k], words[j]
            line = " ".join(words)
        elif edit == "numeral" and re.search(r"[0-9]+", line):
            a, b = draw(st.sampled_from([m.span() for m in re.finditer(r"[0-9]+", line)]))
            line = line[:a] + draw(st.sampled_from(
                ["0", "1", "2", "7", "00", "01", "+1", "-1", "1_0", "٠", "99999",
                 str(int(line[a:b]) + 1), ""])) + line[b:]
        elif edit in ("space", "stray"):
            k = draw(st.integers(0, len(line)))
            cut = draw(st.integers(0, 1)) if edit == "space" else 0
            line = line[:k] + draw(st.sampled_from(_STRAY)) + line[k + cut:]
        lines[i] = head + line
    return "\n".join(lines)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(_garbled_certificate())
# whitespace that `str.strip` takes and the field reader keeps, and a
# reflexivity with an argument
@example("term 0 a.0\nterm 1 rec X.\u00a0@0\nstep 0 @1 = @1 by refl\n")
@example("term 0 a.0\nterm 1 rec X.\x0b @0\nstep 0 @1 = @1 by refl\n")
@example("step 0 0 = 0 by refl 0\n")
def test_garbled_certificates_read_as_the_reference_reads_them(text):
    # the same derivation, or the same refusal; the one difference is a
    # parameter bound twice, which the reference reads as its last binding
    got, want = _reading(parse_derivation, text), _reading(reference_parse_derivation, text)
    if isinstance(got, str) and re.fullmatch(r"CertificateError: \S+ binds \S+ twice", got):
        return
    assert got == want, text
    if isinstance(got, Derivation):
        assert format_derivation(got) == reference_format_derivation(got)
