import ast
import codecs
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import dpbc

from dpbc.cli import main
from dpbc.semantics import BudgetExceeded, build_lts
from dpbc.syntax import ParseError, parse, pretty
from dpbc.proof import ProofError, check, format_derivation, parse_derivation
from dpbc.standardize import MoveNotPresent
from test_syntax import _PIECES, exprs


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class _Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def _run(argv):
    """Run `dpbc <argv>` in this process: its exit code and its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as stop:
        main(argv)
    return _Result(stop.value.code, out.getvalue(), err.getvalue())


def test_check_divergence_pair(tmp_path):
    p = _write(tmp_path, "p.proc", "rec X.(tau.X + a.0)")
    q = _write(tmp_path, "q.proc", "tau.a.0")
    assert _run(["check", "--rel", "branching", p, q]).exit_code == 0
    assert _run(["check", "--rel", "dpbb", p, q]).exit_code == 1
    assert _run(["check", "--rel", "rooted", p, q]).exit_code == 1


@pytest.mark.parametrize("left, right, clause, detail", [
    ("a.b.0 + c.0", "a.tau.c.0 + c.0", "forth",
     "left move a.b.0 has no matching right move"),
    ("a.0", "a.0 + tau.(b.0 + X)", "back",
     "right move tau.(b.0 + X) has no matching left move"),
    ("a.(b.0 + c.0)", "a.b.0", "forth",
     "left move a.(b.0 + c.0) has no matching right move"),
    ("a.0 + X", "a.0 + Y", "exposure", "exposure sets differ on ['X', 'Y']"),
], ids=["forth", "back", "sum-target", "exposure"])
def test_rooted_failure_lines(tmp_path, left, right, clause, detail):
    # `check --rel rooted` and `prove` word the failing root clause alike
    p, q = _write(tmp_path, "p.proc", left), _write(tmp_path, "q.proc", right)
    assert _run(["check", "--rel", "rooted", p, q]) == (
        1, "", f"not rooted-equivalent: {clause}: {detail}\n")
    assert _run(["prove", p, q]) == (1, "", f"INEQ {clause}\n{detail}\n")


def test_prove_refuses_the_divergence_pair(tmp_path):
    # branching-equivalent, but only the left side can diverge after its
    # a move: the axiom the paper drops would equate them, so nothing proves
    from dpbc.equiv import RootedCheck, equivalent
    from dpbc.ses import prove_congruent
    left, right = "a.rec X.(tau.X + b.0)", "a.tau.b.0"
    e, f = parse(left), parse(right)
    assert equivalent(e, f, "branching") and not equivalent(e, f, "dpbb")
    assert isinstance(prove_congruent(e, f), RootedCheck)
    p, q = _write(tmp_path, "p.proc", left), _write(tmp_path, "q.proc", right)
    res = _run(["prove", p, q])
    assert res.exit_code == 1, res.stderr
    assert res.stderr.startswith("INEQ ")


_PINNED = os.path.join(os.path.dirname(__file__), "pinned")


def _pinned_certificates():
    """The text of each pinned certificate, by file name."""
    texts = {}
    for name in sorted(os.listdir(_PINNED)):
        if name.endswith(".cert"):
            with open(os.path.join(_PINNED, name), encoding="utf-8") as fh:
                texts[name] = fh.read()
    return texts


# the pairs that CI proves and verifies next to the README example
_CI_PAIRS = [
    ("a.tau.b.0", "a.b.0"),
    ("tau* c._g0", "tau* c._g0 + 0"),
    ("rec W. rec X. c.((rec W. b.X) + W)", "rec W. rec X. c.((rec W. b.X) + W) + 0"),
    ("(rec X0. (rec X1. 0 + (a.(c.(0 + 0) + tau.X1) + a.a.(a.(c.tau.X0 + tau* b.X1)"
     " + ((X1 + 0) + (b.X1 + 0))))) + tau.a.((X0 + tau* 0) + b.a.(X0 + X0)))",
     "(rec X0. (rec X1. 0 + (a.(c.(0 + 0) + tau.X1) + a.a.(a.(c.tau.X0 + tau* b.X1)"
     " + ((X1 + 0) + (b.X1 + 0))))) + tau.a.((X0 + tau* 0) + b.a.tau.(X0 + X0)))"),
    ("tau* tau* (((tau.0 + (0 + c.0)) + b.(0 + (0 + 0))) + 0)",
     "tau* (((tau.0 + (0 + c.0)) + b.(0 + (0 + 0))) + 0)"),
    ("rec X. a.X", "rec Y. a.a.Y"),
    ("rec X. tau.(X + a.0)", "tau.tau* a.0"),
]


def test_prove_hands_its_check_to_the_prover(tmp_path, monkeypatch):
    # `prove` decides rooted congruence itself and hands the passing check
    # on: the certificate is the library's, and the pair is checked once
    import dpbc.equiv
    import dpbc.ses
    from dpbc.ses import prove_congruent
    pairs = list(_CI_PAIRS)
    for text in _pinned_certificates().values():
        pairs.append(tuple(map(pretty, parse_derivation(text).conclusion)))
    at_root = []
    for module in (dpbc.equiv, dpbc.ses):
        def counted(e, f, *args, _check=module.rooted_check):
            at_root.append((e, f) == root)
            return _check(e, f, *args)
        monkeypatch.setattr(module, "rooted_check", counted)
    for left, right in pairs:
        root = parse(left), parse(right)
        p, q = _write(tmp_path, "p.proc", left), _write(tmp_path, "q.proc", right)
        at_root.clear()
        res = _run(["prove", p, q])
        assert (res.exit_code, res.stderr) == (0, ""), (left, right, res.stderr)
        assert at_root.count(True) == 1, (left, right)
        assert res.stdout == format_derivation(prove_congruent(*root)), (left, right)


def test_prover_handed_a_failing_check_builds_nothing(monkeypatch):
    import dpbc.ses
    from dpbc.equiv import rooted_check
    from dpbc.ses import prove_congruent
    e, f = parse("a.rec X.(tau.X + b.0)"), parse("a.tau.b.0")
    rc = rooted_check(e, f)
    assert not rc.equal

    def fail(*args):
        raise AssertionError("built or checked again")

    for name in ("rooted_check", "Builder", "_walk", "_route"):
        monkeypatch.setattr(dpbc.ses, name, fail)
    assert prove_congruent(e, f, 100, rc) is rc


def test_check_strong(tmp_path):
    p = _write(tmp_path, "p.proc", "a.0 + b.0")
    q = _write(tmp_path, "q.proc", "b.0 + a.0")
    assert _run(["check", "--rel", "strong", p, q]).exit_code == 0


def test_prove_refl_and_verify(tmp_path):
    p = _write(tmp_path, "p.proc", "a.b.0 # one expression per file")
    res = _run(["prove", p, p])
    assert res.exit_code == 0
    cert = _write(tmp_path, "refl.cert", res.stdout)
    assert _run(["verify", cert]).exit_code == 0


def test_prove_verify_roundtrip_iff_rooted(tmp_path):
    pairs = [
        ("a.tau.b.0", "a.b.0", 0),
        ("a.0 + a.0", "a.0", 0),
        ("a.0", "tau.a.0", 1),
    ]
    for i, (le, ri, code) in enumerate(pairs):
        p = _write(tmp_path, f"l{i}.proc", le)
        q = _write(tmp_path, f"r{i}.proc", ri)
        res = _run(["prove", p, q])
        assert res.exit_code == code, res.stderr
        if code == 0:
            d = parse_derivation(res.stdout)
            assert check(d) is None
            assert d.conclusion == (parse(le), parse(ri))
        else:
            assert "INEQ" in res.stderr


def test_prove_verify_roundtrip_non_ascii_names(tmp_path):
    # names the expression grammar reads beyond ASCII letters, written
    # as leaves of term lines, read back on `verify`
    pairs = [
        ("rec Ä. a.Ä", "a.rec Ä. a.Ä"),
        ("rec Xé. (a.Xé + b.Yé)", "a.(rec Xé. (a.Xé + b.Yé)) + b.Yé"),
        ("a.tau.Ä + a.Ä", "a.Ä"),
    ]
    for i, (le, ri) in enumerate(pairs):
        res = _python("-m", "dpbc.cli", "prove",
                      _write(tmp_path, f"l{i}.proc", le), _write(tmp_path, f"r{i}.proc", ri))
        assert res.returncode == 0, (le, res.stderr)
        assert re.search(r"^term \d+ .*[ÄXY]é?$", res.stdout, re.M), res.stdout
        cert = _write(tmp_path, f"c{i}.cert", res.stdout)
        ver = _python("-m", "dpbc.cli", "verify", cert)
        assert ver.returncode == 0, (le, ver.stderr)
        d = parse_derivation(res.stdout)
        assert check(d) is None and d.conclusion == (parse(le), parse(ri))


def test_verify_tampered_certificate(tmp_path):
    p = _write(tmp_path, "p.proc", "a.0 + a.0")
    q = _write(tmp_path, "q.proc", "a.0")
    res = _run(["prove", p, q])
    lines = res.stdout.splitlines()
    head, _, just = lines[-1].rpartition(" by ")
    tag, _, eq = head.partition(" ")
    num, _, body = eq.partition(" ")
    lhs, _, rhs = body.partition(" = ")
    lines[-1] = f"step {num} {rhs} = {lhs} by {just}"
    cert = _write(tmp_path, "bad.cert", "\n".join(lines))
    res2 = _run(["verify", cert])
    assert res2.exit_code == 1
    assert f"step {num}" in res2.stderr


def test_verify_edited_term_line(tmp_path):
    p = _write(tmp_path, "p.proc", "a.0 + a.0")
    q = _write(tmp_path, "q.proc", "a.0")
    lines = _run(["prove", p, q]).stdout.splitlines()
    # the table writes a.0 + a.0 as `@k + @k`; drop its right summand
    k = next(i for i, l in enumerate(lines)
             if re.fullmatch(r"term \d+ (@\d+) \+ \1", l))
    lines[k] = lines[k].rpartition(" + ")[0] + " + 0"
    cert = _write(tmp_path, "bad.cert", "\n".join(lines))
    res = _run(["verify", cert])
    assert res.exit_code == 1
    assert res.stderr.startswith("invalid certificate: step ")


def test_verify_bad_term_references_exit_2(tmp_path):
    certs = {
        "undefined": "step 0 @0 = @0 by refl\n",
        "forward": "term 0 a.@1\nterm 1 b.0\nstep 0 @0 = @0 by refl\n",
        "out_of_order": "term 0 a.0\nterm 2 b.0\nstep 0 @0 = @0 by refl\n",
        "duplicate": "term 0 a.0\nterm 0 b.0\nstep 0 @0 = @0 by refl\n",
    }
    for name, text in certs.items():
        res = _python("-m", "dpbc.cli", "verify", _write(tmp_path, f"{name}.cert", text))
        assert res.returncode == 2, (name, res.stderr)
        assert "Traceback" not in res.stderr, name
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), name


def test_verify_stray_action_binding_exit_2(tmp_path):
    # only axiom B takes an action; S1 with `a:=zz` is malformed
    text = ("term 0 a.0\nterm 1 @0 + @0\n"
            "step 0 @1 = @1 by axiom S1 {E:=@0, F:=@0, a:=zz}\n")
    cert = _write(tmp_path, "stray.cert", text)
    res = _python("-m", "dpbc.cli", "verify", cert)
    assert res.returncode == 2, res.stderr
    assert res.stderr.strip() == f"error: {cert}: S1 takes no parameter 'a'"


def test_verify_refuses_a_parameter_bound_twice(tmp_path):
    # two bindings of one parameter make the text malformed (exit 2); the
    # reader does not take the last of them
    cert = _write(tmp_path, "dup.cert", "step 0 0 + 0 = 0 by axiom S3 {E:=a.0, E:=0}\n")
    res = _run(["verify", cert])
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {cert}: S3 binds E twice\n")


def test_verify_unwritable_names_exit_2(tmp_path):
    # a name the expression grammar cannot write makes the text
    # malformed (exit 2), not a certificate that fails its check (exit 1)
    refl = "step 0 0 = 0 by refl\n"
    certs = {
        "empty_prefix_action": refl + "step 1 a.0 = a.0 by cong prefix 0 in .◻\n",
        "variable_as_prefix_action": refl + "step 1 a.0 = a.0 by cong prefix 0 in X.◻\n",
        "variable_as_action": "step 0 a.(tau.(0 + 0) + 0) = a.(0 + 0)"
                              " by axiom B {E:=0, F:=0, a:=X}\n",
        "empty_action": "step 0 a.(tau.(0 + 0) + 0) = a.(0 + 0) by axiom B {E:=0, F:=0, a:=}\n",
        "two_word_binder": "step 0 rec X. 0 = rec Y. 0 by axiom R0 {E:=0, X:=X, Y:=a b}\n",
        "action_as_binder": "step 0 rec X. 0 = rec Y. 0 by axiom R0 {E:=0, X:=x, Y:=Y}\n",
        "keyword_as_action": refl + "step 1 a.0 = a.0 by cong prefix 0 in rec.◻\n",
        "action_as_recbody_binder": refl + "step 1 rec X. 0 = rec X. 0"
                                    " by cong recbody 0 in rec x. ◻\n",
    }
    for name, text in certs.items():
        res = _python("-m", "dpbc.cli", "verify", _write(tmp_path, f"{name}.cert", text))
        assert res.returncode == 2, (name, res.stderr)
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (name, res.stderr)


def test_std_writes_certificate(tmp_path):
    p = _write(tmp_path, "p.proc", "rec X.(tau.X + a.0)")
    res = _run(["std", p])
    assert res.exit_code == 0
    printed = parse(res.stdout.strip())
    cert = (tmp_path / "p.proc.cert").read_text()
    d = parse_derivation(cert)
    assert check(d) is None
    assert d.conclusion == (parse("rec X.(tau.X + a.0)"), printed)


def test_std_prints_nothing_when_the_certificate_cannot_be_written(tmp_path):
    p = _write(tmp_path, "p.proc", "rec X.(tau.X + a.0)")
    res = _python("-m", "dpbc.cli", "std", "--cert",
                  str(tmp_path / "missing" / "x.cert"), p)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_lts_aut_output(tmp_path):
    p = _write(tmp_path, "p.proc", "rec X.(tau.X + a.Y)")
    res = _run(["lts", p])
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "des (0, 2, 2)"
    assert '(0,"tau",0)' in lines
    assert 'exp (1, "Y")' in lines
    text = _run(["lts", "--format", "text", p])
    assert "states: 2" in text.stdout


def test_minimize(tmp_path):
    # tau.a.0 merges with a.0 (the quotient is not rooted), dropping the
    # class-internal silent move
    p = _write(tmp_path, "p.proc", "tau.a.0 + tau.a.0")
    res = _run(["minimize", p])
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("des (")
    assert int(lines[0].split(",")[2].strip(" )")) == 2
    assert '(0,"a",1)' in lines
    assert not any('"tau"' in l for l in lines)
    # a divergent loop keeps a silent self-loop on its class
    q = _write(tmp_path, "q.proc", "rec X.(tau.X + a.0)")
    res2 = _run(["minimize", q])
    assert '(0,"tau",0)' in res2.stdout
    # several classes: a divergent loop, a two-state silent cycle folded
    # into one diverging class, and tau.0 merged with 0 without divergence
    r = _write(tmp_path, "r.proc", "rec X. tau.X + a.(rec Y. tau.tau.Y + b.0) + c.tau.0")
    res3 = _run(["minimize", r])
    assert res3.stdout.splitlines() == [
        "des (0, 5, 3)",
        '(0,"tau",0)',
        '(0,"a",1)',
        '(0,"c",2)',
        '(1,"tau",1)',
        '(1,"b",2)',
    ]
    # a class exposes what its members expose, so X + a.0 and a.0 differ
    x = _write(tmp_path, "x.proc", "X + a.0")
    assert _run(["minimize", x]).stdout.splitlines() == [
        "des (0, 1, 2)",
        '(0,"a",1)',
        'exp (0, "X")',
    ]


# a term as printed, or garbled pieces of one
_FUZZ_TEXTS = st.one_of(exprs().map(pretty),
                        st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))


def _fails_closed(inputs, res):
    """The run exits 0, 1 or 2, shows no traceback, and a failure is one
    `error:` line."""
    assert res.exit_code in (0, 1, 2), (inputs, res)
    assert "Traceback" not in res.stderr, (inputs, res.stderr)
    if res.exit_code == 2:
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (inputs, res.stderr)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["lts", "minimize"]), _FUZZ_TEXTS, st.integers(1, 6))
def test_lts_and_minimize_fail_closed(tmp_path_factory, command, text, budget):
    # every run fails closed, and the system that `lts` lists is the one
    # that `build_lts` numbers
    path = tmp_path_factory.getbasetemp() / "fuzz.proc"
    path.write_text(text, encoding="utf-8")
    res = _run([command, "--budget", str(budget), str(path)])
    _fails_closed(text, res)
    if res.exit_code != 2 and command == "lts":
        n_states = build_lts(parse(text), budget).n_states
        assert res.stdout.splitlines()[0].endswith(f", {n_states})"), (text, res.stdout)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["strong", "branching", "dpbb", "rooted"]), _FUZZ_TEXTS, _FUZZ_TEXTS,
       st.integers(1, 6))
def test_check_and_prove_fail_closed(tmp_path_factory, rel, left, right, budget):
    # every run fails closed; `prove` exits as `check --rel rooted` does,
    # unless the prover passes the budget on a pair below the root, and
    # the certificate it writes verifies
    base = tmp_path_factory.getbasetemp()
    paths = [str(base / "fuzz-left.proc"), str(base / "fuzz-right.proc")]
    for path, text in zip(paths, (left, right)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    flags = ["--budget", str(budget)]
    _fails_closed((left, right), _run(["check", "--rel", rel, *flags, *paths]))
    rooted = _run(["check", "--rel", "rooted", *flags, *paths])
    proved = _run(["prove", *flags, *paths])
    _fails_closed((left, right), proved)
    if proved.exit_code != rooted.exit_code:
        assert (rooted.exit_code, proved.stderr) == (
            0, f"error: state budget {budget} exceeded\n"), (left, right)
    elif proved.exit_code == 0:
        d = parse_derivation(proved.stdout)
        assert check(d) is None and d.conclusion == (parse(left), parse(right))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_FUZZ_TEXTS)
def test_std_fails_closed(tmp_path_factory, text):
    # a term that parses has a standard form, and the certificate that
    # `std` writes for it verifies; any other text is one parse error
    path = tmp_path_factory.getbasetemp() / "fuzz.proc"
    cert = tmp_path_factory.getbasetemp() / "fuzz.cert"
    path.write_text(text, encoding="utf-8")
    cert.unlink(missing_ok=True)
    res = _run(["std", "--cert", str(cert), str(path)])
    _fails_closed(text, res)
    try:
        e = parse(text)
    except ParseError:
        assert res.stderr.startswith(f"error: {path}: ") and not cert.exists(), (text, res)
        return
    assert res.exit_code == 0, (text, res)
    verified = _run(["verify", str(cert)])
    out = res.stdout.rstrip("\n")
    assert (verified.exit_code, verified.stdout) == (
        0, f"verified: {pretty(e)} = {out}\n"), (text, verified)


# the shorter pinned certificates, and pieces of the certificate syntax
# to garble them with
_CERTS = [text for text in _pinned_certificates().values() if len(text) < 1000]
_CERT_PIECES = [*_PIECES, "", "@", "@0", "@9", "step ", "term ", " = ", " by ", "axiom ",
                "S1", "B", "R0", "refl", "symm ", "trans ", "cong ", "prefix ", "recbody ",
                " in ", "◻", "{", "}", ":=", ", ", "0 ", "2", "3", "12", "-1", "+1", "# "]


@st.composite
def _garbled(draw):
    """A pinned certificate with one to four slices of it, each of up to
    one or up to twelve characters, replaced by pieces of its syntax."""
    text = draw(st.sampled_from(_CERTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + draw(st.sampled_from([1, 12])))))
        text = text[:i] + draw(st.sampled_from(_CERT_PIECES)) + text[j:]
    return text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_garbled())
def test_verify_fails_closed_on_garbled_certificates(tmp_path_factory, text):
    # a garbled certificate is rejected, by its checker (exit 1) or by
    # its reader, in one line that names the file (exit 2), or still
    # holds, as the library's checker says
    path = tmp_path_factory.getbasetemp() / "fuzz.cert"
    path.write_text(text, encoding="utf-8")
    res = _run(["verify", str(path)])
    _fails_closed(text, res)
    if res.exit_code == 2:
        assert res.stderr.startswith(f"error: {path}: "), (text, res.stderr)
    else:
        assert (check(parse_derivation(text)) is None) == (res.exit_code == 0), text


def _deep(shape: str, n: int) -> str:
    """A term `n` deep or wide: a prefix chain, recursions nested in their
    bodies or directly, sums nested to the left or to the right, a sum
    of loops, or loops nested in loops (at most 6, as `std` takes time
    that grows fast with their depth)."""
    names = [f"{'abc'[i % 3]}.0" for i in range(n)]
    if shape == "chain":
        return "a." * n + "0"
    if shape == "recursions":
        return "".join(f"rec X{i}. a.(" for i in range(n)) + "0 + b.X0" + ")" * n
    if shape == "binders":
        return "".join(f"rec X{i}. " for i in range(n)) + "a.X0"
    if shape == "left sum":
        return "(" * (n - 1) + names[0] + "".join(f" + {a})" for a in names[1:])
    if shape == "right sum":
        return " + (".join(names) + ")" * (n - 1)
    if shape == "loops":
        return " + ".join(f"tau* {a}" for a in names)
    return "tau* (a.0 + " * min(n, 6) + "b.0" + ")" * min(n, 6)


_SHAPES = ["chain", "recursions", "binders", "left sum", "right sum", "loops", "nested loops"]


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.sampled_from(_SHAPES), st.sampled_from([1, 2, 40, 1000, 3000]),
       st.sampled_from(_SHAPES), st.booleans(),
       st.sampled_from(["strong", "branching", "dpbb", "rooted"]))
def test_deep_and_wide_inputs_fail_closed(tmp_path_factory, shape, n, other, same, rel):
    # every command, run in this process below pytest's own frames, on
    # terms up to 3,000 deep or wide: each run fails closed, and each
    # certificate that `prove` or `std` writes verifies.  The right-hand
    # term is as deep or wide as the left or of size 1 (`prove` of sums
    # of different widths grows with the product of the widths)
    base = tmp_path_factory.getbasetemp()
    m = n if same else 1
    left, right = _deep(shape, n), _deep(other, m)
    paths = [str(base / "deep-left.proc"), str(base / "deep-right.proc")]
    for path, text in zip(paths, (left, right)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    cert = str(base / "deep.cert")
    runs = [["check", "--rel", rel, *paths], ["prove", *paths, "--cert", cert],
            ["verify", cert], ["std", "--cert", cert, paths[0]], ["verify", cert],
            ["lts", paths[0]], ["minimize", paths[0]]]
    for args in runs:
        if args[0] in ("prove", "std") and os.path.exists(cert):
            os.unlink(cert)
        if args[0] == "verify" and not os.path.exists(cert):
            continue
        res = _run(args)
        _fails_closed((shape, n, other, m, args[0]), res)
        if args[0] == "verify":
            assert res.exit_code == 0, (shape, n, other, m, res.stderr)


_PARSE_ERROR = "unexpected token '+' at offset 3"


@pytest.mark.parametrize("command, files, message", [
    ("check", ["bad.proc", "ok.proc"], _PARSE_ERROR),
    ("check", ["ok.proc", "bad.proc"], _PARSE_ERROR),
    ("prove", ["bad.proc", "ok.proc"], _PARSE_ERROR),
    ("prove", ["ok.proc", "bad.proc"], _PARSE_ERROR),
    ("std", ["bad.proc"], _PARSE_ERROR), ("lts", ["bad.proc"], _PARSE_ERROR),
    ("minimize", ["bad.proc"], _PARSE_ERROR),
    ("verify", ["bad.proc"], "unexpected line 'a. + b'"),
    ("verify", ["bad.cert"], "step 0 is not an equation"),
], ids=["check-left", "check-right", "prove-left", "prove-right", "std", "lts", "minimize",
        "verify-line", "verify-step"])
def test_parse_error_names_its_file(tmp_path, command, files, message):
    # of two inputs, the line says which one does not parse; a
    # certificate that does not read is named as well
    _write(tmp_path, "bad.proc", "a. + b")
    _write(tmp_path, "bad.cert", "step 0 a.0 by refl\n")
    _write(tmp_path, "ok.proc", "0")
    res = _run([command, *(str(tmp_path / name) for name in files)])
    bad = str(tmp_path / next(name for name in files if name.startswith("bad")))
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("command, out", [
    ("check", ""), ("prove", "step 0 @0 = @0 by refl\n"), ("std", "a.0\n"),
    ("lts", 'des (0, 1, 2)\n(0,"a",1)\n'), ("minimize", 'des (0, 1, 2)\n(0,"a",1)\n'),
], ids=["check", "prove", "std", "lts", "minimize"])
def test_byte_order_mark_is_not_text(tmp_path, command, out):
    # some editors start a UTF-8 file with a byte-order mark
    bom = tmp_path / "bom.proc"
    bom.write_bytes(codecs.BOM_UTF8 + b"a.0")
    files = [str(bom), str(bom)] if command in ("check", "prove") else [str(bom)]
    res = _run([command, *files])
    assert (res.exit_code, res.stderr) == (0, ""), res.stderr
    assert res.stdout.endswith(out)


def test_byte_order_mark_before_a_certificate(tmp_path):
    cert = tmp_path / "p.cert"
    cert.write_bytes(codecs.BOM_UTF8 + b"step 0 a.0 = a.0 by refl\n")
    assert _run(["verify", str(cert)]) == (0, "verified: a.0 = a.0\n", "")
    # an undecodable byte after the mark is counted from the file's start
    cert.write_bytes(codecs.BOM_UTF8 + b"step \xff")
    res = _run(["verify", str(cert)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"error: {cert}: not UTF-8 text (invalid start byte at byte 8)\n"


@pytest.mark.parametrize("exc", [ProofError("stuck"), MoveNotPresent("a.0 has no b move to 0"),
                                 RecursionError("maximum recursion depth exceeded")])
def test_prover_failure_exits_2_with_one_line(tmp_path, monkeypatch, exc):
    # exit 1 means "not congruent"; a prover that fails has decided nothing
    p = _write(tmp_path, "p.proc", "a.0")

    def fail(*args):
        raise exc

    # `prove` looks the prover up in its own module when it runs
    monkeypatch.setattr("dpbc.ses.prove_congruent", fail)
    res = _run(["prove", p, p])
    assert res.exit_code == 2, res.stderr
    assert res.stdout == ""
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    # the prover's own depth is not the input's fault
    assert "input" not in lines[0]


@pytest.mark.parametrize("args, target, exc, line", [
    (["prove", "p.proc", "p.proc"], "dpbc.ses.prove_congruent", RecursionError("depth"),
     "error: recursion limit reached in dpbc prove (depth)"),
    (["verify", "p.cert"], "dpbc.kernel.check", RecursionError("depth"),
     "error: recursion limit reached in dpbc verify (depth)"),
    (["lts", "p.proc"], "dpbc.semantics.build_lts", KeyError("x"), "error: KeyError: 'x'"),
    (["minimize", "p.proc"], "dpbc.semantics.build_lts", BudgetExceeded("over budget"),
     "error: over budget"),
], ids=["recursion-prove", "recursion-verify", "unexpected", "budget"])
def test_error_line_names_the_command_or_the_unexpected_type(tmp_path, monkeypatch,
                                                            args, target, exc, line):
    # a deep recursion is not the prover's alone; an error that no layer
    # raises on purpose is named by its type
    _write(tmp_path, "p.proc", "a.0")
    _write(tmp_path, "p.cert", "step 0 a.0 = a.0 by refl\n")

    def fail(*args):
        raise exc

    monkeypatch.setattr(target, fail)
    res = _run([str(tmp_path / a) if "." in a else a for a in args])
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", line + "\n")


@pytest.mark.parametrize("args", [
    [], ["nope"], ["check", "--rel", "nope", "ok.proc", "ok.proc"],
    ["check", "--budget", "x", "ok.proc", "ok.proc"],
    ["check", "--budget", "0", "ok.proc", "ok.proc"],
    ["lts", "--budget", "-5", "ok.proc"], ["check", "ok.proc"], ["verify"],
], ids=["no-command", "unknown-command", "bad-rel", "bad-budget", "zero-budget",
        "negative-budget", "missing-file2", "missing-file"])
def test_argument_errors_exit_2(tmp_path, args):
    _write(tmp_path, "ok.proc", "a.0")
    res = _run([str(tmp_path / a) if "." in a else a for a in args])
    assert res.exit_code == 2 and res.stdout == ""
    assert "usage: dpbc" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("name", ["nowhere.proc", "."], ids=["nonexistent", "directory"])
@pytest.mark.parametrize("command", ["check", "prove", "verify", "std", "lts", "minimize"])
def test_unreadable_file_exits_2_with_one_line(tmp_path, command, name):
    path = str(tmp_path / name)
    files = [path, path] if command in ("check", "prove") else [path]
    res = _run([command, *files])
    assert res.exit_code == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno "), lines
    assert path in lines[0], lines


@pytest.mark.parametrize("command, options", [
    (None, ["check", "prove", "verify", "std", "lts", "minimize"]),
    ("check", ["--rel", "--budget", "strong", "branching", "dpbb", "rooted", "file1", "file2"]),
    ("prove", ["--budget", "--cert", "file1", "file2"]),
    ("verify", ["file"]),
    ("std", ["--cert", "file"]),
    ("lts", ["--format", "--budget", "text", "aut", "file"]),
    ("minimize", ["--budget", "file"]),
])
def test_help_names_every_command_and_option(command, options):
    res = _run([command, "--help"] if command else ["--help"])
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout.startswith(f"usage: dpbc {command or ''}".rstrip())
    for word in options:
        assert re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", res.stdout), word

def test_check_rejects_term_reference_in_expression(tmp_path):
    # `@n` belongs in certificates only
    p = _write(tmp_path, "p.proc", "a.@0")
    q = _write(tmp_path, "q.proc", "@0")
    res = _run(["check", p, q])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")


def test_budget_exit_code(tmp_path):
    deep = "a.0"
    for _ in range(8):
        deep = f"a.({deep} + b.{deep})"
    p = _write(tmp_path, "deep.proc", deep)
    q = _write(tmp_path, "ok.proc", "0")
    res = _run(["check", "--budget", "4", p, q])
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["check", "prove", "verify", "std", "lts", "minimize"])
def test_non_utf8_input_exits_2_with_one_line(tmp_path, command):
    # an undecodable file is no verdict: exit 2, and the line names the file
    bad = tmp_path / "bad.proc"
    bad.write_bytes(b"\xff\xfe a.0")
    ok = _write(tmp_path, "ok.proc", "a.0")
    files = [str(bad), ok] if command in ("check", "prove") else [str(bad)]
    res = _python("-m", "dpbc.cli", command, *files)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert str(bad) in lines[0] and "UTF-8" in lines[0]


def _python(*args):
    """Run a fresh interpreter that imports the dpbc under test."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dpbc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def test_deep_and_wide_inputs_exit_2_without_traceback(tmp_path):
    # a 400-deep `rec` (`perfbench/gen.py` `deep_rec(400)`) is decided on
    # closure states, which substitute nothing, and proved equal to itself
    # by a certificate that verifies; none of it may end in a traceback
    text = "0"
    for i in reversed(range(400)):
        text = f"rec X{i}. a.({text} + b.X0)"
    deep = _write(tmp_path, "deep.proc", text)
    cert = str(tmp_path / "deep.cert")
    runs = [
        ["check", "--rel", "dpbb", deep, deep],
        ["prove", deep, deep, "--cert", cert],
        ["verify", cert],
    ]
    for args in runs:
        res = _python("-m", "dpbc.cli", *args)
        assert res.returncode == 0, (args, res.stderr[-300:])
        assert "Traceback" not in res.stderr, args
        assert res.stderr == "", args


def test_deep_recursion_is_listed_minimized_and_explained(tmp_path):
    # the systems of the terms of `deep_rec(400)` are built by a
    # substitution that keeps a stack of its own: `lts` lists them,
    # `minimize` quotients them, and a failing rooted check names its
    # unmatched move in a term
    text = "0"
    for i in reversed(range(400)):
        text = f"rec X{i}. a.({text} + b.X0)"
    deep = _write(tmp_path, "deep.proc", text)
    res = _python("-m", "dpbc.cli", "lts", deep)
    assert res.returncode == 0 and res.stdout.startswith("des (0, 800, 401)\n"), res.stderr[-300:]
    res = _python("-m", "dpbc.cli", "minimize", deep)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr[-300:]
    other = _write(tmp_path, "other.proc", "rec X0. a.X0")
    res = _python("-m", "dpbc.cli", "check", "--rel", "rooted", deep, other)
    assert res.returncode == 1, res.stderr[-300:]
    assert res.stderr.startswith("not rooted-equivalent: forth: left move a."), res.stderr[:300]
    assert res.stderr.endswith(" has no matching right move\n"), res.stderr[-300:]


def test_nested_recursions_are_listed_minimized_and_refused(tmp_path):
    # `rec X0. rec X1. ... rec X1999. a.0`: its moves are worked out with
    # a stack, and a failing rooted check is explained on the closures
    # that decided it, so no command walks the 2000 binders recursively
    text = "a.0"
    for i in reversed(range(2000)):
        text = f"rec X{i}. {text}"
    nested = _write(tmp_path, "nested.proc", text)
    other = _write(tmp_path, "other.proc", "b.0")
    detail = "left move a.0 has no matching right move\n"
    res = _python("-m", "dpbc.cli", "check", "--rel", "rooted", nested, other)
    assert (res.returncode, res.stderr) == (1, f"not rooted-equivalent: forth: {detail}")
    res = _python("-m", "dpbc.cli", "prove", nested, other)
    assert (res.returncode, res.stderr) == (1, f"INEQ forth\n{detail}")
    for command in ("lts", "minimize"):
        res = _python("-m", "dpbc.cli", command, nested)
        assert (res.returncode, res.stdout, res.stderr) == (
            0, 'des (0, 1, 2)\n(0,"a",1)\n', ""), (command, res.stderr[-300:])


def test_deep_chains_are_decided(tmp_path):
    # the parser keeps its own stack, so `a.` nested 10^4 times parses at
    # the default recursion limit, and every relation decides the pair
    chain = "a." * 10_000
    deep = _write(tmp_path, "deep.proc", chain + "0")
    padded = _write(tmp_path, "padded.proc", chain + "(0 + 0)")
    for rel in ("strong", "branching", "dpbb", "rooted"):
        res = _python("-m", "dpbc.cli", "check", "--rel", rel, deep, padded)
        assert (res.returncode, res.stderr) == (0, ""), (rel, res.stderr[-300:])
    res = _python("-m", "dpbc.cli", "lts", deep)
    assert res.returncode == 0 and res.stdout.startswith("des (0, 10000, 10001)\n"), res.stderr
    # the guardedness of each node is set when it is built, so `std`
    # standardizes the chain, by a certificate that verifies
    cert = str(tmp_path / "deep.cert")
    res = _python("-m", "dpbc.cli", "std", "--cert", cert, deep)
    assert (res.returncode, res.stdout, res.stderr) == (0, chain + "0\n", ""), res.stderr[-300:]
    res = _python("-m", "dpbc.cli", "verify", cert)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr[-300:]
    assert res.stdout == f"verified: {chain}0 = {chain}0\n"
    # the prover's walk keeps its own stack of congruence lifts, so
    # `prove` proves the chain pair by one lift per level, by a
    # certificate that verifies
    cert = str(tmp_path / "chain.cert")
    res = _python("-m", "dpbc.cli", "prove", "--cert", cert, deep, padded)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr[-300:]
    res = _python("-m", "dpbc.cli", "verify", cert)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr[-300:]
    assert res.stdout == f"verified: {chain}0 = {chain}(0 + 0)\n"
    # a sum of 3000 summands nested to the right is decided and
    # standardized as well, by a certificate that verifies
    text = "a.0"
    for i in range(1, 3000):
        text = f"{'abc'[i % 3]}.0 + ({text})"
    wide = _write(tmp_path, "wide.proc", text)
    res = _python("-m", "dpbc.cli", "check", "--rel", "strong", wide,
                  _write(tmp_path, "wide0.proc", text + " + 0"))
    assert (res.returncode, res.stderr) == (0, ""), res.stderr[-300:]
    cert = str(tmp_path / "wide.cert")
    res = _python("-m", "dpbc.cli", "std", "--cert", cert, wide)
    assert (res.returncode, res.stdout, res.stderr) == (0, "a.0 + b.0 + c.0\n", ""), res.stderr[-300:]
    res = _python("-m", "dpbc.cli", "verify", cert)
    assert res.returncode == 0, res.stderr[-300:]
    assert res.stdout == f"verified: {pretty(parse(text))} = a.0 + b.0 + c.0\n"


def test_wide_sums_are_decided(tmp_path):
    # `step` and `exposes` walk a sum's spine with a stack, and
    # standardization walks it with a stack of its own, so a sum of 3000
    # summands is decided under every relation, listed, minimized,
    # proved equal to itself plus `0` and standardized, each by a
    # certificate that verifies
    text = " + ".join(f"{'abc'[i % 3]}.0" for i in range(3000))
    wide = _write(tmp_path, "wide.proc", text)
    padded = _write(tmp_path, "padded.proc", text + " + 0")
    for rel in ("strong", "branching", "dpbb", "rooted"):
        res = _python("-m", "dpbc.cli", "check", "--rel", rel, wide, padded)
        assert res.returncode == 0 and res.stderr == "", (rel, res.stderr[-300:])
    aut = 'des (0, 3, 2)\n(0,"a",1)\n(0,"b",1)\n(0,"c",1)\n'
    for command in ("lts", "minimize"):
        res = _python("-m", "dpbc.cli", command, wide)
        assert (res.returncode, res.stdout, res.stderr) == (0, aut, ""), command
    cert = str(tmp_path / "wide.cert")
    res = _python("-m", "dpbc.cli", "prove", wide, padded, "--cert", cert)
    assert res.returncode == 0, res.stderr[-300:]
    res = _python("-m", "dpbc.cli", "verify", cert)
    assert res.returncode == 0, res.stderr[-300:]
    assert res.stdout == f"verified: {text} = {text} + 0\n"
    std = str(tmp_path / "std.cert")
    res = _python("-m", "dpbc.cli", "std", "--cert", std, wide)
    assert (res.returncode, res.stdout, res.stderr) == (0, "a.0 + b.0 + c.0\n", ""), res.stderr[-300:]
    res = _python("-m", "dpbc.cli", "verify", std)
    assert res.returncode == 0, res.stderr[-300:]
    assert res.stdout == f"verified: {text} = a.0 + b.0 + c.0\n"
    # the same summands under a recursion, against its renaming: R0
    # substitutes into the whole sum, with a stack of its own
    rec_x = _write(tmp_path, "recx.proc", f"rec X. ({text.replace('.0', '.X')})")
    rec_y = _write(tmp_path, "recy.proc", f"rec Y. ({text.replace('.0', '.Y')})")
    res = _python("-m", "dpbc.cli", "prove", rec_x, rec_y, "--cert", cert)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr[-300:]
    res = _python("-m", "dpbc.cli", "verify", cert)
    assert res.returncode == 0, res.stderr[-300:]


def test_verify_prints_a_deep_conclusion(tmp_path):
    # a chain of 3000 prefixes: checking it is flat, and so is printing
    # the `verified:` line
    lines = ["term 0 a.0"]
    lines += [f"term {i} a.@{i - 1}" for i in range(1, 3000)]
    lines.append("step 0 @2999 = @2999 by refl")
    cert = _write(tmp_path, "deep.cert", "\n".join(lines) + "\n")
    res = _python("-m", "dpbc.cli", "verify", cert)
    assert res.returncode == 0, res.stderr[-300:]
    assert res.stdout == f"verified: {'a.' * 3000}0 = {'a.' * 3000}0\n"


def test_verify_prints_deeply_nested_loops(tmp_path):
    # 1,500 nested `tau*` loops over a.0: printing each loop as `tau*`
    # asks for the free names of the loop below it, at any depth
    lines = ["term 0 a.0", "term 1 tau._g0"]
    for k in range(2, 3002, 2):
        lines += [f"term {k} @1 + @{k - 1 if k > 2 else 0}", f"term {k + 1} rec _g0. @{k}"]
    lines.append("step 0 @3001 = @3001 by refl")
    cert = _write(tmp_path, "loops.cert", "\n".join(lines) + "\n")
    res = _python("-m", "dpbc.cli", "verify", cert)
    assert res.returncode == 0, res.stderr[-300:]
    side = "tau* " * 1500 + "a.0"
    assert res.stdout == f"verified: {side} = {side}\n"


def test_cli_imports_nothing_beyond_the_stdlib():
    # every module that `import dpbc.cli` adds comes from dpbc or the
    # standard library; click, which the command line once ran on, is not one
    code = ("import sys; before = set(sys.modules); import dpbc.cli; "
            "assert 'click' not in sys.modules; "
            "added = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "sys.exit(sorted(added - set(sys.stdlib_module_names) - {'dpbc'}) or None)")
    res = _python("-c", code)
    assert res.returncode == 0, res.stderr


def _unused_imports(path):
    """The names that a module imports at its top level and never uses,
    as (line, name); an import marked `# noqa: F401` is a re-export."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_every_module_level_import_is_used():
    # a fold that moves a job leaves its imports behind; each module of
    # the package uses every name it imports at its top level
    package = os.path.dirname(dpbc.__file__)
    found = {name: _unused_imports(os.path.join(package, name))
             for name in sorted(os.listdir(package)) if name.endswith(".py")}
    assert len(found) > 1
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_prove_and_verify_leave_stderr_empty(tmp_path):
    # terms freed while the interpreter exits still find their table
    left = _write(tmp_path, "l.proc", "a.tau.b.0")
    right = _write(tmp_path, "r.proc", "a.b.0")
    cert = str(tmp_path / "proof.cert")
    for args in (["prove", left, right, "--cert", cert], ["verify", cert]):
        res = _python("-m", "dpbc.cli", *args)
        assert res.returncode == 0, res.stderr
        assert res.stderr == "", args


def _loaded_modules(*args):
    """Run `python -X importtime <args>`; the dpbc submodules it loads
    (the module that `-m` runs is not imported), every module it loads,
    and the result."""
    res = _python("-X", "importtime", *args)
    names = {line.rpartition("|")[2].strip() for line in res.stderr.splitlines()
             if line.startswith("import time:")}
    layers = {n[len("dpbc."):] for n in names if n.startswith("dpbc.")} - {"cli"}
    return layers, names, res


def test_import_dpbc_loads_no_submodule():
    loaded, _, res = _loaded_modules("-c", "import dpbc")
    assert res.returncode == 0, res.stderr[-300:]
    assert loaded == set()


def test_package_exports_resolve_lazily():
    # `standardize` names a submodule and a function: loading the
    # submodule (through `ses`) must leave the package's name the function
    code = "\n".join([
        "import pkgutil, sys, dpbc",
        "from dpbc import prove_congruent",
        "from dpbc import standardize",
        "assert standardize is sys.modules['dpbc.standardize'].standardize",
        "for name in dpbc.__all__:",
        "    getattr(dpbc, name)",
        "for info in pkgutil.iter_modules(dpbc.__path__):",
        "    got = getattr(dpbc, info.name)",
        "    module = sys.modules[f'dpbc.{info.name}']",
        "    want = getattr(module, info.name) if info.name in dpbc.__all__ else module",
        "    assert got is want, info.name",
        "assert set(dpbc.__all__) <= set(dir(dpbc))",
        "assert not {'PairRelation', 'brute_oracle'} & set(dpbc.__all__)",
        # the steps of the completeness proof are reached through
        # `prove_congruent` and `standardize`, not one by one
        "assert not {'derive_T1', 'derive_D0', 'derive_summand_absorption', 'derive_D',",
        "            'expose_to_summand', 'extract_ses', 'solve_system', 'tau_transform',",
        "            'quotient', 'promote', 'NotEquivalent', 'EqSystem', 'divergent',",
        "            } & set(dpbc.__all__)",
    ])
    res = _python("-c", code)
    assert res.returncode == 0, res.stderr[-500:]


@pytest.mark.parametrize("args, code, layers", [
    (["check", "--rel", "strong", "l.proc", "r.proc"], 1, {"syntax", "semantics", "equiv"}),
    (["check", "--rel", "rooted", "l.proc", "l.proc"], 0, {"syntax", "semantics", "equiv"}),
    (["check", "bad.proc", "r.proc"], 2, {"syntax"}),
    (["check", "--budget", "1", "l.proc", "r.proc"], 2, {"syntax", "semantics", "equiv"}),
    (["lts", "l.proc"], 0, {"syntax", "semantics"}),
    (["minimize", "l.proc"], 0, {"syntax", "semantics", "equiv"}),
    (["std", "--cert", "l.cert", "l.proc"], 0,
     {"syntax", "semantics", "kernel", "proof", "standardize"}),
    # a pair that the walk closes (here by T1) loads no root route
    (["prove", "l.proc", "r.proc"], 0, {"syntax", "semantics", "equiv", "kernel", "proof", "ses"}),
    (["verify", "pinned"], 0, {"syntax", "kernel"}),
    (["verify", "tampered.cert"], 1, {"syntax", "kernel"}),
    (["verify", "bad.proc"], 2, {"syntax", "kernel"}),
    # a pair that is not congruent has no proof to build
    (["prove", "l.proc", "n.proc"], 1, {"syntax", "semantics", "equiv"}),
    (["prove", "--budget", "1", "l.proc", "r.proc"], 2, {"syntax", "semantics", "equiv"}),
    # an input that does not parse loads nothing beyond the parser
    (["prove", "l.proc", "bad.proc"], 2, {"syntax"}),
    (["std", "bad.proc"], 2, {"syntax"}),
    (["lts", "bad.proc"], 2, {"syntax"}),
    (["minimize", "bad.proc"], 2, {"syntax"}),
    # a pair that takes the root route loads every layer
    (["prove", "--cert", "root.cert", "rl.proc", "rr.proc"], 0,
     {"syntax", "semantics", "equiv", "kernel", "proof", "standardize", "ses", "route"}),
])
def test_each_command_loads_only_its_layers(tmp_path, args, code, layers):
    _write(tmp_path, "l.proc", "a.tau.b.0")
    _write(tmp_path, "r.proc", "a.b.0")
    _write(tmp_path, "n.proc", "a.rec X.(tau.X + b.0)")
    _write(tmp_path, "rl.proc", "rec X. a.X")
    _write(tmp_path, "rr.proc", "rec Y. a.a.Y")
    _write(tmp_path, "bad.proc", "a. + b")
    _write(tmp_path, "tampered.cert", "step 0 a.0 = b.0 by refl\n")
    paths = {"pinned": os.path.join(_PINNED, "taupad.cert")}
    argv = [paths.get(a) or (str(tmp_path / a) if "." in a else a) for a in args]
    loaded, names, res = _loaded_modules("-m", "dpbc.cli", *argv)
    assert res.returncode == code, res.stderr[-300:]
    assert loaded == layers
    # no command pays at start-up for a code generator and what it loads
    assert not {"dataclasses", "inspect"} & names
    if "--cert" in args:
        assert _run(["verify", argv[args.index("--cert") + 1]]).exit_code == 0


def test_pins_verify_with_only_the_kernel():
    # the trusted base is `syntax` and `kernel`: with every other module
    # blocked from loading, `verify` accepts every pinned certificate
    blocked = ["dpbc.semantics", "dpbc.equiv", "dpbc.ses", "dpbc.route", "dpbc.standardize",
               "dpbc.proof"]
    code = "\n".join([
        "import sys",
        f"sys.modules.update(dict.fromkeys({blocked!r}))",
        "from dpbc.cli import main",
        "for path in sys.argv[1:]:",
        "    try:",
        "        main(['verify', path])",
        "    except SystemExit as exc:",
        "        assert exc.code == 0, (path, exc.code)",
        "    else:",
        "        raise AssertionError(path)",
    ])
    pins = sorted(os.path.join(_PINNED, name) for name in os.listdir(_PINNED)
                  if name.endswith(".cert"))
    res = _python("-c", code, *pins)
    assert res.returncode == 0, res.stderr[-500:]
    assert res.stdout.count("verified: ") == len(pins) > 0


def test_readme_gives_the_size_of_the_trusted_base():
    # the README counts the lines of `kernel` and `syntax`, the modules a
    # verified certificate asks its reader to trust, as `wc -l` does
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        stated = re.findall(r"`dpbc[./](kernel|syntax)(?:\.py)?` \((\d+) lines\)", fh.read())
    assert sorted(name for name, _ in stated) == ["kernel", "syntax"]
    for name, lines in stated:
        with open(os.path.join(root, "src", "dpbc", f"{name}.py"), encoding="utf-8") as fh:
            assert fh.read().count("\n") == int(lines), name
