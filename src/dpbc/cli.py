"""Command-line front end.

Each command loads only the layers it runs: `check`, `lts` and
`minimize` the decision side (`semantics`, `equiv`), `verify` the
kernel alone, `prove` and `std` the prover as well.
"""

from __future__ import annotations

import sys

import click

from .syntax import DEFAULT_BUDGET, ParseError, TAU, parse, pretty

RELATIONS = ("strong", "branching", "dpbb", "rooted")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_expr(path: str):
    text = _read_text(path)
    try:
        return parse(text)
    except RecursionError:
        raise ParseError(f"{path}: input nested too deeply to parse") from None


# Every command ends with exit 2 and one line on these, and on the
# errors of the layers it loads (a state budget passed, a certificate
# that cannot be read, a prover failure): exit 1 is a verdict, such as
# "not congruent".  The work on a wide sum or on the prover's own deep
# terms can exhaust the interpreter's recursion limit.
_ERRORS = (ParseError, OSError, RecursionError)


def _fail(exc: Exception):
    message = str(exc)
    if isinstance(exc, RecursionError):
        message = f"recursion limit reached while deciding or proving ({message})"
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Equivalence prover for finite-state process expressions."""


@main.command("check")
@click.option("--rel", type=click.Choice(RELATIONS), default="dpbb",
              show_default=True, help="relation to decide")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
              help="state budget for transition systems")
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
@click.argument("file2", type=click.Path(exists=True, dir_okay=False))
def check_cmd(rel, budget, file1, file2):
    """Decide whether two expressions are related (exit 0) or not (exit 1)."""
    from .equiv import equivalent, rooted_check
    from .semantics import BudgetExceeded

    try:
        e = _read_expr(file1)
        f = _read_expr(file2)
        if rel == "rooted":
            rc = rooted_check(e, f, budget)
            if rc.equal:
                sys.exit(0)
            click.echo(
                f"not rooted-equivalent: {rc.clause} at states "
                f"({rc.root_left},{rc.root_right}): {rc.detail}",
                err=True)
            sys.exit(1)
        if equivalent(e, f, rel, budget):
            sys.exit(0)
        click.echo(f"not {rel}-equivalent: the roots are in different classes",
                   err=True)
        sys.exit(1)
    except (*_ERRORS, BudgetExceeded) as exc:
        _fail(exc)


@main.command("prove")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.option("--cert", type=click.Path(dir_okay=False), default=None,
              help="write the certificate here instead of stdout")
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
@click.argument("file2", type=click.Path(exists=True, dir_okay=False))
def prove_cmd(budget, cert, file1, file2):
    """Prove two expressions congruent; emit a checkable certificate."""
    from .equiv import RootedCheck
    from .kernel import CertificateError, ProofError, format_derivation
    from .semantics import BudgetExceeded
    from .ses import prove_congruent

    try:
        e = _read_expr(file1)
        f = _read_expr(file2)
        result = prove_congruent(e, f, budget)
        if isinstance(result, RootedCheck):
            click.echo(
                f"INEQ {result.clause} ({result.root_left},{result.root_right})",
                err=True)
            click.echo(result.detail, err=True)
            sys.exit(1)
        text = format_derivation(result)
        if cert:
            with open(cert, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
    except (*_ERRORS, BudgetExceeded, CertificateError, ProofError) as exc:
        _fail(exc)
    sys.exit(0)


@main.command("verify")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def verify_cmd(file):
    """Check a certificate; exit 0 when every step is justified."""
    from .kernel import CertificateError, ProofError, check, parse_derivation

    try:
        derivation = parse_derivation(_read_text(file))
        failure = check(derivation)
        if failure is None:
            lhs, rhs = derivation.conclusion
            click.echo(f"verified: {pretty(lhs)} = {pretty(rhs)}")
            sys.exit(0)
    except (*_ERRORS, CertificateError, ProofError) as exc:
        _fail(exc)
    click.echo(f"invalid certificate: {failure}", err=True)
    sys.exit(1)


@main.command("std")
@click.option("--cert", type=click.Path(dir_okay=False), default=None,
              help="certificate path (default: FILE.cert)")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def std_cmd(cert, file):
    """Rewrite an expression into a standard sum, with a certificate."""
    from .kernel import CertificateError, ProofError, format_derivation
    from .semantics import BudgetExceeded
    from .standardize import standardize

    try:
        e = _read_expr(file)
        out, derivation = standardize(e)
        # the sum is printed only once its certificate is written
        with open(cert if cert else f"{file}.cert", "w", encoding="utf-8") as fh:
            fh.write(format_derivation(derivation))
        click.echo(pretty(out))
    except (*_ERRORS, BudgetExceeded, CertificateError, ProofError) as exc:
        _fail(exc)
    sys.exit(0)


def _format_text(lts) -> str:
    lines = [f"states: {lts.n_states}  transitions: {len(lts.transitions)}  root: {lts.root}"]
    for i, state in enumerate(lts.states):
        exp = ",".join(sorted(lts.exposure[i]))
        suffix = f"  exposes {{{exp}}}" if exp else ""
        lines.append(f"  {i}: {pretty(state)}{suffix}")
    for src, act, dst in lts.transitions:
        lines.append(f"  {src} --{act.name}--> {dst}")
    return "\n".join(lines) + "\n"


@main.command("lts")
@click.option("--format", "fmt", type=click.Choice(["text", "aut"]),
              default="aut", show_default=True)
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def lts_cmd(fmt, budget, file):
    """Print the reachable transition system of an expression."""
    from .semantics import BudgetExceeded, build_lts, format_aut

    try:
        e = _read_expr(file)
        lts = build_lts(e, budget)
        text = format_aut(lts) if fmt == "aut" else _format_text(lts)
    except (*_ERRORS, BudgetExceeded) as exc:
        _fail(exc)
    click.echo(text, nl=False)
    sys.exit(0)


@main.command("minimize")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def minimize_cmd(budget, file):
    """Quotient under the divergence-preserving relation, in AUT format.

    States are equivalence classes; silent self-loops mark classes with
    an internal divergence; silent moves inside one class are dropped;
    each class exposes the variables its members expose.
    """
    from .equiv import bisimilarity
    from .semantics import BudgetExceeded, Lts, build_lts, format_aut

    try:
        e = _read_expr(file)
        lts = build_lts(e, budget)
        part = bisimilarity(lts, "dpbb")
    except (*_ERRORS, BudgetExceeded) as exc:
        _fail(exc)
    moves = {(c, TAU, c) for c in part.diverging}
    for src, act, dst in lts.transitions:
        cs, cd = part.class_of[src], part.class_of[dst]
        if not act.is_tau or cs != cd:
            moves.add((cs, act, cd))
    exposure = [frozenset()] * part.n_classes
    for s, c in enumerate(part.class_of):
        exposure[c] |= lts.exposure[s]
    moves = tuple(sorted(moves, key=lambda t: (t[0], t[1].key(), t[2])))
    quotient = Lts(tuple(range(part.n_classes)), moves, tuple(exposure),
                   part.class_of[lts.root])
    click.echo(format_aut(quotient), nl=False)
    sys.exit(0)


if __name__ == "__main__":
    main()
