"""Command-line front end, on the standard library's `argparse`.

Each command loads only the layers it runs, and only once its inputs
have been read and parsed, so an input that does not parse loads
`syntax` alone.  `check` and `minimize` load the decision side
(`semantics`, `equiv`), `lts` only `semantics`, `verify` the kernel
alone and `std` the prover up to `standardize`.  `prove` decides
rooted congruence first and loads the prover (`kernel`, `proof`,
`standardize`, `ses`) only when the check passes: a pair that is not
congruent has no proof to build.  A command returns
its exit code: 0 and 1 are verdicts, such as "congruent" and "not
congruent", and 2 says that nothing was decided.
"""

from __future__ import annotations

import argparse
import codecs
import sys

from .syntax import DEFAULT_BUDGET, ParseError, TAU, parse, pretty

RELATIONS = ("strong", "branching", "dpbb", "rooted")


def _read_text(path: str) -> str:
    try:
        # a byte-order mark, as some editors write one, is not text
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        start = exc.start
        with open(path, "rb") as fh:
            if fh.read(3) == codecs.BOM_UTF8:
                start += 3  # the decoder counts from after the mark
        raise ParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {start})") from None


def _read_expr(path: str):
    text = _read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _check(args) -> int:
    """Decide whether two expressions are related (exit 0) or not (exit 1)."""
    e = _read_expr(args.file1)
    f = _read_expr(args.file2)
    from .equiv import equivalent, rooted_check

    if args.rel == "rooted":
        rc = rooted_check(e, f, args.budget)
        if rc.equal:
            return 0
        print(f"not rooted-equivalent: {rc.clause}: {rc.detail}", file=sys.stderr)
        return 1
    if equivalent(e, f, args.rel, args.budget):
        return 0
    print(f"not {args.rel}-equivalent: the roots are in different classes",
          file=sys.stderr)
    return 1


def _prove(args) -> int:
    """Prove two expressions congruent; emit a checkable certificate."""
    e = _read_expr(args.file1)
    f = _read_expr(args.file2)
    from .equiv import rooted_check

    # decide first, so that a pair with no proof loads no prover, and
    # hand the passing check on, so that the prover does not make it
    rc = rooted_check(e, f, args.budget)
    if not rc.equal:
        print(f"INEQ {rc.clause}", file=sys.stderr)
        print(rc.detail, file=sys.stderr)
        return 1
    # looked up here, so that a rebound `ses.prove_congruent` is the one run
    from .kernel import format_derivation
    from .ses import prove_congruent

    text = format_derivation(prove_congruent(e, f, args.budget, rc))
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _verify(args) -> int:
    """Check a certificate; exit 0 when every step is justified."""
    from .kernel import CertificateError, check, parse_derivation

    try:
        derivation = parse_derivation(_read_text(args.file))
    except CertificateError as exc:
        raise CertificateError(f"{args.file}: {exc}") from None
    failure = check(derivation)
    if failure is not None:
        print(f"invalid certificate: {failure}", file=sys.stderr)
        return 1
    lhs, rhs = derivation.conclusion
    print(f"verified: {pretty(lhs)} = {pretty(rhs)}")
    return 0


def _std(args) -> int:
    """Rewrite an expression into a standard sum, with a certificate."""
    e = _read_expr(args.file)
    from .kernel import format_derivation
    from .standardize import standardize

    out, derivation = standardize(e)
    # the sum is printed only once its certificate is written
    with open(args.cert or f"{args.file}.cert", "w", encoding="utf-8") as fh:
        fh.write(format_derivation(derivation))
    print(pretty(out))
    return 0


def _format_text(lts) -> str:
    lines = [f"states: {lts.n_states}  transitions: {len(lts.transitions)}  root: {lts.root}"]
    for i, state in enumerate(lts.states):
        exp = ",".join(sorted(lts.exposure[i]))
        suffix = f"  exposes {{{exp}}}" if exp else ""
        lines.append(f"  {i}: {pretty(state)}{suffix}")
    for src, act, dst in lts.transitions:
        lines.append(f"  {src} --{act.name}--> {dst}")
    return "\n".join(lines) + "\n"


def _lts(args) -> int:
    """Print the reachable transition system of an expression."""
    e = _read_expr(args.file)
    from .semantics import build_lts, format_aut

    lts = build_lts(e, args.budget)
    sys.stdout.write(format_aut(lts) if args.format == "aut" else _format_text(lts))
    return 0


def _minimize(args) -> int:
    """Quotient under the divergence-preserving relation, in AUT format.

    States are equivalence classes; silent self-loops mark classes with
    an internal divergence; silent moves inside one class are dropped;
    each class exposes the variables its members expose.
    """
    e = _read_expr(args.file)
    from .equiv import bisimilarity
    from .semantics import Lts, build_lts, format_aut

    lts = build_lts(e, args.budget)
    part = bisimilarity(lts, "dpbb")
    moves = {(c, TAU, c) for c in part.diverging}
    for src, act, dst in lts.transitions:
        cs, cd = part.class_of[src], part.class_of[dst]
        if not act.is_tau or cs != cd:
            moves.add((cs, act, cd))
    exposure = [frozenset()] * part.n_classes
    for s, c in enumerate(part.class_of):
        exposure[c] |= lts.exposure[s]
    moves = tuple(sorted(moves, key=lambda t: (t[0], t[1].key, t[2])))
    quotient = Lts(tuple(range(part.n_classes)), moves, tuple(exposure),
                   part.class_of[lts.root])
    sys.stdout.write(format_aut(quotient))
    return 0


def _positive(text: str) -> int:
    """A state budget: an integer of at least 1, since the root is a state."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return n


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="Equivalence prover for finite-state process expressions.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run, *files):
        sub = commands.add_parser(run.__name__[1:], help=run.__doc__.partition("\n")[0],
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        for name in files:
            sub.add_argument(name)
        return sub

    def budget(sub):
        sub.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET,
                         help="state budget for transition systems (default: %(default)s)")

    sub = command(_check, "file1", "file2")
    sub.add_argument("--rel", choices=RELATIONS, default="dpbb",
                     help="relation to decide (default: %(default)s)")
    budget(sub)
    sub = command(_prove, "file1", "file2")
    budget(sub)
    sub.add_argument("--cert", help="write the certificate here instead of stdout")
    command(_verify, "file")
    sub = command(_std, "file")
    sub.add_argument("--cert", help="certificate path (default: FILE.cert)")
    sub = command(_lts, "file")
    sub.add_argument("--format", choices=("text", "aut"), default="aut",
                     help="output format (default: %(default)s)")
    budget(sub)
    budget(command(_minimize, "file"))
    return parser


# The errors that a command reports by their message alone, and their
# subclasses: a file that cannot be read or parsed, a state budget
# passed, a certificate that cannot be read, a prover that is stuck.
# They are named, not imported, so that a failing command loads no layer
# that it did not run.  The line for any other error names its type.
_EXPECTED = {"builtins.OSError", "dpbc.syntax.ParseError", "dpbc.semantics.BudgetExceeded",
             "dpbc.kernel.CertificateError", "dpbc.kernel.ProofError"}


def _describe(exc: Exception, command: str) -> str:
    if isinstance(exc, RecursionError):
        # a walk after parsing that recurses once per level of a deep term
        return f"recursion limit reached in {command} ({exc})"
    if any(f"{c.__module__}.{c.__qualname__}" in _EXPECTED for c in type(exc).__mro__):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def main(args=None, prog_name: str = "dpbc", standalone_mode: bool = True):
    """Run the command that `args` (default: the process's arguments)
    names, and exit with its code.  A malformed command line exits 2
    with argparse's usage message; an error while the command runs exits
    2 with one `error:` line.

    `prog_name` and `standalone_mode` are the keywords of the click
    command that this replaced, and `perfbench/clitrace.py` still calls
    `main` with them, so they stay.  `standalone_mode` changes nothing:
    every run ends in `SystemExit`.
    """
    parsed = _parser(prog_name).parse_args(args)
    try:
        code = parsed.run(parsed)
    except Exception as exc:  # every failure of a command is one line and exit 2
        print(f"error: {_describe(exc, f'{prog_name} {parsed.command}')}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
