"""Cross-check the verdicts that gen.py constructs against the
brute-force oracle `dpbc.equiv.brute_oracle`, on instances whose joint
transition system has at most 8 states.

    python3 perfbench/run.py --self-check
"""

from __future__ import annotations

import random

import gen


def _oracle_verdicts(left: str, right: str):
    """{relation: verdict} by the oracle, or None when too large."""
    from dpbc.equiv import brute_oracle
    from dpbc.semantics import build_lts, union_lts
    from dpbc.syntax import parse

    joint, r1, r2 = union_lts(build_lts(parse(left)), build_lts(parse(right)))
    if joint.n_states > 8:
        return None
    out = {}
    for kind in ("strong", "branching", "dpbb"):
        part = brute_oracle(joint, kind)
        out[kind] = part.same(r1, r2)
        if kind == "dpbb":
            dpbb = part
    # rooted: the root clauses over the oracle's dpbb partition
    def covered(src, dst):
        return all(any(a2 == a and dpbb.same(t, t2) for a2, t2 in joint.succ(dst))
                   for a, t in joint.succ(src))

    out["rooted"] = (covered(r1, r2) and covered(r2, r1)
                     and joint.exposure[r1] == joint.exposure[r2])
    return out


def main(per_kind: int = 150) -> int:
    rng = random.Random("selfcheck")
    checked = {"decide": 0, "prove": 0}
    bad = []
    tries = 0
    while checked["decide"] < per_kind and tries < 50 * per_kind:
        tries += 1
        for variant, left, right in gen.decide_base(rng, rng.randint(2, 4)):
            got = _oracle_verdicts(left, right)
            if got is None:
                continue
            checked["decide"] += 1
            if got != gen.DECIDE_VERDICTS[variant]:
                bad.append(("decide", variant, left, right, got))
    tries = 0
    fams = tuple(gen.PROVE_FAMILIES)
    labels = random.Random("selfcheck-labels")  # as prove_ops draws them
    while checked["prove"] < per_kind and tries < 50 * per_kind:
        tries += 1
        family = fams[tries % len(fams)]
        try:
            e, f = gen.prove_pair(rng, family, rng.randint(3, 6),
                                  rng.choice(gen.PROVE_SHAPES), labels)
        except RuntimeError:  # shape impossible at this size
            continue
        got = _oracle_verdicts(gen.show(e), gen.show(f))
        if got is None:
            continue
        checked["prove"] += 1
        if got["rooted"] != gen.PROVE_FAMILIES[family]:
            bad.append(("prove", family, gen.show(e), gen.show(f), got))
    for row in bad[:20]:
        print("MISMATCH", *row)
    print(f"self-check: {checked['decide']} decide pairs x 4 relations and "
          f"{checked['prove']} prove pairs against brute_oracle; "
          f"{len(bad)} mismatches")
    return 1 if bad or min(checked.values()) < per_kind else 0
