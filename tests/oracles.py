"""Reference relations and engines that only the tests use.

`round_bisimilarity` is the round-based signature refinement that
`equiv.bisimilarity` replaced: every round recomputes the signature of
every state against the whole partition (Blom & Orzan, STTT 2005).  It
is slow on long chains but plain, so it serves as an oracle past the
sizes that the literal fixpoint and `brute_oracle` reach.
"""

from functools import partial

from dpbc.equiv import Partition, PairRelation, _branching_ok, _image
from dpbc.semantics import Lts, _tau_sccs


def full_relation(lts: Lts) -> PairRelation:
    n = lts.n_states
    return PairRelation(lts, frozenset((i, j) for i in range(n) for j in range(n)))


def identity_relation(lts: Lts) -> PairRelation:
    return PairRelation(lts, frozenset((i, i) for i in range(lts.n_states)))


def functional_Bp(rel: PairRelation) -> PairRelation:
    """The progressing branching functional: a silent move is matched by
    at least one silent step."""
    return _image(rel, partial(_branching_ok, progressing=True))


def pairs(part: Partition) -> PairRelation:
    """The partition as the relation of the pairs that share a class."""
    cls = part.class_of
    return PairRelation(part.lts, frozenset(
        (i, j) for i in range(len(cls)) for j in range(len(cls)) if cls[i] == cls[j]))


def _round_signatures(lts: Lts, block, kind: str):
    """One key per state: its block, its divergence bit and its signature
    against the partition `block` (a list of class ids per state)."""
    if kind == "strong":
        return [
            (block[s], False,
             frozenset((a, block[t]) for a, t in lts.succ(s)) | lts.exposure[s])
            for s in range(lts.n_states)
        ]
    # A silent step is inert when both ends share a block.  Components of
    # the inert graph come sinks first, so a component's signature is its
    # own non-inert moves and exposures plus those of the components its
    # inert steps enter; likewise it diverges inside its block when it is
    # an inert cycle or enters a component that diverges.
    members = {}
    for s, c in enumerate(block):
        members.setdefault(c, []).append(s)
    sig = [None] * lts.n_states
    div = [False] * lts.n_states
    for states in members.values():
        inert = {s: [t for t in lts.tau_succ(s) if block[t] == block[s]] for s in states}
        for comp in _tau_sccs(inert):
            own = set()
            cyclic = len(comp) > 1
            for s in comp:
                own |= lts.exposure[s]
                for a, t in lts.succ(s):
                    if not a.is_tau or block[t] != block[s]:
                        own.add((a, block[t]))
                    elif t == s:
                        cyclic = True
                    elif sig[t] is not None:
                        own |= sig[t]
                        cyclic |= div[t]
            frozen = frozenset(own)
            for s in comp:
                sig[s] = frozen
                div[s] = cyclic and kind == "dpbb"
    return [(block[s], div[s], sig[s]) for s in range(lts.n_states)]


def round_bisimilarity(lts: Lts, kind: str) -> Partition:
    """Signature refinement by rounds: starting from one block, every
    round splits each block by divergence bit and signature, until no
    block splits."""
    block = [0] * lts.n_states
    count = min(1, lts.n_states)
    while True:
        ids = {}
        block = [ids.setdefault(key, len(ids)) for key in _round_signatures(lts, block, kind)]
        if len(ids) == count:
            # the keys were taken against this same partition, so their
            # divergence bits are those of the final classes
            diverging = frozenset(c for key, c in ids.items() if key[1])
            return Partition(lts, tuple(block), diverging)
        count = len(ids)
