"""Times scaled by the machine's speed at the moment they were taken.

The benchmark runs on shared hosts whose speed drifts by tens of
percent within seconds and over minutes (other tenants), so raw wall
times of the same work spread far more between runs than a program
change worth catching.  A worker therefore takes a
`sample()` before every op and one after the last: it repeats a fixed
unit of reference work for a share of the previous op's time, so that
sampling follows the run's time evenly.  The unit belongs to the
benchmark, not to dpbc, so no change to the program can move it; it
mixes interpreter work (dicts, tuples, sorting, recursion, as the
parser and prover do) with integer matrix products (as the dense
bisimilarity engine does).  The garbage collector is off while a
sample runs, so no collection of the program's heap lands in it.

Where the work is process start-up and imports (`cli` ops, worker
set-up), the unit does not track the host's speed; there a
`spawn_sample()` times one fresh interpreter that imports numpy, the
bulk of a `dpbc` start-up without any of `dpbc`.

`scale()` turns each op's wall time into the time it would have taken
on a machine where one sample unit takes `unit_s` seconds (UNIT_S or
SPAWN_S), taking as the speed of the op's moment the samples just
before and after it (BASELINE.md gives raw and scaled spreads).
"""

from __future__ import annotations

import functools
import gc
import subprocess
import sys
import time

_now = time.perf_counter

# one unit's time on the baseline machine (median over runs), so scaled
# times read about as raw ones did there
UNIT_S = 0.005
# the same for one spawn_sample()
SPAWN_S = 0.2
# a sample lasts this share of the previous op's time, and at least MIN_S
SHARE = 0.1
MIN_S = 0.005
# samples on each side of an op that set the speed of its moment
HALF_WINDOW = 4


@functools.lru_cache(maxsize=None)
def _matrix():
    # numpy is imported on first use only: a child inherits its parent's
    # peak RSS through exec, so run.py and the `cli` worker stay small
    # to keep `peak_rss_mb` the program's own
    import numpy as np

    return (np.arange(64 * 64).reshape(64, 64) % 3 == 0).astype(np.uint8)


def _depth(items, i):
    return 0 if i == len(items) else 1 + _depth(items, i + 1)


def _unit():
    d = {}
    for i in range(3000):
        k = (i % 61, i & 15)
        d[k] = d.get(k, 0) + 1
    items = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
    _depth(items, 0)
    m = a = _matrix()
    for _ in range(10):
        m = ((m @ a) > 0).astype(a.dtype)


def sample(previous_s: float = 0.0):
    """[units, seconds]: reference work done for about
    max(MIN_S, SHARE * previous_s) seconds."""
    target = max(MIN_S, SHARE * previous_s)
    gc.disable()
    try:
        units = 0
        t0 = _now()
        while True:
            _unit()
            units += 1
            elapsed = _now() - t0
            if elapsed >= target:
                return [units, elapsed]
    finally:
        gc.enable()


def spawn_sample():
    """[1, seconds] of starting an interpreter that imports numpy."""
    t0 = _now()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return [1, _now() - t0]


def scale(times, samples, unit_s):
    """Each of `times` scaled to the reference machine.  `samples[i]`
    was taken just before the i-th time and `samples[-1]` after the
    last, so len(samples) == len(times) + 1; a time of None (an op not
    run) stays None."""
    out = []
    for i, t in enumerate(times):
        if t is None:
            out.append(None)
            continue
        window = samples[max(0, i - HALF_WINDOW + 1):i + HALF_WINDOW + 1]
        now_s = sum(s for _, s in window) / sum(n for n, _ in window)
        out.append(t * unit_s / now_s)
    return out
