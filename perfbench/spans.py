"""Span tracing at the boundaries between dpbc's layers.

`install()` rebinds, at run time, the module-level names through which
one layer calls the next; no file of the package changes.  Each wrapper
records a span (name, start, end, parent, op id) in memory; `summary()`
folds the spans into per-name calls and self time, where self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time

_now = time.perf_counter

# span name -> (defining module, attribute path); a dotted path names a
# method.  Every loaded dpbc module that binds the same function object
# gets the wrapper, so `from .x import f` copies are covered too.
BOUNDARIES = (
    ("syntax.parse", "dpbc.syntax", "parse"),
    ("syntax.substitute", "dpbc.syntax", "substitute"),
    ("semantics.build_lts", "dpbc.semantics", "build_lts"),
    ("equiv.bisimilarity", "dpbc.equiv", "bisimilarity"),
    ("equiv.rooted_check", "dpbc.equiv", "rooted_check"),
    ("equiv.equivalent", "dpbc.equiv", "equivalent"),
    ("standardize.standardize", "dpbc.standardize", "_standardize"),
    ("ses.prove_congruent", "dpbc.ses", "prove_congruent"),
    ("ses.absorb", "dpbc.ses", "_absorb_into"),
    ("ses.promote", "dpbc.ses", "_promote"),
    ("ses.extract", "dpbc.ses", "_extract_into"),
    ("ses.quotient", "dpbc.ses", "_Quotient.common_solutions"),
    ("ses.prove_unique", "dpbc.ses", "_prove_unique"),
    ("proof.prove_sum_eq", "dpbc.proof", "prove_sum_eq"),
    ("proof.finalize", "dpbc.proof", "Builder.finalize"),
    ("proof.format_derivation", "dpbc.proof", "format_derivation"),
    ("proof.parse_derivation", "dpbc.proof", "parse_derivation"),
    ("proof.check", "dpbc.proof", "check"),
)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, op id); parent -1 is a root
        self.spans = []
        self.counts = {}
        # span summaries folded in from traced subprocesses
        self.merged = {}
        self._stack = []
        self.op_id = -1

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        # a time-limit interrupt can leave child spans open; they end here
        now = _now()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                break

    def merge(self, summary):
        """Add another process's `summary()` into this one."""
        for name, row in summary["spans"].items():
            acc = self.merged.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for name, n in summary["counts"].items():
            self.count(name, n)

    def summary(self):
        """{"spans": {name: {"calls", "self_s", "total_s"}}, "counts": {...}}"""
        for span in self.spans:
            # opened but interrupted before it reached the stack
            span[2] = max(span[2], span[1])
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: dict(row) for name, row in self.merged.items()}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return {"spans": out, "counts": dict(self.counts)}


def _rebind(old, new):
    """Replace every binding of `old` in the loaded dpbc modules."""
    for modname, mod in list(sys.modules.items()):
        if modname != "dpbc" and not modname.startswith("dpbc."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _after_build_lts(tracer, args, lts):
    tracer.count("semantics.build_lts.states", lts.n_states)
    tracer.count("semantics.build_lts.transitions", len(lts.transitions))


def _after_bisimilarity(tracer, args, part):
    tracer.count("equiv.bisimilarity.states", args[0].n_states)
    tracer.count("equiv.bisimilarity.classes", part.n_classes)


AFTER = {
    "semantics.build_lts": _after_build_lts,
    "equiv.bisimilarity": _after_bisimilarity,
}


def install(tracer: Tracer):
    """Wrap every layer boundary; import the package modules first."""
    import importlib

    for name, modname, path in BOUNDARIES:
        mod = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
            continue
        fn = getattr(mod, attr)
        if name == "equiv.bisimilarity":
            wrapped = _bisimilarity_by_kind(tracer, fn)
        else:
            wrapped = tracer.wrap(name, fn, AFTER.get(name))
        _rebind(fn, wrapped)

    proof = importlib.import_module("dpbc.proof")
    emit = proof.Builder._emit

    def counted_emit(self, lhs, rhs, just):
        tracer.count("proof.emit.calls")
        return emit(self, lhs, rhs, just)

    proof.Builder._emit = counted_emit
    finalize = proof.Builder.finalize

    def counted_finalize(self, conclusion):
        derivation = finalize(self, conclusion)
        tracer.count("proof.builder.steps", len(self.steps))
        tracer.count("proof.finalize.kept", len(derivation.steps))
        return derivation

    proof.Builder.finalize = counted_finalize


def _bisimilarity_by_kind(tracer, fn):
    """One span name per relation kind, so each engine has its own time."""
    by_kind = {}

    @functools.wraps(fn)
    def wrapper(lts, kind):
        inner = by_kind.get(kind)
        if inner is None:
            inner = by_kind[kind] = tracer.wrap(
                f"equiv.bisimilarity.{kind}", fn, _after_bisimilarity)
        return inner(lts, kind)

    return wrapper
