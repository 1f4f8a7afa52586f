"""Benchmark of dpbc: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload {decide,prove,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from
`src/`.  Inputs come from the seed alone (see gen.py); `--seconds` sets
the amount of work, sized so that one run takes about that long on the
baseline (2-core x86 container).  Every op's answer is checked.
Times are scaled by the machine's speed while they were taken
(calib.py), so that a drifting shared host moves them less than a
program change.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see BASELINE.md).
The exit code is 0 when every correctness gate holds, 1 when one broke
and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402

_now = time.perf_counter
WORKLOADS = ("decide", "prove", "cli")
# set-ups per run; setup_s is their median, so one slow spawn does not set it
SETUP_REPS = 5
# per-op time limits; an op over its limit counts as undecided
LIMIT_S = {"decide": 20.0, "prove": 8.0, "cli": 30.0}
# busy time after which a run's workers stop starting ops, shared by
# its passes (the run must end within 180 s even on a much slower
# program)
DEADLINE_S = 120.0


def make_ops(workload: str, seed: int, seconds: float):
    """The op list; the amount of work scales with `seconds`.  The
    times per base or round include the speed samples (calib.py) and
    the set-ups, and vary by up to 1.5x with the host's load."""
    if workload == "decide":
        # one base: 16 ops, ~2.2 s
        return gen.decide_ops(seed, max(2, round(seconds / 2.2)))
    if workload == "prove":
        # one round: 12 pairs, ~10 s; `prove` runs longer than
        # `seconds` because fewer than four rounds leave too few
        # samples for its 90th percentile
        return gen.prove_ops(seed, max(2, round(seconds / 7.5)))
    # one round: 13 invocations, ~7.5 s (each op has a spawn sample)
    return gen.cli_ops(seed, max(2, round(seconds / 7.5)))


# --- worker processes -------------------------------------------------------------


def _env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A fresh worker process; `start_s` is spawn-to-ready time."""

    def __init__(self, workload: str):
        t0 = _now()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env())
        line = self.proc.stdout.readline()
        self.start_s = _now() - t0
        if line.strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"{workload} worker did not start")

    def run(self, msg, timeout):
        try:
            out, _ = self.proc.communicate(json.dumps(msg) + "\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self):
        self.proc.communicate("null\n", timeout=30)


def setup(workload, seed, seconds):
    """Generate the inputs and start a worker, SETUP_REPS times; returns
    (ops, the last worker, median set-up seconds, each scaled by the
    process start-up speed of its moment as in calib.py)."""
    times = []
    samples = [calib.spawn_sample()]
    worker = None
    for rep in range(SETUP_REPS):
        if worker is not None:
            worker.close()
        t0 = _now()
        ops = make_ops(workload, seed, seconds)
        gen_s = _now() - t0
        worker = Worker(workload)
        times.append(gen_s + worker.start_s)
        samples.append(calib.spawn_sample())
    return ops, worker, statistics.median(calib.scale(times, samples, calib.SPAWN_S))


def run_pass(worker, workload, ops, trace, tmp, deadline_s):
    msg = {"ops": ops, "trace": trace, "limit_s": LIMIT_S[workload],
           "deadline_s": deadline_s, "tmp": tmp}
    return worker.run(msg, timeout=deadline_s + LIMIT_S[workload] + 30)


# --- metrics ------------------------------------------------------------------------


def pct(values, q):
    """Harrell-Davis estimate of the q-quantile of a non-empty list: a
    weighted mean of all order statistics, the weights peaking at rank
    q*n.  With the few dozen ops of a `prove` run, the nearest-rank
    percentile jumps between neighbouring ops whose times differ by up
    to 40%, and its quartile spread over seeds was about twice this
    estimate's."""
    import numpy as np  # not at start-up: workers would inherit its RSS (calib.py)

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    # the weight of order statistic i is the mass of the
    # Beta(q(n+1), (1-q)(n+1)) density on [i/n, (i+1)/n), summed here
    # over 1000 midpoints of each interval
    x = (np.arange(1000 * n) + 0.5) / (1000 * n)
    log_pdf = (q * (n + 1) - 1) * np.log(x) + ((1 - q) * (n + 1) - 1) * np.log1p(-x)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, 1000).sum(axis=1)
    return float(np.dot(w, xs) / w.sum())


def tally(records):
    attempted = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    decided = sum(r["status"] == "ok" for r in records)
    return attempted, failed, decided


def scaled_ms(result):
    """Op latencies in ms, scaled to the reference machine (calib.py)."""
    times = calib.scale([r["latency_s"] for r in result["records"]],
                        result["samples"], result["unit_s"])
    return [t * 1000.0 for t in times if t is not None]


def end_to_end(result, setup_s):
    attempted, failed, decided = tally(result["records"])
    lat = scaled_ms(result)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(lat) / 1000.0, "s"),
        "op_p50_ms": (pct(lat, 0.50), "ms"),
        "op_p90_ms": (pct(lat, 0.90), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "decided_share": (decided / attempted, "share"),
    }


def product_metrics(result):
    """Certificate and verification figures (prove and cli only)."""
    recs = result["records"]
    ver = [r["verify_s"] * 1000.0 for r in recs if "verify_s" in r]
    return {
        "verify_p50_ms": (pct(ver, 0.50) if ver else 0.0, "ms"),
        "verify_p90_ms": (pct(ver, 0.90) if ver else 0.0, "ms"),
        "verify.samples": (len(ver), "count"),
        "cert_steps": (sum(r.get("cert_steps", 0) for r in recs), "count"),
        "cert_bytes": (sum(r.get("cert_bytes", 0) for r in recs), "count"),
    }


def by_family(ops, records):
    rows = {}
    for op, r in zip(ops, records):
        rows.setdefault(op["family"], []).append(r)
    out = {}
    for fam, recs in rows.items():
        lat = [r["latency_s"] * 1000.0 for r in recs if r["latency_s"] is not None]
        out[fam] = {"n": len(recs), "ok": sum(r["status"] == "ok" for r in recs),
                    "p50_ms": pct(lat, 0.5) if lat else 0.0,
                    "max_ms": max(lat, default=0.0)}
    return out


# span name -> the per-layer metrics it feeds
SPAN_CALLS = ("syntax.parse", "syntax.substitute", "equiv.rooted_check",
              "equiv.equivalent", "standardize.standardize", "ses.promote",
              "ses.prove_unique", "proof.prove_sum_eq")
SPAN_SELF = ("syntax.parse", "syntax.substitute", "semantics.build_lts",
             "equiv.bisimilarity.strong", "equiv.bisimilarity.branching",
             "equiv.bisimilarity.dpbb", "equiv.rooted_check",
             "standardize.standardize", "ses.prove_congruent", "ses.absorb",
             "ses.promote", "ses.extract", "ses.quotient", "ses.prove_unique",
             "proof.prove_sum_eq", "proof.finalize", "proof.format_derivation",
             "proof.parse_derivation", "proof.check", "op")
COUNTS = ("semantics.build_lts.states", "semantics.build_lts.transitions",
          "equiv.bisimilarity.states", "equiv.bisimilarity.classes",
          "proof.emit.calls", "proof.builder.steps")


def per_layer(traced, plain):
    summary = traced["trace"]
    spans, counts = summary["spans"], summary["counts"]
    out = {}
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = (spans.get(name, {}).get("calls", 0), "count")
    out["equiv.bisimilarity.calls"] = (
        sum(spans.get(f"equiv.bisimilarity.{k}", {}).get("calls", 0)
            for k in ("strong", "branching", "dpbb")), "count")
    for name in SPAN_SELF:
        label = "bench.op" if name == "op" else name
        out[f"{label}.self_s"] = (spans.get(name, {}).get("self_s", 0.0), "s")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    unique = counts.get("proof.builder.steps", 0)
    out["proof.finalize.kept_ratio"] = (
        counts.get("proof.finalize.kept", 0) / unique if unique else 0.0, "ratio")
    out["cli.interpreter_ms"] = (counts.get("cli.interpreter_ms", 0.0), "ms")
    out["cli.import_ms"] = (counts.get("cli.import_ms", 0.0), "ms")
    out.update(product_metrics(traced))
    del out["verify.samples"]
    # unscaled: the two passes run back to back, and scaled the
    # overhead read about 0 where unscaled it read 16-18% (BASELINE.md)
    out["trace.run_s"] = (traced["run_s"], "s")
    out["trace.untraced_run_s"] = (plain["run_s"], "s")
    out["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
    return out


# --- main ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="cross-check constructed verdicts against the oracle")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dpbc", "__init__.py")):
        print("error: run from the root of a dpbc checkout (src/dpbc missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        ap.error("--workload is required")

    os.makedirs(".perfbench_tmp", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".perfbench_tmp")
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass


def _run(args, tmp):
    w = args.workload
    # a traced run makes two passes (plain, then traced) over half the work
    n_passes = 2 if args.trace else 1
    deadline_s = DEADLINE_S / n_passes
    try:
        ops, worker, setup_s = setup(w, args.seed, args.seconds / n_passes)
        plain = run_pass(worker, w, ops, False, tmp, deadline_s)
        passes = [plain]
        if args.trace:
            traced = run_pass(Worker(w), w, ops, True, tmp, deadline_s)
            passes.append(traced)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    for result in passes:
        a, f, _ = tally(result["records"])
        attempted += a
        failed += f
    for result in passes:
        for i, r in enumerate(result["records"]):
            if r["status"] != "ok":
                fam = ops[i].get("family", "?")
                print(f"  op {i} [{fam}] {r['status']}: {r.get('why', '')}")

    if args.trace:
        metrics = per_layer(passes[1], plain)
    else:
        metrics = end_to_end(plain, setup_s)
    n = len([r for r in plain["records"] if r["latency_s"] is not None])
    print(f"{w}: seed {args.seed}, {len(ops)} ops, one client, closed loop; "
          f"{attempted} attempted, {failed} failed")
    for fam, row in by_family(ops, plain["records"]).items():
        print(f"  family {fam:18s} n={row['n']:<4d} ok={row['ok']:<4d} "
              f"p50={row['p50_ms']:9.1f} ms  max={row['max_ms']:9.1f} ms")
    shown = dict(metrics)
    if not args.trace and w != "decide":
        shown.update(product_metrics(plain))
    for name, (value, unit) in shown.items():
        note = f"  (n={n})" if name.startswith("op_p") else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    raw = [r["latency_s"] * 1000.0 for r in plain["records"] if r["latency_s"] is not None]
    unit_ms = 1000.0 * (sum(s for _, s in plain["samples"])
                        / sum(n for n, _ in plain["samples"]))
    print(f"  unscaled: run_s {plain['run_s']:.4g} s, op_p50_ms {pct(raw, 0.5):.4g}, "
          f"op_p90_ms {pct(raw, 0.9):.4g}; reference unit {unit_ms:.4g} ms "
          f"(scaled to {plain['unit_s'] * 1000:.4g} ms)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
