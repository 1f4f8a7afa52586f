"""One client running one workload as a closed loop, in a fresh process.

Started by run.py with the package on PYTHONPATH.  Protocol: print
`ready` once the workload's modules are imported; read one JSON line
{"ops": [...], "trace": bool, "limit_s": x, "deadline_s": y, "tmp": dir}
(or `null` to exit); run every op once, one at a time; print one JSON
line with a record per op, the machine-speed samples (calib.py) taken
before each op and after the last, and the unit they scale to.

Between ops the package's global caches are cleared (outside the timed
region), so every op starts as cold as a fresh `dpbc` invocation and no
op can turn a later one into a lookup.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import subprocess
import sys
import time

import calib

_now = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no
    `except Exception` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _package_caches():
    caches = []
    for name, mod in list(sys.modules.items()):
        if name == "dpbc" or name.startswith("dpbc."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches.append(value)
    return caches


def _limited(fn, limit_s):
    """(result, timed_out): run fn under a per-op time limit."""
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            return fn(), False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:  # also when the timer fires just as fn returns
        return None, True


# --- in-process ops ---------------------------------------------------------------


def decide_op(op):
    from dpbc import equiv, syntax

    e = syntax.parse(op["left"])
    f = syntax.parse(op["right"])
    if op["rel"] == "rooted":
        verdict = equiv.rooted_check(e, f).equal
    else:
        verdict = equiv.equivalent(e, f, op["rel"])
    if verdict != op["expect"]:
        return "failed", {"why": f"verdict {verdict}, constructed {op['expect']}"}
    return "ok", {}


def prove_op(op):
    from dpbc import equiv, proof, ses, syntax

    e = syntax.parse(op["left"])
    f = syntax.parse(op["right"])
    result = ses.prove_congruent(e, f)
    if isinstance(result, equiv.RootedCheck):
        if op["expect"] or result.equal or not result.clause:
            return "failed", {"why": f"INEQ {result.clause} on a congruent pair"
                              if op["expect"] else "negative result without a clause"}
        return "ok", {}
    if not op["expect"]:
        return "failed", {"why": "certificate for an incongruent pair"}
    text = proof.format_derivation(result)
    t0 = _now()
    derivation = proof.parse_derivation(text)
    failure = proof.check(derivation)
    verify_s = _now() - t0
    info = {"verify_s": verify_s, "cert_steps": len(derivation.steps),
            "cert_bytes": len(text.encode("utf-8"))}
    if failure is not None:
        info["why"] = f"check failed: {failure}"
        return "failed", info
    if derivation.conclusion != (e, f):
        info["why"] = "conclusion is not the input pair"
        return "failed", info
    return "ok", info


def run_in_process(ops, op_fn, limit_s, deadline_s, tracer):
    caches = _package_caches()
    signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        op_fn = tracer.wrap("op", op_fn)
    records = []
    samples = []
    busy = latency = 0.0
    for i, op in enumerate(ops):
        for cache in caches:
            cache.cache_clear()
        if busy > deadline_s:
            samples.append([0, 0.0])
            records.append({"status": "undecided", "latency_s": None,
                            "why": "run deadline passed"})
            continue
        gc.collect()
        samples.append(calib.sample(latency))
        if tracer is not None:
            tracer.op_id = i
        t0 = _now()
        try:
            out, timed_out = _limited(lambda: op_fn(op), limit_s)
        except Exception as exc:  # a crash in the program is a failed op
            out, timed_out = ("failed", {"why": f"{type(exc).__name__}: {exc}"[:300]}), False
        latency = _now() - t0
        busy += latency
        if timed_out:
            status, info = "undecided", {"why": f"over the {limit_s} s limit"}
        else:
            status, info = out
        records.append({"status": status, "latency_s": latency, **info})
    samples.append(calib.sample(latency))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, samples, busy, peak


# --- cli ops ------------------------------------------------------------------------


def _tamper(cert_text):
    """Swap the sides of the last step, keeping its justification."""
    lines = cert_text.splitlines()
    k = max(i for i, line in enumerate(lines) if line.startswith("step "))
    head, _, just = lines[k].rpartition(" by ")
    _, _, rest = head.partition(" ")
    num, _, body = rest.partition(" ")
    lhs, _, rhs = body.partition(" = ")
    lines[k] = f"step {num} {rhs} = {lhs} by {just}"
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _run_child(cmd, env, limit_s, err_path):
    """(exit code, or None past the limit; stderr; the child's own peak
    RSS in MB).  `os.wait4` gives the RSS of this child alone, so the
    speed-sample spawns in between cannot set the `cli` peak."""
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
    out, timed_out = _limited(lambda: os.wait4(proc.pid, 0), limit_s)
    if timed_out:
        proc.kill()
        out = os.wait4(proc.pid, 0)
    _, status, usage = out
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    with open(err_path, encoding="utf-8") as fh:
        err_text = fh.read()
    return None if timed_out else proc.returncode, err_text, usage.ru_maxrss / 1024.0


def cli_op(op, i, tmp, certs, limit_s, trace_out):
    argv = list(op["argv"])
    files = []
    if "cert" in op:
        if op["cert"] not in certs:
            return "failed", {"why": "no certificate from the prove op"}, 0.0, 0.0
        files.append(certs[op["cert"]])
    for k, text in enumerate(op.get("inputs", ())):
        path = os.path.join(tmp, f"op{i}_{k}.txt")
        _write(path, text)
        files.append(path)
    cert_path = os.path.join(tmp, f"op{i}.cert")
    if argv[0] == "prove":
        argv += ["--cert", cert_path]
    if trace_out:
        cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), *argv, *files]
    else:
        cmd = [sys.executable, "-m", "dpbc.cli", *argv, *files]
    env = dict(os.environ)
    if trace_out:
        env["PERFBENCH_TRACE_OUT"] = trace_out
    t0 = _now()
    code, err, rss = _run_child(cmd, env, limit_s, os.path.join(tmp, f"op{i}.err"))
    latency = _now() - t0
    if code is None:
        return "undecided", {"why": f"over the {limit_s} s limit"}, latency, rss
    info = {}
    if op["family"] == "prove" and code == 0 and os.path.exists(cert_path):
        with open(cert_path, encoding="utf-8") as fh:
            text = fh.read()
        certs["good"] = cert_path
        bad = os.path.join(tmp, f"op{i}.bad.cert")
        _write(bad, _tamper(text))
        certs["tampered"] = bad
        info = {"cert_steps": sum(1 for ln in text.splitlines()
                                  if ln.startswith("step ")),
                "cert_bytes": len(text.encode("utf-8"))}
    if op["family"] == "verify":
        info["verify_s"] = latency
    crashed = "Traceback" in err
    if op.get("known_defect"):
        if crashed and "RecursionError" in err:
            info["why"] = "known defect: RecursionError traceback"
            return "undecided", info, latency, rss
        if not crashed and code in (op["expect"], 2):
            return "ok", info, latency, rss
    elif not crashed and code == op["expect"]:
        return "ok", info, latency, rss
    tail = err.strip().splitlines()[-1:] or [""]
    info["why"] = f"exit {code} (expected {op['expect']}): {tail[0][:200]}"
    return "failed", info, latency, rss


def run_cli(ops, limit_s, deadline_s, tmp, tracer):
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    samples = []
    busy = peak = 0.0
    certs = {}
    trace_out = os.path.join(tmp, "trace.json") if tracer is not None else None
    for i, op in enumerate(ops):
        if op["family"] == "prove":
            certs = {}
        if busy > deadline_s:
            samples.append([0, 0.0])
            records.append({"status": "undecided", "latency_s": None,
                            "why": "run deadline passed"})
            continue
        samples.append(calib.spawn_sample())
        status, info, latency, rss = cli_op(op, i, tmp, certs, limit_s, trace_out)
        busy += latency
        peak = max(peak, rss)
        if trace_out and os.path.exists(trace_out):
            with open(trace_out, encoding="utf-8") as fh:
                tracer.merge(json.load(fh))
            os.remove(trace_out)
        records.append({"status": status, "latency_s": latency, **info})
    samples.append(calib.spawn_sample())
    return records, samples, busy, peak


def _median_ms(cmd, reps=5):
    times = []
    for _ in range(reps):
        t0 = _now()
        subprocess.run(cmd, check=True, capture_output=True)
        times.append((_now() - t0) * 1000.0)
    times.sort()
    return times[len(times) // 2]


def startup_costs():
    """(interpreter ms, import-of-dpbc.cli ms beyond the interpreter)."""
    interp = _median_ms([sys.executable, "-c", "pass"])
    imported = _median_ms([sys.executable, "-c", "import dpbc.cli"])
    return interp, imported - interp


# --- main ---------------------------------------------------------------------------


def main():
    workload = sys.argv[1]
    if workload in ("decide", "prove"):
        import dpbc  # noqa: F401  (the package and all its layers)
    print("ready", flush=True)
    msg = json.loads(sys.stdin.readline())
    if msg is None:
        return
    tracer = None
    if msg["trace"]:
        import spans as tracing

        tracer = tracing.Tracer()
        if workload != "cli":
            tracing.install(tracer)
    if workload == "cli":
        records, samples, busy, peak = run_cli(
            msg["ops"], msg["limit_s"], msg["deadline_s"], msg["tmp"], tracer)
    else:
        op_fn = decide_op if workload == "decide" else prove_op
        records, samples, busy, peak = run_in_process(
            msg["ops"], op_fn, msg["limit_s"], msg["deadline_s"], tracer)
    out = {"records": records, "samples": samples,
           "unit_s": calib.SPAWN_S if workload == "cli" else calib.UNIT_S,
           "run_s": busy, "peak_rss_mb": peak}
    if tracer is not None:
        summary = tracer.summary()
        if workload == "cli":
            summary["counts"]["cli.interpreter_ms"], summary["counts"]["cli.import_ms"] = \
                startup_costs()
        out["trace"] = summary
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
