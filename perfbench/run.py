"""rotordyn benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  One caller issues one op after the previous one finished
(closed loop, one client).  Each op runs in a process forked from a
prepared parent, so every op starts from the same state and its peak
resident memory is its own.  Times are scaled to a fixed machine speed
with ``calibration.py`` (see README.md).  The untraced run (``--trace 0``)
prints the end-to-end metrics; the traced run (``--trace 1``) alternates
untraced and traced ops and prints the per-layer metrics.  Every op's output is
checked; an op that raises or fails a check counts as failed and the run
carries on.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

START = time.perf_counter()     # set-up time counts from here

import argparse
import gc
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_OPS = 11           # wall_s_tail needs ten samples beyond it
SETUP_PROBES = 8       # fresh interpreters timed besides this one
OP_TIMEOUT_S = 60.0
MEASURE_LIMIT_S = 120.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import the checkout's rotordyn and the harness modules on it."""
    if not (SRC / "rotordyn" / "__init__.py").is_file():
        raise SystemExit(f"no rotordyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rotordyn
    if Path(rotordyn.__file__).resolve().parent != SRC / "rotordyn":
        raise SystemExit(f"imported rotordyn from {rotordyn.__file__}, "
                         f"not from {SRC}")
    import tracing
    import workloads
    return workloads, tracing


def environment(workloads) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            **workloads.thread_setting()}


def speed_scale() -> float:
    """Calibration reference time over the median of three measurements."""
    return calibration.REF_S / statistics.median(
        calibration.measure() for _ in range(3))


def run_forked(fn, timeout: float) -> dict:
    """Run ``fn()`` in a forked child; return its JSON payload, or
    ``{"error": ...}`` when it raised, crashed or timed out."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                data = json.dumps(fn())
            except BaseException:
                data = json.dumps({"error": traceback.format_exc()})
            with os.fdopen(w, "w") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(w)
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                return {"error": f"op timed out after {timeout:.0f} s"}
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        _, status = os.waitpid(pid, 0)
    if not chunks:
        return {"error": f"op process ended with status {status} and no "
                         f"result"}
    return json.loads(b"".join(chunks))


def one_op(op, tracing, traced: bool):
    """Body of an op's child process."""
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer, op.name)
    cal = [calibration.measure()]
    t0 = time.perf_counter()
    if tracer:
        with tracer.span("op"):
            raw = op.run(tracer)
    else:
        raw = op.run()
    wall = time.perf_counter() - t0
    cal.append(calibration.measure())
    payload = {"wall": wall, "cal": cal,
               "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "out": op.summarize(raw)}
    if tracer:
        payload["trace"] = tracer.export()
    return payload


def setup_probe_times(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh interpreters, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(n):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def tail(walls):
    """The highest percentile with at least ten samples beyond it: the
    11th-largest wall, with its percentile rank."""
    ordered = sorted(walls)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (n - 10) / n if n > 10 else 0.0


def measure(args, op, tracing):
    """Closed loop of forked ops for ``args.seconds``; traced runs
    alternate untraced and traced ops."""
    results = []
    start = time.perf_counter()
    first_out = None
    while True:
        elapsed = time.perf_counter() - start
        plain = [r for r in results if not r["traced"]]
        traced = [r for r in results if r["traced"]]
        enough = len(results) >= MIN_OPS if not args.trace else (
            len(plain) >= 2 and len(traced) >= 2)
        if (elapsed >= args.seconds and enough) or elapsed >= MEASURE_LIMIT_S:
            break
        is_traced = bool(args.trace) and len(results) % 2 == 1
        res = run_forked(lambda: one_op(op, tracing, is_traced), OP_TIMEOUT_S)
        res["traced"] = is_traced
        if "error" not in res:
            problems = op.check(res["out"])
            if first_out is None:
                first_out = res["out"]
            elif res["out"] != first_out:
                problems.append("output differs from the first op's output")
            if problems:
                res["error"] = "; ".join(problems)
        if "error" in res:
            print(f"op {len(results)} failed: {res['error']}", file=sys.stderr)
        results.append(res)
    return results


def end_to_end(results, op, setup_times):
    ok = [r for r in results if "error" not in r]
    if not ok:
        raise SystemExit(f"{op.name}: all {len(results)} ops failed")
    raw = statistics.median(r["wall"] for r in ok)
    cal = statistics.median(c for r in ok for c in r["cal"])
    # Each op is scaled by the calibrations taken just before and after it:
    # the host's speed drifts within a run, and the slow ops that make up
    # the tail are the ones a run-wide scale would leave unscaled.
    walls = [r["wall"] * calibration.REF_S / statistics.fmean(r["cal"])
             for r in ok]
    wall_s = statistics.median(walls)
    tail_s, pct = tail(walls)
    failed = len(results) - len(ok)
    values = {
        "wall_s": wall_s,
        "wall_s_tail": tail_s,
        "steps_per_s": op.steps() / wall_s,
        "peak_rss_mib": statistics.median(r["rss_kib"] for r in ok) / 1024.0,
        "setup_s": statistics.median(setup_times),
        "success_ratio": len(ok) / len(results),
    }
    notes = {"wall_s": f"unscaled {raw:.6g} s, calibration {cal:.6g} s",
             "wall_s_tail": f"p{pct:.1f} of {len(ok)} ops",
             "setup_s": f"median of {len(setup_times)} set-ups",
             "success_ratio": f"failed_ratio = {failed / len(results):.4f}",
             "steps_per_s": f"{op.steps()} steps per op"}
    return values, notes


def per_layer(results, op, tracing):
    plain = [r["wall"] for r in results
             if not r["traced"] and "error" not in r]
    traced = [r for r in results if r["traced"] and "error" not in r]
    if not plain or len(traced) < 2:
        raise tracing.TraceError("fewer than two traced and one untraced "
                                 "op succeeded")
    per_op = [tracing.layer_metrics(op, r["trace"], r["wall"], r["out"])
              for r in traced]
    values = {}
    for name in per_op[0]:
        series = [m[name] for m in per_op]
        if name in tracing.COUNTS:
            if len(set(series)) != 1:
                raise tracing.TraceError(
                    f"{op.name}: {name} differs between traced ops: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    values["trace.overhead"] = (statistics.median(r["wall"] for r in traced)
                                / statistics.median(plain))
    notes = {"trace.overhead": f"{len(traced)} traced vs {len(plain)} "
                               f"untraced ops"}
    return values, notes


def write_spans(args, results, env):
    spans = [{"op": i, "spans": r["trace"]["spans"],
              "sites": r["trace"]["sites"]}
             for i, r in enumerate(results) if r.get("trace")]
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"env": env, "ops": spans}))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the op, its threads and the calibration (README: Timing).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, tracing = load_program()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        op = workloads.make(args.workload, args.seed, workdir)
        op.warm_up()
        setup = (time.perf_counter() - START) * speed_scale()
        if args.setup_probe:
            print(repr(setup))
            return 0
        if not args.trace:
            setup_times = [setup] + setup_probe_times(args, SETUP_PROBES)
        env = environment(workloads)
        op.steps()          # the sweep's per-cell reference, untimed
        # Ops then never scan the parent's objects, so their pages stay shared.
        gc.collect()
        gc.freeze()
        results = measure(args, op, tracing)
        if args.trace:
            values, notes = per_layer(results, op, tracing)
            names = benchmark["per_layer"]
            print(f"spans written to {write_spans(args, results, env)}")
        else:
            values, notes = end_to_end(results, op, setup_times)
            names = benchmark["end_to_end"]
    except tracing.TraceError as exc:
        print(f"trace check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for spec in names:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = notes.get(spec["name"], "")
        print(f"{args.workload} {spec['name']} = {value:.6g} {spec['unit']}"
              + (f"  ({note})" if note else ""))
    failed = sum(1 for r in results if "error" in r)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
