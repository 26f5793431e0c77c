"""The program structure the benchmark's traced run pins.

``perfbench/tracing.py`` hooks rotordyn functions by name and checks exact
counts (derivative evaluations = 4 x RK4 steps, input and mixer calls =
evaluations, closed-loop ``ne_rates`` calls = 4 x plant steps, unstable
sweep cells).  Each workload runs here at a short duration, traced, in a
fresh interpreter, so a change that breaks ``perfbench/run.py --trace 1``
fails the test suite.  Nothing under ``perfbench/`` is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys, time
from pathlib import Path
import tracing, workloads

name, tmp = sys.argv[1], Path(sys.argv[2])
op = {
    "open_loop_compare": lambda: workloads.OpenLoopCompare(3, duration=0.2),
    "oracle_reference": lambda: workloads.OracleReference(3, duration=0.05),
    "gain_sweep": lambda: workloads.GainSweep(3, duration=0.05),
    "cli_run": lambda: workloads.CliRun(3, tmp, duration=0.2, samples=20),
}[name]()
steps = op.steps()      # before the hooks: GainSweep runs its cells here
tracer = tracing.Tracer()
tracing.install(tracer, op.name)
t0 = time.perf_counter()
with tracer.span("op"):
    raw = op.run(tracer)
wall = time.perf_counter() - t0
m = tracing.layer_metrics(op, tracer.export(), wall, op.summarize(raw))
print(json.dumps({"steps": steps, **m}))
"""


@pytest.mark.parametrize("workload", ["open_loop_compare", "oracle_reference",
                                      "gain_sweep", "cli_run"])
def test_traced_workload_keeps_its_exact_counts(workload, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, workload,
                           str(tmp_path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout.splitlines()[-1])
    if workload == "gain_sweep":
        assert m["control.steps"] == m["steps"] > 0
        assert m["fast.ne_rates.calls"] == 4 * m["control.steps"]
    else:
        assert m["integrators.steps"] == m["steps"] > 0
        assert m["integrators.evals_per_step"] == 4.0
