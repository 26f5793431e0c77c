"""Traced run: call hooks around rotordyn's modules, from outside ``src/``.

A hook replaces a function at every name its callers look it up by (module
globals and module-level dicts such as ``lab._MODEL_FNS``), so each call
goes through the hook.  Coarse boundaries (the op, each ``simulate_model``
call, each sweep cell, each CLI command) are kept as spans with name,
start, end and parent.  Every hook, coarse or not, adds to aggregated
count, total time and self time; self time is a call's duration minus the
time spent in hooked calls made from it on the same thread.

Hooks keep their call stack and aggregates per thread, because sweep cells
run on pool threads; nothing shared is written without the lock.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager

from rotordyn import cli, control, fast, integrators, kinematics, lab, models


class TraceError(Exception):
    """A hook could not be installed, never fired, or a count check failed."""


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "rotordyn" or name.startswith("rotordyn.")]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread_stats = []
        self.root = None
        self.spans = []
        self.counters = {}
        self.sites = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._thread_stats.append(state[1])
        return state

    def hook(self, name, fn, *, span=False, attrs=None, on_result=None):
        """Wrap ``fn``; ``attrs(*args, **kwargs)`` labels the call and
        ``on_result(result, attrs, counters)`` adds to counters."""
        perf = time.perf_counter

        def hooked(*args, **kwargs):
            stack, stats = self._state()
            labels = attrs(*args, **kwargs) if attrs else None
            frame = [0.0, next(self._ids) if span else None]
            parent = None
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1]),
                              self.root)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
            if span or on_result:
                with self._lock:
                    if span:
                        self.spans.append({
                            "id": frame[1], "name": name, "parent": parent,
                            "start": t0, "end": t1,
                            "thread": threading.get_ident(),
                            "attrs": labels})
                    if on_result:
                        on_result(result, labels, self.counters)
            return result

        return hooked

    @contextmanager
    def span(self, name):
        """The op span: root of every span recorded inside it."""
        stack, _ = self._state()
        sid = next(self._ids)
        self.root = sid
        stack.append([0.0, sid])
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({"id": sid, "name": name, "parent": None,
                                   "start": t0, "end": t1,
                                   "thread": threading.get_ident(),
                                   "attrs": None})

    def patch(self, name, owner, attr, scope=None, **kw):
        """Hook ``owner.attr`` at every rotordyn name bound to it (or only
        in the modules of ``scope``)."""
        original = getattr(owner, attr, None)
        if original is None:
            raise TraceError(f"hook {name}: {owner.__name__}.{attr} is gone")
        wrapper = self.hook(name, original, **kw)
        sites = []
        for mod in scope or _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    sites.append(f"{mod.__name__}.{key}")
                elif isinstance(value, dict) and key != "__builtins__":
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            sites.append(f"{mod.__name__}.{key}[{k!r}]")
        if not sites:
            raise TraceError(f"hook {name}: no caller binds "
                             f"{owner.__name__}.{attr}")
        self.sites.setdefault(name, []).extend(sites)

    def input_hook(self, fn):
        """The rotor input a workload hands to the program."""
        return self.hook("lab.input", fn)

    def export(self) -> dict:
        stats = {}
        with self._lock:
            for per_thread in self._thread_stats:
                for name, (calls, total, self_t) in per_thread.items():
                    acc = stats.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += calls
                    acc[1] += total
                    acc[2] += self_t
            return {"stats": stats, "counters": dict(self.counters),
                    "spans": list(self.spans), "sites": dict(self.sites)}


# -- what to hook ----------------------------------------------------------

def _count_simulate(traj, _labels, counters):
    counters["integrators.steps"] = (counters.get("integrators.steps", 0)
                                     + len(traj.times) - 1)
    counters["integrators.recorded_bytes"] = (
        counters.get("integrators.recorded_bytes", 0) + traj.states.nbytes)


def _count_rows(traj, labels, counters):
    counters.setdefault("lab.simulate_model.rows", []).append(
        [labels["dt"], len(traj.times)])


def _count_cell(result, _labels, counters):
    counters["control.cells_unstable"] = (
        counters.get("control.cells_unstable", 0) + int(result.diverged))


def _count_csv(_result, labels, counters):
    with open(labels["path"], "rb") as fh:
        data = fh.read()
    counters["cli.csv.rows"] = (counters.get("cli.csv.rows", 0)
                                + data.count(b"\n"))
    counters["cli.csv.bytes"] = counters.get("cli.csv.bytes", 0) + len(data)


def _install_lab(tracer):
    tracer.patch("fast.ne", fast, "ne_derivative_321")
    tracer.patch("models.mixer", models, "mixer")
    tracer.patch("models.body_to_gen", models, "body_to_gen")
    tracer.patch("integrators.simulate", integrators, "simulate",
                 on_result=_count_simulate)
    tracer.patch("lab.simulate_model", lab, "simulate_model", span=True,
                 attrs=lambda model, _fn, cfg, *a, **k: {"model": model,
                                                         "dt": cfg.dt},
                 on_result=_count_rows)


def _install_kinematics(tracer):
    tracer.patch("kinematics.rotation", kinematics, "rotation")
    tracer.patch("kinematics.w_matrix", kinematics, "w_matrix")


def _install_compare(tracer):
    _install_lab(tracer)
    tracer.patch("fast.el", fast, "el_lit_derivative_321")
    tracer.patch("fast.rel", fast, "rel_derivative_321")
    tracer.patch("lab.convert", lab, "_as_gen")
    tracer.patch("lab.rmse", lab, "rmse")
    _install_kinematics(tracer)


def _install_sweep(tracer):
    tracer.patch("fast.ne_rates", fast, "ne_rates_321", scope=[control])
    tracer.patch("control.cell", control, "run_tracking", span=True,
                 attrs=lambda comp, _spec, gains, *a, **k: {
                     "compensator": comp, "ki": gains.att_ki},
                 on_result=_count_cell)
    tracer.patch("control.outer_loop", control, "position_outer_loop",
                 scope=[control])
    tracer.patch("control.fl_pid", control, "attitude_fl_pid", scope=[control])
    tracer.patch("control.reference", control, "helix_reference",
                 scope=[control])
    tracer.patch("control.plant_step", control, "step_rk4", scope=[control])
    _install_kinematics(tracer)


def _install_cli(tracer):
    _install_lab(tracer)
    tracer.patch("lab.check_relations", lab, "check_relations")
    tracer.patch("cli.parse", cli, "parse_config")
    tracer.patch("cli.csv", cli, "_write_rows",
                 attrs=lambda _rows, path: {"path": path},
                 on_result=_count_csv)
    tracer.patch("cli.simulate", cli, "_cmd_simulate", span=True)
    tracer.patch("cli.verify", cli, "_cmd_verify", span=True)
    original = cli.RunConfig.input_fn

    def input_fn(cfg):
        return tracer.input_hook(original(cfg))
    cli.RunConfig.input_fn = input_fn
    tracer.sites["lab.input"] = ["cli.RunConfig.input_fn"]
    _install_kinematics(tracer)


INSTALL = {
    "open_loop_compare": _install_compare,
    "oracle_reference": _install_compare,
    "gain_sweep": _install_sweep,
    "cli_run": _install_cli,
}

# Hooks that must fire on every traced op of a workload.
EXPECTED = {
    "open_loop_compare": (
        "fast.ne", "fast.el", "fast.rel", "models.mixer",
        "models.body_to_gen", "integrators.simulate", "lab.input",
        "lab.simulate_model", "lab.convert", "lab.rmse",
        "kinematics.rotation", "kinematics.w_matrix"),
    "gain_sweep": (
        "fast.ne_rates", "control.cell", "control.outer_loop",
        "control.fl_pid", "control.reference", "control.plant_step",
        "kinematics.rotation", "kinematics.w_matrix"),
    "cli_run": (
        "fast.ne", "models.mixer", "models.body_to_gen",
        "integrators.simulate", "lab.input", "lab.simulate_model",
        "lab.check_relations", "cli.parse", "cli.csv", "cli.simulate",
        "cli.verify", "kinematics.rotation", "kinematics.w_matrix"),
}
EXPECTED["oracle_reference"] = EXPECTED["open_loop_compare"]


def install(tracer, workload: str):
    INSTALL[workload](tracer)


# -- per-layer metrics -----------------------------------------------------

# Metrics that are exact counts: equal on every traced op of one seed.
COUNTS = (
    "fast.ne.calls", "fast.el.calls", "fast.rel.calls", "fast.ne_rates.calls",
    "models.mixer.calls", "models.body_to_gen.rows", "integrators.steps",
    "integrators.evals_per_step", "integrators.recorded_mib",
    "lab.input.calls", "lab.reference_rows_used_ratio", "control.cells",
    "control.cells_unstable", "control.steps", "kinematics.rotation.calls",
    "kinematics.w_matrix.calls", "cli.csv.rows", "cli.csv.bytes",
)


def layer_metrics(op, trace: dict, wall: float, out: dict) -> dict:
    """Per-layer metrics of one traced op; raises TraceError when a hook
    never fired or an exact count does not hold."""
    stats = trace["stats"]
    counters = trace["counters"]
    spans = trace["spans"]
    silent = [h for h in EXPECTED[op.name] if h not in stats]
    if silent:
        raise TraceError(f"{op.name}: hooks never fired: {', '.join(silent)}")

    def calls(h):
        return stats.get(h, (0, 0.0, 0.0))[0]

    def total(h):
        return stats.get(h, (0, 0.0, 0.0))[1]

    def self_time(h):
        return stats.get(h, (0, 0.0, 0.0))[2]

    def us(h):
        return 1e6 * self_time(h) / calls(h) if calls(h) else 0.0

    m = {}
    kernels = ("ne", "el", "rel", "ne_rates")
    for k in kernels:
        m[f"fast.{k}.calls"] = calls(f"fast.{k}")
        m[f"fast.{k}.us"] = us(f"fast.{k}")
    m["fast.share"] = sum(self_time(f"fast.{k}") for k in kernels) / wall
    m["models.mixer.calls"] = calls("models.mixer")
    m["models.mixer.us"] = us("models.mixer")
    m["models.body_to_gen.rows"] = calls("models.body_to_gen")
    m["models.body_to_gen.us"] = us("models.body_to_gen")

    steps = counters.get("integrators.steps", 0)
    evals = sum(calls(f"fast.{k}") for k in ("ne", "el", "rel"))
    m["integrators.steps"] = steps
    m["integrators.evals_per_step"] = evals / steps if steps else 0.0
    m["integrators.self_us_per_step"] = (
        1e6 * self_time("integrators.simulate") / steps if steps else 0.0)
    m["integrators.recorded_mib"] = (
        counters.get("integrators.recorded_bytes", 0) / 2 ** 20)

    m["lab.input.calls"] = calls("lab.input")
    m["lab.input.us"] = us("lab.input")
    sims = [s for s in spans if s["name"] == "lab.simulate_model"]
    m["lab.reference_s"] = sum(s["end"] - s["start"] for s in sims
                               if s["attrs"]["dt"] < op.dt)
    m["lab.models_s"] = sum(s["end"] - s["start"] for s in sims
                            if s["attrs"]["dt"] >= op.dt)
    m["lab.convert_s"] = total("lab.convert")
    m["lab.rmse_s"] = total("lab.rmse")
    m["lab.check_relations_s"] = total("lab.check_relations")
    rows = counters.get("lab.simulate_model.rows", [])
    recorded = sum(n for dt, n in rows if dt < op.dt)
    scored = next((n for dt, n in rows if dt >= op.dt), 0)
    m["lab.reference_rows_used_ratio"] = scored / recorded if recorded else 0.0

    cells = sorted(s["end"] - s["start"] for s in spans
                   if s["name"] == "control.cell")
    m["control.cells"] = len(cells)
    m["control.cells_unstable"] = counters.get("control.cells_unstable", 0)
    m["control.steps"] = calls("control.plant_step")
    m["control.cell_s.p50"] = statistics.median(cells) if cells else 0.0
    m["control.cell_s.max"] = cells[-1] if cells else 0.0
    m["control.threads"] = len({s["thread"] for s in spans
                                if s["name"] == "control.cell"})
    m["control.concurrency"] = sum(cells) / wall
    for key, hook in (("outer_loop", "control.outer_loop"),
                      ("fl_pid", "control.fl_pid"),
                      ("reference", "control.reference"),
                      ("plant_step", "control.plant_step")):
        m[f"control.{key}.us"] = us(hook)

    for k in ("rotation", "w_matrix"):
        m[f"kinematics.{k}.calls"] = calls(f"kinematics.{k}")
        m[f"kinematics.{k}.us"] = us(f"kinematics.{k}")

    m["cli.parse_s"] = total("cli.parse")
    m["cli.csv.rows"] = counters.get("cli.csv.rows", 0)
    m["cli.csv.bytes"] = counters.get("cli.csv.bytes", 0)
    m["cli.csv_s"] = total("cli.csv")

    _check_counts(op, m, out)
    return m


def _check_counts(op, m, out):
    problems = []
    evals = m["fast.ne.calls"] + m["fast.el.calls"] + m["fast.rel.calls"]
    steps = m["integrators.steps"]
    if evals != 4 * steps:
        problems.append(f"fast.{{ne,el,rel}}.calls = {evals}, "
                        f"4 x integrators.steps = {4 * steps}")
    if m["lab.input.calls"] != evals or m["models.mixer.calls"] != evals:
        problems.append(f"lab.input.calls {m['lab.input.calls']} and "
                        f"models.mixer.calls {m['models.mixer.calls']} "
                        f"differ from derivative evaluations {evals}")
    if m["fast.ne_rates.calls"] != 4 * m["control.steps"]:
        problems.append(f"fast.ne_rates.calls = {m['fast.ne_rates.calls']}, "
                        f"4 x control.steps = {4 * m['control.steps']}")
    if op.name == "gain_sweep":
        unstable = sum(1 for row in out["rows"] if not row[2])
        if m["control.cells_unstable"] != unstable:
            problems.append(f"control.cells_unstable = "
                            f"{m['control.cells_unstable']}, the sweep report "
                            f"has {unstable}")
        if m["control.cells"] != len(out["rows"]):
            problems.append(f"control.cells = {m['control.cells']}, the sweep "
                            f"report has {len(out['rows'])} rows")
        if m["control.steps"] != op.steps():
            problems.append(f"control.steps = {m['control.steps']}, "
                            f"run_tracking per cell takes {op.steps()}")
    elif steps != op.steps():
        problems.append(f"integrators.steps = {steps}, the config gives "
                        f"{op.steps()}")
    if problems:
        raise TraceError(f"{op.name}: " + "; ".join(problems))
