"""Command-line entry point: config parsing, experiment dispatch, CSV output.

Subcommands: simulate, compare, oracle, verify, track, sweep, run (reads
the command from the config file).  All experiments are reproducible from
a config file; flags override config values.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace

from . import control, integrators, lab
from .lab import ComparisonConfig
from .models import QuadParams

COMMANDS = ("simulate", "compare", "oracle", "verify", "track", "sweep")

TRAJECTORY_HEADER = ["t", "x", "y", "z", "phi", "theta", "psi",
                     "xd", "yd", "zd", "phid", "thetad", "psid"]

ERROR_HEADER = ["t", "e_phi", "e_theta", "e_psi"]


class ConfigError(Exception):
    """Config file could not be parsed or validated."""


@dataclass
class RunConfig:
    """Validated, defaults-applied experiment configuration."""

    command: str = ""
    model: str = "ne"
    dt: float = 0.01
    duration: float = 60.0
    integrator: str = "rk4"
    seed: int = 0
    samples: int = 1000
    tol: float = 1e-9
    out: str = ""
    compensator: str = "rel"
    params: QuadParams = field(default_factory=QuadParams)
    gains: control.Gains = field(default_factory=control.Gains)
    helix: control.HelixSpec = field(default_factory=control.HelixSpec)
    input_preset: str = "drifting"
    input_base: tuple = lab.DRIFTING_BASE
    input_amp: tuple = lab.DRIFTING_AMP
    input_freq: float = lab.DRIFTING_FREQ
    ki_grid: tuple = control.DEFAULT_KI_GRID
    compensators: tuple = ("el", "rel")
    config_keys: tuple = ()   # the (section, key) pairs the file set

    def input_fn(self):
        """``lab.rotor_input`` of the [input] settings (default: drifting)."""
        return lab.rotor_input(self.input_base, self.input_amp,
                               self.input_freq)

    def comparison(self) -> ComparisonConfig:
        return ComparisonConfig(dt=self.dt, duration=self.duration,
                                integrator=self.integrator, params=self.params)

    def echo(self) -> str:
        """The command and the fields it reads, with their values, then the
        config keys it does not read, if any."""
        used = ("command",) + READS[self.command]
        lines = ["effective config:"] + [
            f"  {f.name} = {getattr(self, f.name)}" for f in fields(self)
            if f.name in used]
        param_keys = PARAMS_READ.get(self.command, _SECTIONS["params"])
        ignored = [f"[{s}] {k}" for s, k in self.config_keys
                   if _field(s, k) not in used
                   or s == "params" and k not in param_keys]
        if ignored:
            lines.append(f"  ignored: {', '.join(ignored)}")
        return "\n".join(lines)


def _field(section: str, key: str) -> str:
    """The RunConfig field a config key sets."""
    if section in ("params", "gains", "helix"):
        return section
    return f"input_{key}" if section == "input" else key


# The RunConfig fields each command reads
_OPEN_LOOP = ("dt", "duration", "integrator", "out", "params", "input_preset",
              "input_base", "input_amp", "input_freq")
_CLOSED_LOOP = ("dt", "duration", "integrator", "out", "params", "gains",
                "helix")
READS = {"simulate": ("model",) + _OPEN_LOOP, "compare": _OPEN_LOOP,
         "oracle": _OPEN_LOOP, "verify": ("seed", "samples", "tol", "params"),
         "track": ("compensator",) + _CLOSED_LOOP,
         "sweep": ("ki_grid", "compensators") + _CLOSED_LOOP}
# The [params] keys read where not all are: the closed loop commands the
# wrench, so it reads no rotor key, and verify reads only the inertia
_RIGID_BODY = ("mass", "jx", "jy", "jz", "gravity")
PARAMS_READ = {"verify": ("jx", "jy", "jz"), "track": _RIGID_BODY,
               "sweep": _RIGID_BODY}


def _parse_sections(text: str):
    """Key-value sections, each value with its line; raises ConfigError on
    malformed lines or duplicate keys."""
    sections: dict[str, dict[str, tuple[str, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, f"line {lineno}")
    return sections


# Converters: each parses one value string and checks it, raising
# ValueError with the reason.  Config keys and flags share them.

def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError("cannot parse as float") from None
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("cannot parse as int") from None


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError("cannot parse as bool") from None


def _above(conv, low, strict=True):
    """``conv``, then require a value > low (>= low if not strict)."""
    def check(text):
        value = conv(text)
        if value < low or (strict and value == low):
            raise ValueError(f"must be {'>' if strict else '>='} {low}")
        return value
    return check


def _choice(*options):
    def check(text):
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text
    return check


def _list(conv, n=None):
    """Comma-separated values, each through ``conv``; ``n`` fixes the count."""
    def check(text):
        items = tuple(conv(item.strip()) for item in text.split(","))
        if n is not None and len(items) != n:
            raise ValueError(f"needs {n} entries, got {len(items)}")
        return items
    return check


_SECTIONS = {
    "run": {
        "command": _choice(*COMMANDS), "model": _choice("ne", "el", "rel"),
        "dt": _above(_float, 0), "duration": _above(_float, 0),
        "integrator": _choice("rk4"), "out": str,
        "seed": _above(_int, 0, strict=False), "samples": _above(_int, 0),
        "tol": _above(_float, 0), "compensator": _choice("el", "rel"),
    },
    "params": {
        **{k: _float for k in ("mass", "jx", "jy", "jz", "gravity", "arm",
                               "thrust_coeff", "drag_coeff", "rotor_inertia")},
        "gyro": _bool,
    },
    "gains": {k: _float for k in
              ("pos_kp", "pos_kd", "att_kp", "att_ki", "att_kd")},
    "helix": {"radius": _float, "rate": _float, "climb": _float,
              "yaw": _float, "yaw_mode": str},
    "input": {"preset": _choice("drifting", "custom"),
              "base": _list(_float, 4), "amp": _list(_float, 4),
              "freq": _float},
    "sweep": {"ki_grid": _list(_above(_float, 0, strict=False)),
              "compensators": _list(_choice("el", "rel"))},
}

# Flags that set a [run] key, through the same converters
_FLAGS = ("out", "seed", "dt", "duration")


def _take(section: dict, known: dict, section_name: str) -> dict:
    """Convert each ``key: (value, where)`` entry with its converter."""
    out = {}
    for key, (value, where) in section.items():
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r} in [{section_name}]")
        try:
            out[key] = known[key](value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key} = {value!r}: {exc}") from None
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file into a RunConfig."""
    sections = _parse_sections(text)
    for name in sections:
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    got = {name: _take(sections.get(name, {}), known, name)
           for name, known in _SECTIONS.items()}
    if got["input"].keys() & {"base", "amp", "freq"}:
        if got["input"].setdefault("preset", "custom") == "drifting":
            raise ConfigError("[input]: preset = drifting takes no base, amp "
                              "or freq; use preset = custom")
    cfg = RunConfig(**got["run"], **got["sweep"],
                    **{f"input_{k}": v for k, v in got["input"].items()},
                    config_keys=tuple((name, key) for name, keys
                                      in sections.items() for key in keys))
    if "gyro" in got["params"]:
        got["params"]["gyro_enabled"] = got["params"].pop("gyro")
    for name, cls in (("params", QuadParams), ("gains", control.Gains),
                      ("helix", control.HelixSpec)):
        try:
            setattr(cfg, name, cls(**got[name]))
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None
    return cfg


def _write_rows(rows, path: str):
    """Stream rows of CSV fields, each already a string (floats as their
    repr, formatted once), to ``path``, one line per row as it arrives."""
    try:
        with open(path, "w", newline="") as fh:
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}")


def _write_series(header, times, values, path: str):
    """Time series as CSV: the header, then t and one vector per row."""
    def rows():
        yield header
        for t, v in zip(times.tolist(), values):
            yield [repr(t), *map(repr, v.tolist())]
    _write_rows(rows(), path)


def _cmd_simulate(cfg: RunConfig) -> int:
    traj = lab.simulate_model(cfg.model, cfg.input_fn(), cfg.comparison())
    if cfg.model == "ne":
        traj = lab._as_gen(traj)
    if traj.diverged:
        print(f"diverged at step {traj.diverged_step}: {traj.diverged_reason}")
    if cfg.out:
        _write_series(TRAJECTORY_HEADER, traj.times, traj.states, cfg.out)
        print(f"wrote {len(traj)} samples to {cfg.out}")
    return 0


def _cmd_table(cfg: RunConfig) -> int:
    """compare: both E-L variants against Newton-Euler; oracle: all three
    models against the refined-step reference."""
    run = (lab.run_model_comparison if cfg.command == "compare"
           else lab.run_oracle_comparison)
    table = run(cfg.comparison(), cfg.input_fn())
    print(table.format_text())
    if cfg.out:
        _write_rows(table.csv_rows(), cfg.out)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    report = lab.check_relations(cfg.samples, cfg.seed, cfg.tol)
    print(report.format_text())
    proof = lab.check_proof_chain([0.3, 0.4, 0.5], [0.1, -0.2, 0.3],
                                  [0.01, 0.02, 0.03], cfg.params)
    print(proof.format_text())
    ok = (report.passed and proof.literature_residual > 1e-3
          and max(proof.coriolis_residual, proof.newton_euler_residual) < cfg.tol)
    print("verify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_track(cfg: RunConfig) -> int:
    result = control.run_tracking(cfg.compensator, cfg.helix, cfg.gains,
                                  cfg.params, cfg.dt)
    status = "diverged: " + result.diverged_reason if result.diverged else "tracked"
    print(f"{cfg.compensator} compensator: {status}, "
          f"max|e_eta| = {result.max_error:.4e}")
    if cfg.out:
        _write_series(ERROR_HEADER, result.times, result.attitude_error,
                      cfg.out)
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    report = control.gain_sweep(cfg.compensators, cfg.ki_grid, cfg.gains,
                                cfg.helix, cfg.params, cfg.dt)
    print(report.format_text())
    if cfg.out:
        _write_rows(report.csv_rows(), cfg.out)
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "compare": _cmd_table,
    "oracle": _cmd_table,
    "verify": _cmd_verify,
    "track": _cmd_track,
    "sweep": _cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotordyn", allow_abbrev=False,
        description="Multirotor dynamics models, equivalence checks and "
                    "control experiments")
    parser.add_argument("command", nargs="?", choices=COMMANDS + ("run",),
                        help="experiment to run ('run' takes it from the config)")
    parser.add_argument("--config", help="path to config file")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", help="sampling seed")
    parser.add_argument("--dt", help="integration step [s]")
    parser.add_argument("--duration", help="simulated time [s]")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}")
            cfg = parse_config(text)
        else:
            cfg = RunConfig()
        if args.command and args.command != "run":
            cfg.command = args.command
        if not cfg.command:
            raise ConfigError("no command given (flag or [run] command = ...)")
        flags = {name: (value, f"--{name}") for name in _FLAGS
                 if (value := getattr(args, name)) is not None}
        for name in flags:
            if name not in READS[cfg.command]:
                raise ConfigError(f"--{name}: {cfg.command} does not read it")
        cfg = replace(cfg, **_take(flags, _SECTIONS["run"], "run"))
        if "duration" in READS[cfg.command]:
            try:
                integrators.step_count(cfg.duration, cfg.dt)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if cfg.command in ("track", "sweep"):
            # the closed loop commands the wrench: no rotor gyroscopic torque
            cfg.params = cfg.params.with_gyro(False)
            cfg.helix = replace(cfg.helix, duration=cfg.duration)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(cfg.echo())
    try:
        return _DISPATCH[cfg.command](cfg)
    except (ConfigError, control.InfeasibleAttitude, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
