"""Command-line entry point: config parsing, experiment dispatch, CSV output.

Subcommands: simulate, compare, oracle, verify, track, sweep, run (reads
the command from the config file).  All experiments are reproducible from
a config file; flags override config values.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import control, lab
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
    input_base: tuple = (475.9, 476.2, 476.0, 476.1)
    input_amp: tuple = (0.1, 0.1, 0.0, 0.0)
    input_freq: float = 1.0
    ki_grid: tuple = control.DEFAULT_KI_GRID
    compensators: tuple = ("el", "rel")

    def input_fn(self):
        if self.input_preset == "drifting":
            return lab.drifting_rotor_input
        base = np.array(self.input_base)
        amp = np.array(self.input_amp)
        freq = self.input_freq

        def custom(t):
            return base + amp * math.sin(freq * t)
        return custom

    def echo(self) -> str:
        lines = ["effective config:"]
        for f in fields(self):
            lines.append(f"  {f.name} = {getattr(self, f.name)}")
        return "\n".join(lines)


def _parse_sections(text: str):
    """Key-value sections with line numbers; raises ConfigError on malformed
    lines or duplicate keys."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
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
        sections[current][key] = (value, lineno)
    return sections


def _conv(value: str, lineno: int, kind, key: str):
    try:
        if kind is bool:
            if value.lower() in ("true", "yes", "on", "1"):
                return True
            if value.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(value)
        if kind is tuple:
            return tuple(float(v) for v in value.split(","))
        return kind(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse {key} = {value!r} as {kind.__name__}")


_RUN_KEYS = {
    "command": str, "model": str, "dt": float, "duration": float,
    "integrator": str, "seed": int, "samples": int, "tol": float,
    "out": str, "compensator": str,
}
_PARAM_KEYS = {
    "mass": float, "jx": float, "jy": float, "jz": float, "gravity": float,
    "arm": float, "thrust_coeff": float, "drag_coeff": float,
    "rotor_inertia": float, "gyro": bool,
}
_GAIN_KEYS = {k: float for k in
              ("pos_kp", "pos_ki", "pos_kd", "att_kp", "att_ki", "att_kd")}
_HELIX_KEYS = {"radius": float, "rate": float, "climb": float,
               "yaw": float, "yaw_mode": str, "duration": float}
_INPUT_KEYS = {"preset": str, "base": tuple, "amp": tuple, "freq": float}
_SWEEP_KEYS = {"ki_grid": tuple, "compensators": str}


def _take(section: dict, known: dict, section_name: str):
    out = {}
    for key, (value, lineno) in section.items():
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section_name}]")
        out[key] = _conv(value, lineno, known[key], key)
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file into a RunConfig."""
    sections = _parse_sections(text)
    known_sections = {"run", "params", "gains", "helix", "input", "sweep"}
    for name in sections:
        if name not in known_sections:
            raise ConfigError(f"unknown section [{name}]")

    cfg = RunConfig()
    run = _take(sections.get("run", {}), _RUN_KEYS, "run")
    for key, value in run.items():
        setattr(cfg, key, value)

    pk = _take(sections.get("params", {}), _PARAM_KEYS, "params")
    if "gyro" in pk:
        pk["gyro_enabled"] = pk.pop("gyro")
    try:
        cfg.params = QuadParams(**pk)
    except ValueError as exc:
        raise ConfigError(f"[params]: {exc}")

    gk = _take(sections.get("gains", {}), _GAIN_KEYS, "gains")
    try:
        cfg.gains = control.Gains(**gk)
    except ValueError as exc:
        raise ConfigError(f"[gains]: {exc}")

    hk = _take(sections.get("helix", {}), _HELIX_KEYS, "helix")
    try:
        cfg.helix = control.HelixSpec(**hk)
    except ValueError as exc:
        raise ConfigError(f"[helix]: {exc}")

    ik = _take(sections.get("input", {}), _INPUT_KEYS, "input")
    cfg.input_preset = ik.get("preset", cfg.input_preset)
    if cfg.input_preset not in ("drifting", "custom"):
        raise ConfigError(f"[input]: preset must be drifting or custom, "
                          f"got {cfg.input_preset!r}")
    if "base" in ik:
        cfg.input_base = ik["base"]
    if "amp" in ik:
        cfg.input_amp = ik["amp"]
    if "freq" in ik:
        cfg.input_freq = ik["freq"]
    if len(cfg.input_base) != 4 or len(cfg.input_amp) != 4:
        raise ConfigError("[input]: base and amp need four entries")

    sk = _take(sections.get("sweep", {}), _SWEEP_KEYS, "sweep")
    if "ki_grid" in sk:
        cfg.ki_grid = sk["ki_grid"]
    if "compensators" in sk:
        cfg.compensators = tuple(s.strip() for s in sk["compensators"].split(","))

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.command and cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}, "
                          f"expected one of {', '.join(COMMANDS)}")
    if cfg.dt <= 0:
        raise ConfigError(f"dt must be positive, got {cfg.dt}")
    if cfg.duration <= 0:
        raise ConfigError(f"duration must be positive, got {cfg.duration}")
    if cfg.integrator not in ("euler", "rk4"):
        raise ConfigError(f"integrator must be euler or rk4, got {cfg.integrator!r}")
    if cfg.model not in ("ne", "el", "rel"):
        raise ConfigError(f"model must be ne, el or rel, got {cfg.model!r}")
    if cfg.compensator not in ("el", "rel"):
        raise ConfigError(f"compensator must be el or rel, got {cfg.compensator!r}")
    if cfg.samples <= 0:
        raise ConfigError(f"samples must be positive, got {cfg.samples}")
    if not cfg.ki_grid:
        raise ConfigError("ki_grid must be nonempty")
    for comp in cfg.compensators:
        if comp not in ("el", "rel"):
            raise ConfigError(f"unknown compensator {comp!r} in sweep list")


def _write_rows(rows, path: str):
    try:
        with open(path, "w", newline="") as fh:
            for row in rows:
                fh.write(",".join(str(c) for c in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}")


def emit_trajectory_csv(traj, path: str):
    """Trajectory as CSV with the documented 13-column layout."""
    def rows():
        yield TRAJECTORY_HEADER
        for t, s in zip(traj.times, traj.states):
            yield [repr(float(t))] + [repr(float(v)) for v in s]
    _write_rows(rows(), path)


def emit_table_csv(table, path: str):
    _write_rows(table.csv_rows(), path)


def emit_tracking_csv(result, path: str):
    def rows():
        yield ERROR_HEADER
        for t, e in zip(result.times, result.attitude_error):
            yield [repr(float(t))] + [repr(float(v)) for v in e]
    _write_rows(rows(), path)


def _cmd_simulate(cfg: RunConfig) -> int:
    comparison = ComparisonConfig(dt=cfg.dt, duration=cfg.duration,
                                  integrator=cfg.integrator, params=cfg.params)
    traj = lab.simulate_model(cfg.model, cfg.input_fn(), comparison)
    if cfg.model == "ne":
        traj = lab._as_gen(traj)
    if traj.diverged:
        print(f"diverged at step {traj.diverged_step}: {traj.diverged_reason}")
    if cfg.out:
        emit_trajectory_csv(traj, cfg.out)
        print(f"wrote {len(traj)} samples to {cfg.out}")
    return 0


def _cmd_compare(cfg: RunConfig) -> int:
    table = lab.run_model_comparison(
        ComparisonConfig(dt=cfg.dt, duration=cfg.duration,
                         integrator=cfg.integrator, params=cfg.params),
        cfg.input_fn())
    print(table.format_text())
    if cfg.out:
        emit_table_csv(table, cfg.out)
    return 0


def _cmd_oracle(cfg: RunConfig) -> int:
    table = lab.run_oracle_comparison(
        ComparisonConfig(dt=cfg.dt, duration=cfg.duration,
                         integrator=cfg.integrator, params=cfg.params),
        cfg.input_fn())
    print(table.format_text())
    if cfg.out:
        emit_table_csv(table, cfg.out)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    report = lab.check_relations(cfg.samples, cfg.seed, cfg.tol)
    print(report.format_text())
    proof = lab.check_proof_chain([0.3, 0.4, 0.5], [0.1, -0.2, 0.3],
                                  [0.01, 0.02, 0.03], cfg.params)
    print(proof.format_text())
    ok = (report.passed and proof.newton_euler_residual < cfg.tol
          and proof.literature_residual > 1e-3)
    print("verify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_track(cfg: RunConfig) -> int:
    result = control.run_tracking(cfg.compensator, cfg.helix, cfg.gains,
                                  cfg.params, cfg.dt)
    status = "diverged: " + result.diverged_reason if result.diverged else "tracked"
    print(f"{cfg.compensator} compensator: {status}, "
          f"max|e_eta| = {result.max_error:.4e}")
    if cfg.out:
        emit_tracking_csv(result, cfg.out)
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
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "track": _cmd_track,
    "sweep": _cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotordyn",
        description="Multirotor dynamics models, equivalence checks and "
                    "control experiments")
    parser.add_argument("command", nargs="?", choices=COMMANDS + ("run",),
                        help="experiment to run ('run' takes it from the config)")
    parser.add_argument("--config", help="path to config file")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", type=int, help="sampling seed")
    parser.add_argument("--dt", type=float, help="integration step [s]")
    parser.add_argument("--duration", type=float, help="simulated time [s]")
    parser.add_argument("--integrator", choices=("euler", "rk4"))
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
        for name in ("out", "seed", "dt", "duration", "integrator"):
            value = getattr(args, name)
            if value is not None:
                setattr(cfg, name, value)
        if not cfg.command:
            raise ConfigError("no command given (flag or [run] command = ...)")
        _validate(cfg)
        if cfg.command in ("track", "sweep"):
            # the closed loop commands the wrench: no rotor gyroscopic torque
            cfg.params = cfg.params.with_gyro(False)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(cfg.echo())
    try:
        return _DISPATCH[cfg.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
