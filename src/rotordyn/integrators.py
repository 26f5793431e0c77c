"""Fixed-step explicit integrators with trajectory recording.

Derivative functions have signature f(t, y) -> dy/dt over flat numpy
state vectors and may raise SingularConfiguration; ``simulate`` turns
that (and NaN/Inf or runaway states) into a Diverged marker on the
returned trajectory rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import SingularConfiguration

DIVERGENCE_LIMIT = 1e9


@dataclass
class Trajectory:
    """Uniformly sampled states: times[i] = i * dt, states[i] = y(times[i])."""

    dt: float
    times: np.ndarray
    states: np.ndarray
    diverged: bool = False
    diverged_step: int | None = None
    diverged_reason: str = ""

    def __len__(self) -> int:
        return len(self.times)


def step_euler(f, y, t, dt):
    """One forward-Euler step."""
    return y + dt * f(t, y)


def step_rk4(f, y, t, dt):
    """One classical fourth-order Runge-Kutta step."""
    half = 0.5 * dt
    k1 = f(t, y)
    k2 = f(t + half, y + half * k1)
    k3 = f(t + half, y + half * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {"euler": step_euler, "rk4": step_rk4}


def _bad(y) -> bool:
    """True for a NaN, an infinite or a runaway (> DIVERGENCE_LIMIT) entry;
    NaN fails the comparison, so one reduction covers all three."""
    return not (np.abs(y).max() <= DIVERGENCE_LIMIT)


def simulate(f, y0, t_final, dt, method: str = "rk4") -> Trajectory:
    """Integrate f from y0 over [0, t_final] recording every step.

    The grid has floor(t_final/dt) + 1 samples with times computed as
    i * dt (no accumulated addition).  On NaN/Inf, a component exceeding
    DIVERGENCE_LIMIT, or a SingularConfiguration, the trajectory is
    truncated and marked diverged.
    """
    if dt <= 0 or t_final <= 0:
        raise ValueError("dt and t_final must be positive")
    if method not in _STEPPERS:
        raise ValueError(f"unknown method {method!r}, expected euler or rk4")
    stepper = _STEPPERS[method]

    n_steps = int(np.floor(t_final / dt + 1e-9))
    y = np.array(y0, dtype=float)
    if _bad(y):
        raise ValueError("initial state is not finite")

    states = np.empty((n_steps + 1, y.size))
    states[0] = y
    for i in range(n_steps):
        t = i * dt
        try:
            y = stepper(f, y, t, dt)
        except SingularConfiguration as exc:
            return Trajectory(dt, dt * np.arange(i + 1), states[:i + 1],
                              diverged=True, diverged_step=i,
                              diverged_reason=str(exc))
        if _bad(y):
            return Trajectory(dt, dt * np.arange(i + 1), states[:i + 1],
                              diverged=True, diverged_step=i,
                              diverged_reason="non-finite or runaway state")
        states[i + 1] = y
    return Trajectory(dt, dt * np.arange(n_steps + 1), states)
