"""Fixed-step classical RK4 with trajectory recording.

The state is carried as a list of Python floats: a derivative function
f(t, y) receives y as a list and returns dy/dt as any length-n sequence
of numbers.  f may raise SingularConfiguration; ``simulate`` turns that
(and NaN/Inf or runaway states) into a Diverged marker on the returned
trajectory rather than an exception.  Only the recorded rows are numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def step_rk4(f, y, t, dt):
    """One classical fourth-order Runge-Kutta step.

    Element by element the arithmetic is that of the array expression
    y + (dt/6) * (k1 + 2 k2 + 2 k3 + k4), in the same order.
    """
    half = 0.5 * dt
    k1 = f(t, y)
    k2 = f(t + half, [a + half * k for a, k in zip(y, k1)])
    k3 = f(t + half, [a + half * k for a, k in zip(y, k2)])
    k4 = f(t + dt, [a + dt * k for a, k in zip(y, k3)])
    c = dt / 6.0
    return [a + c * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _bad(y) -> bool:
    """True for a NaN, an infinite or a runaway (> DIVERGENCE_LIMIT) entry
    anywhere in ``y``.  max skips a NaN that is not first; the sum keeps it."""
    s = sum(y)
    return not max(map(abs, y)) <= DIVERGENCE_LIMIT or s != s


def step_count(t_final: float, dt: float) -> int:
    """floor(t_final / dt), with slack for a whole number of steps."""
    return int(np.floor(t_final / dt + 1e-9))


def simulate(f, y0, t_final, dt, *, n_steps: int | None = None) -> Trajectory:
    """Integrate f with RK4 from y0 over [0, t_final] recording every step.

    The grid has n_steps + 1 samples (default step_count(t_final, dt)),
    with times i * dt (no accumulated addition).  On NaN/Inf, a component
    exceeding DIVERGENCE_LIMIT, or a SingularConfiguration, the trajectory
    is truncated and marked diverged.
    """
    if dt <= 0 or t_final <= 0:
        raise ValueError("dt and t_final must be positive")
    n_steps = step_count(t_final, dt) if n_steps is None else n_steps
    y = np.array(y0, dtype=float).tolist()
    if _bad(y):
        raise ValueError("initial state is not finite")

    states = np.empty((n_steps + 1, len(y)))
    states[0] = y
    for i in range(n_steps):
        t = i * dt
        try:
            y = step_rk4(f, y, t, dt)
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
