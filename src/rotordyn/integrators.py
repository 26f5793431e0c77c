"""Fixed-step classical RK4 with trajectory recording.

The state is carried as a list of Python floats: a derivative function
f(t, y) receives y as a list and returns exactly n numbers, dy/dt, for a
state of length n (any other length is a ValueError).  The RK4 stage
arithmetic is written out per component, in a step function built once
per length.  ``march`` is the one stepping loop: it walks the grid
t = i * dt and raises Diverged for a SingularConfiguration, an infinite
stage angle or a NaN/Inf or runaway state.  ``simulate`` records its
states and turns Diverged into a marker on the returned trajectory
rather than an exception.  Only the recorded rows are numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import SingularConfiguration

DIVERGENCE_LIMIT = 1e9
RUNAWAY = "non-finite or runaway state"   # the reason for a _bad state


@dataclass
class Trajectory:
    """Uniformly sampled states: states[i] = y(times[i]), times[i] = i * dt."""

    dt: float
    states: np.ndarray
    diverged: bool = False
    diverged_step: int | None = None
    diverged_reason: str = ""

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.states))

    def __len__(self) -> int:
        return len(self.states)


@functools.cache
def _rk4_step(n: int):
    """The classical RK4 step for states of length n, every stage written
    out one component at a time; built from n alone, as dataclasses builds
    ``__init__``, and unpacking exactly n values from y and from f.
    Element by element the arithmetic is that of the array expression
    y + (dt/6) * (k1 + 2 k2 + 2 k3 + k4), in the same order."""
    def row(fmt):
        return "[" + ", ".join(fmt.format(i) for i in range(n)) + "]"
    namespace = {}
    exec(f"def step(f, y, t, dt):\n"
         f"    {row('a{0}')} = y\n"
         f"    half = 0.5 * dt\n"
         f"    {row('p{0}')} = f(t, y)\n"
         f"    {row('q{0}')} = f(t + half, {row('a{0} + half * p{0}')})\n"
         f"    {row('r{0}')} = f(t + half, {row('a{0} + half * q{0}')})\n"
         f"    {row('s{0}')} = f(t + dt, {row('a{0} + dt * r{0}')})\n"
         f"    c = dt / 6.0\n"
         f"    return {row('a{0} + c * (p{0} + 2.0 * q{0} + 2.0 * r{0} + s{0})')}",
         namespace)
    return namespace["step"]


def _bad(y) -> bool:
    """True for a NaN, an infinite or a runaway (> DIVERGENCE_LIMIT) entry
    anywhere in ``y``.  One hypot call passes a sound state: it is at least
    max |y_i|, and NaN or inf if any entry is.  Past it, max skips a NaN
    that is not first; the sum keeps it."""
    if math.hypot(*y) <= DIVERGENCE_LIMIT:
        return False
    s = sum(y)
    return not max(map(abs, y)) <= DIVERGENCE_LIMIT or s != s


class Diverged(Exception):
    """Step i of ``march`` (from t = i * dt) failed, for ``reason``."""

    def __init__(self, i: int, reason: str):
        super().__init__(i, reason)
        self.i, self.reason = i, reason


def march(step, f, y, dt, n_steps):
    """Yield (i, y) at t = i * dt for i = 0..n_steps, advancing y by
    ``step(f, y, t, dt)`` after each yield but the last.  A step that meets
    a SingularConfiguration (its message is the reason), math's domain
    error (``math.sin`` of an infinite stage angle) or a _bad state raises
    Diverged(i, reason) in the caller's loop; the last two are RUNAWAY.
    Any other error, such as a derivative of the wrong length, is raised
    again."""
    for i in range(n_steps):
        yield i, y
        try:
            y = step(f, y, i * dt, dt)
        except SingularConfiguration as exc:
            raise Diverged(i, str(exc)) from exc
        except ValueError as exc:
            if str(exc) != "math domain error":
                raise
            raise Diverged(i, RUNAWAY) from exc
        if _bad(y):
            raise Diverged(i, RUNAWAY)
    yield n_steps, y


def step_count(t_final: float, dt: float) -> int:
    """floor(t_final / dt), with slack for a whole number of steps.  Raises
    ValueError unless dt and t_final are finite and positive and t_final
    spans at least one step, but not so many that t_final / dt overflows."""
    if 0 < dt < math.inf and 0 < t_final < math.inf:
        n = np.floor(t_final / dt + 1e-9)
        if 1 <= n < math.inf:
            return int(n)
    raise ValueError(f"dt = {dt:g}, duration = {t_final:g}: need finite "
                     f"dt > 0 and a duration of at least one step")


def simulate(f, y0, t_final, dt, *, n_steps: int | None = None) -> Trajectory:
    """Integrate f with RK4 from y0 over [0, t_final] recording every step.

    The grid has n_steps + 1 samples (default step_count(t_final, dt)),
    with times i * dt (no accumulated addition).  On NaN/Inf, a component
    exceeding DIVERGENCE_LIMIT, an infinite stage angle, or a
    SingularConfiguration, the trajectory is truncated and marked diverged.
    Fewer than one step is a ValueError.
    """
    grid = step_count(t_final, dt)   # checks dt and t_final
    n_steps = grid if n_steps is None else n_steps
    if n_steps < 1:
        raise ValueError(f"n_steps = {n_steps}: need at least one step")
    y = np.array(y0, dtype=float).tolist()
    if _bad(y):
        raise ValueError("initial state is not finite")
    states = np.empty((n_steps + 1, len(y)))
    try:
        for i, y in march(_rk4_step(len(y)), f, y, dt, n_steps):
            states[i] = y
    except Diverged as exc:
        return Trajectory(dt, states[:exc.i + 1], True, exc.i, exc.reason)
    return Trajectory(dt, states)
