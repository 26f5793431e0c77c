"""A fixed piece of work shaped like rotordyn's hot path, to measure the
host's current speed.

The host's speed swings by up to 2x over seconds, and CPU time swings with
it.  An op's time scaled by ``REF_S / calibration time measured around it``
is its time at a fixed machine speed.  The work below integrates a
torque-free rigid body with RK4 on 12-element numpy states, the same mix
of scalar math, small-array allocation and elementwise array arithmetic
the program runs, so it slows down in the same proportion when the host
does.  It never calls the program and must never change, or scaled times
stop being comparable across commits.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds ``measure`` takes on the development box (2-core Xeon KVM guest,
# Python 3.11.7, numpy 2.4.6) in a quiet period.
REF_S = 0.016

_J = (4.9e-3, 5.1e-3, 8.8e-3)
_STEPS = 600


def _rates(y):
    sf, cf = math.sin(y[3]), math.cos(y[3])
    st, ct = math.sin(y[4]), math.cos(y[4])
    wx, wy, wz = y[9], y[10], y[11]
    jx, jy, jz = _J
    out = np.empty(12)
    out[0:3] = y[6:9]
    out[3] = wx + (sf * wy + cf * wz) * st / ct
    out[4] = cf * wy - sf * wz
    out[5] = (sf * wy + cf * wz) / ct
    out[6:9] = np.array([wy * y[8] - wz * y[7], wz * y[6] - wx * y[8],
                         wx * y[7] - wy * y[6]])
    out[9] = (jy - jz) * wy * wz / jx
    out[10] = (jz - jx) * wz * wx / jy
    out[11] = (jx - jy) * wx * wy / jz
    return out


def measure() -> float:
    """Seconds to integrate the fixed rigid body for ``_STEPS`` RK4 steps."""
    t0 = time.perf_counter()
    y = np.array([0.0, 0.0, 0.0, 0.1, -0.2, 0.3,
                  0.5, 0.0, -0.1, 0.4, -0.3, 1.0])
    dt = 1e-3
    half = 0.5 * dt
    for _ in range(_STEPS):
        k1 = _rates(y)
        k2 = _rates(y + half * k1)
        k3 = _rates(y + half * k2)
        k4 = _rates(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.abs(y).max() > 1e9:
            raise ArithmeticError("calibration state diverged")
    return time.perf_counter() - t0
