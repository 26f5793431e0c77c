import itertools

import numpy as np
import pytest

from rotordyn import lab
from rotordyn.kinematics import SingularConfiguration, w_dot, w_matrix
from rotordyn.models import QuadParams, coriolis_matrix


@pytest.fixture
def params():
    return QuadParams()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_attitudes(rng, n, pitch_bound=1.3):
    """(eta, eta_dot) samples away from the 321 gimbal lock."""
    etas = rng.uniform(-np.pi, np.pi, (n, 3))
    etas[:, 1] = rng.uniform(-pitch_bound, pitch_bound, n)
    eta_dots = rng.uniform(-2.0, 2.0, (n, 3))
    return etas, eta_dots


@pytest.fixture
def ne_diverges(monkeypatch):
    """lab's Newton-Euler derivative raises SingularConfiguration from its
    201st evaluation on (step 50 of the first RK4 run)."""
    calls = itertools.count()
    original = lab._MODEL_FNS["ne"]

    def ne(y, u, params):
        if next(calls) >= 200:
            raise SingularConfiguration("injected gimbal lock")
        return original(y, u, params)

    monkeypatch.setitem(lab._MODEL_FNS, "ne", ne)


def g_flipped_coriolis(eta, eta_dot, params):
    """C with the sign of G/2 flipped: J_R_dot + G/2 = 2 J_R_dot - C."""
    w, wd, j = w_matrix(eta), w_dot(eta, eta_dot), params.inertia
    jr_dot = wd.T @ j @ w + w.T @ j @ wd
    return 2.0 * jr_dot - coriolis_matrix(eta, eta_dot, params)
