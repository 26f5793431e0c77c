import itertools

import numpy as np
import pytest

from rotordyn import lab
from rotordyn.kinematics import SingularConfiguration
from rotordyn.models import QuadParams


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
