"""Convergence certificate for the open-loop comparison (table1 shape).

The revised model is exactly equivalent to Newton-Euler, so its RMSE
against Newton-Euler is the difference of two RK4 discretizations and
must fall as dt^4.  The literature model differs from Newton-Euler in
the model itself, so its RMSE must not depend on dt.  Measured over
20 s: rel orders 3.995-4.007, el orders 0.0001-0.0028.
"""

import math

import pytest

from rotordyn import lab

STEPS = (0.04, 0.02, 0.01, 0.005)


@pytest.fixture(scope="module")
def tables():
    return [lab.run_model_comparison(lab.ComparisonConfig(dt=dt, duration=20.0))
            for dt in STEPS]


def orders(tables, group, column):
    """log2(e(dt) / e(dt / 2)) for each halving of the step."""
    e = [t.value(group, column) for t in tables]
    return [math.log2(a / b) for a, b in zip(e, e[1:])]


@pytest.mark.parametrize("group", list(lab.GROUPS))
def test_revised_model_error_is_fourth_order(tables, group):
    for order in orders(tables, group, "rel"):
        assert 3.8 <= order <= 4.2


@pytest.mark.parametrize("group", list(lab.GROUPS))
def test_literature_model_error_does_not_shrink_with_the_step(tables, group):
    for order in orders(tables, group, "el"):
        assert abs(order) < 0.05
