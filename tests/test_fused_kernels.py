"""The straight-line 321 kernels equal their helper compositions bit for bit.

Every value is compared with ``==`` and by its sign bit, so a reordered
sum or a lost signed zero fails; no tolerance is used.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import composed_kernels as ref
from rotordyn import fast
from rotordyn.kinematics import SINGULARITY_TOL, SingularConfiguration
from rotordyn.models import QuadParams

PARAMS = {
    "gyro on": QuadParams(),
    "gyro off": QuadParams().with_gyro(False),
    "no rotor inertia": QuadParams(rotor_inertia=0.0),
}

DERIVATIVES = [
    (fast.ne_derivative_321, ref.ne_derivative_321),
    (fast.el_lit_derivative_321, ref.el_lit_derivative_321),
    (fast.rel_derivative_321, ref.rel_derivative_321),
]


def _finite(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


ANGLE = _finite(math.pi)
PITCH = _finite(1.55)       # |cos theta| >= 0.02, clear of the lock
STATES = st.tuples(
    st.lists(_finite(100.0), min_size=3, max_size=3), ANGLE, PITCH, ANGLE,
    st.lists(_finite(50.0), min_size=6, max_size=6),
).map(lambda t: t[0] + [t[1], t[2], t[3]] + t[4])
ROTOR_SPEEDS = st.lists(_finite(1000.0), min_size=4, max_size=4)
CONTAINERS = st.sampled_from([list, tuple])


def assert_same(got, want):
    assert type(got) is list and all(type(v) is float for v in got)
    assert got == want
    assert [math.copysign(1.0, v) for v in got] == \
        [math.copysign(1.0, v) for v in want]


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
@pytest.mark.parametrize("fused,composed", DERIVATIVES,
                         ids=["ne", "el", "rel"])
@settings(max_examples=150, deadline=None)
@given(y=STATES, u=ROTOR_SPEEDS, box=CONTAINERS, u_box=CONTAINERS)
def test_derivative_equals_the_composition(fused, composed, params, y, u,
                                           box, u_box):
    assert_same(fused(box(y), u_box(u), params),
                composed(box(y), u_box(u), params))


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
@settings(max_examples=150, deadline=None)
@given(y=STATES, thrust=_finite(50.0),
       tau=st.lists(_finite(1.0), min_size=3, max_size=3),
       u=st.none() | ROTOR_SPEEDS, box=CONTAINERS)
# gyro off still adds +0.0 to tau, which turns -0.0 into 0.0
@example(y=[0.0] * 12, thrust=0.0, tau=[-0.0] * 3, u=[0.0] * 4, box=list)
def test_ne_rates_equal_the_composition(params, y, thrust, tau, u, box):
    assert_same(fast.ne_rates_321(box(y), thrust, tuple(tau), params, u=u),
                ref.ne_rates_321(box(y), thrust, tuple(tau), params, u=u))


@pytest.mark.parametrize("fused,composed", DERIVATIVES + [
    (lambda y, u, p: fast.ne_rates_321(y, 4.0, (0.0, 0.0, 0.0), p),
     lambda y, u, p: ref.ne_rates_321(y, 4.0, (0.0, 0.0, 0.0), p)),
], ids=["ne", "el", "rel", "ne_rates"])
@settings(max_examples=50, deadline=None)
@given(y=STATES, off=_finite(0.99 * SINGULARITY_TOL),
       side=st.sampled_from([1.0, -1.0]), box=CONTAINERS)
def test_gimbal_lock_raises_the_same_message(fused, composed, y, off, side,
                                             box):
    y[4] = side * math.pi / 2 + off
    assert abs(math.cos(y[4])) <= SINGULARITY_TOL
    u = [400.0, 410.0, 420.0, 430.0]
    with pytest.raises(SingularConfiguration) as want:
        composed(box(y), u, PARAMS["gyro on"])
    with pytest.raises(SingularConfiguration) as got:
        fused(box(y), u, PARAMS["gyro on"])
    assert str(got.value) == str(want.value)
