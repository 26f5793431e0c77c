import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rotordyn import fast
from rotordyn.integrators import (
    DIVERGENCE_LIMIT,
    RUNAWAY,
    Diverged,
    Trajectory,
    _bad,
    _rk4_step,
    march,
    simulate,
    step_count,
)
from rotordyn.kinematics import SingularConfiguration
from rotordyn.models import QuadParams


def exponential(t, y):
    return y


class TestSteps:
    def test_rk4_step_is_fourth_order_taylor(self):
        # for y' = y one RK4 step reproduces the Taylor sum through dt^4/24
        y = _rk4_step(1)(exponential, np.array([1.0]), 0.0, 0.1)
        taylor = 1.0 + 0.1 + 0.1 ** 2 / 2 + 0.1 ** 3 / 6 + 0.1 ** 4 / 24
        assert y[0] == pytest.approx(taylor, abs=1e-15)
        assert y[0] == pytest.approx(math.e ** 0.1, abs=1e-7)

    def test_rk4_handles_time_dependence(self):
        # y' = 2t, exact y(1) = 1 (polynomial, integrated exactly)
        y = _rk4_step(1)(lambda t, y: np.array([2.0 * t]), np.array([0.0]),
                         0.0, 1.0)
        assert y[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kernel", [fast.ne_derivative_321,
                                        fast.el_lit_derivative_321,
                                        fast.rel_derivative_321])
    def test_rk4_on_float_lists_matches_array_formula(self, kernel):
        def rk4_array(f, y, t, dt):
            half = 0.5 * dt
            k1 = f(t, y)
            k2 = f(t + half, y + half * k1)
            k3 = f(t + half, y + half * k2)
            k4 = f(t + dt, y + dt * k3)
            return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        params = QuadParams()
        rng = np.random.default_rng(7)
        for _ in range(20):
            y0 = rng.uniform(-1.0, 1.0, 12)
            u = rng.uniform(300.0, 600.0, 4)

            def f(t, y):
                return kernel(y, (u + np.sin(t)).tolist(), params)

            want = rk4_array(lambda t, y: np.array(f(t, y)), y0, 0.3, 0.01)
            got = _rk4_step(12)(f, y0.tolist(), 0.3, 0.01)
            assert all(type(v) is float for v in got)
            assert np.array_equal(got, want)


def rk4_comprehensions(f, y, t, dt):
    """RK4 as list comprehensions over zip: the reference for _rk4_step."""
    half = 0.5 * dt
    k1 = f(t, y)
    k2 = f(t + half, [a + half * k for a, k in zip(y, k1)])
    k3 = f(t + half, [a + half * k for a, k in zip(y, k2)])
    k4 = f(t + dt, [a + dt * k for a, k in zip(y, k3)])
    c = dt / 6.0
    return [a + c * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def wavy(t, y):
    return [math.sin(3.0 * v + t) * (i - 1.5) for i, v in enumerate(y)]


def negative_zero(t, y):
    return [-0.0 for _ in y]


class TestWrittenOutStep:
    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    @pytest.mark.parametrize("container", [list, tuple, np.array])
    @pytest.mark.parametrize("f", [wavy, negative_zero, exponential])
    def test_bit_identical_to_comprehensions(self, n, container, f):
        rng = np.random.default_rng(n)
        for dt in (0.01, 0.3, -0.0):
            y0 = rng.uniform(-2.0, 2.0, n)
            y0[::2] = -0.0
            y0[1::3] = 0.0
            y = container(y0.tolist())
            want = rk4_comprehensions(f, y, 0.7, dt)
            got = _rk4_step(n)(f, y, 0.7, dt)
            assert len(got) == n
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_step_function_is_built_once_per_length(self):
        _rk4_step.cache_clear()
        for n in (2, 5, 2, 2, 5):
            _rk4_step(n)(exponential, [1.0] * n, 0.0, 0.1)
        info = _rk4_step.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 3)

    def test_simulate_looks_the_step_up_once_per_run(self):
        _rk4_step.cache_clear()
        for _ in range(2):
            simulate(exponential, [1.0, 2.0, 3.0], 1.0, 0.1)
        info = _rk4_step.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("f", [lambda t, y: [1.0],
                                   lambda t, y: [1.0, 2.0, 3.0]])
    def test_derivative_of_wrong_length_is_an_error(self, f):
        with pytest.raises(ValueError, match="values to unpack"):
            _rk4_step(2)(f, [1.0, 2.0], 0.0, 0.1)
        with pytest.raises(ValueError, match="values to unpack"):
            simulate(f, [1.0, 2.0], 0.3, 0.1)


class TestDivergenceTest:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       2.0 * DIVERGENCE_LIMIT,
                                       -2.0 * DIVERGENCE_LIMIT])
    def test_flags_non_finite_and_runaway_entries(self, value):
        y = np.ones(12)
        y[7] = value
        assert _bad(y)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       2.0 * DIVERGENCE_LIMIT,
                                       -2.0 * DIVERGENCE_LIMIT])
    def test_flags_bad_float_at_every_position(self, value):
        for i in range(12):
            y = [1.0] * 12
            y[i] = value
            assert _bad(y), i
        at_limit = [DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT] * 6
        assert not _bad(at_limit)

    def test_passes_finite_state_at_the_limit(self):
        y = np.full(12, -DIVERGENCE_LIMIT)
        y[0] = DIVERGENCE_LIMIT
        assert not _bad(y)


def exact_bad(y) -> bool:
    """The divergence rule entry by entry: a NaN, an inf or |y_i| above
    the limit anywhere."""
    return any(not abs(v) <= DIVERGENCE_LIMIT for v in y)


EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                     5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0,
                     DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT,
                     math.nextafter(DIVERGENCE_LIMIT, math.inf),
                     -math.nextafter(DIVERGENCE_LIMIT, math.inf)]),
    st.floats(0.5 * DIVERGENCE_LIMIT, 2.0 * DIVERGENCE_LIMIT),
    st.floats(-2.0 * DIVERGENCE_LIMIT, -0.5 * DIVERGENCE_LIMIT),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(-1.0, 1.0),
)


class TestDivergenceRuleProperty:
    @given(st.lists(EDGE_FLOATS, min_size=12, max_size=12))
    @example([DIVERGENCE_LIMIT] * 12)
    @example([1e308] * 2 + [0.0] * 10)
    @example([math.nan, math.inf] + [0.0] * 10)
    @example([0.0] * 11 + [math.nan])
    def test_equals_the_entrywise_rule(self, y):
        assert _bad(y) is exact_bad(y)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bad(np.array(y)) == exact_bad(y)


class TestConvergenceOrder:
    def global_error(self, dt):
        traj = simulate(exponential, [1.0], 1.0, dt)
        return abs(traj.states[-1, 0] - math.e)

    def test_rk4_is_fourth_order(self):
        ratio = self.global_error(0.02) / self.global_error(0.01)
        assert ratio == pytest.approx(16.0, rel=0.05)


def _gimbal_lock(y):
    raise SingularConfiguration("injected gimbal lock")


def _smooth(t, y):
    return [1.0, -y[1]]


# what the derivative returns in the first stage of step K, and what that
# step ends the march with: None, a Diverged reason or ValueError
MARCH_EXITS = {
    "completed": (None, None),
    "gimbal lock": (_gimbal_lock, "injected gimbal lock"),
    "infinite stage angle": (lambda y: [math.sin(math.inf), 0.0], RUNAWAY),
    "nan state": (lambda y: [math.nan, 0.0], RUNAWAY),
    "runaway state": (lambda y: [1e3 * DIVERGENCE_LIMIT, 0.0], RUNAWAY),
    "wrong length": (lambda y: [0.0] * 3, ValueError),
}


class TestMarch:
    DT, N, K = 0.25, 6, 3

    @pytest.mark.parametrize("fault, reason", MARCH_EXITS.values(),
                             ids=MARCH_EXITS)
    def test_exits(self, fault, reason):
        """march yields (i, y) for i = 0..N and hands ``step`` t = i * dt.
        A failed step K raises Diverged(K, reason) after K + 1 points; any
        other ValueError is raised as it is."""
        calls = itertools.count()
        times, points = [], []

        def f(t, y):
            if fault is not None and next(calls) == 4 * self.K:
                return fault(y)
            return _smooth(t, y)

        def step(f, y, t, dt):
            times.append(t)
            return _rk4_step(len(y))(f, y, t, dt)

        def run():
            for point in march(step, f, [0.0, 1.0], self.DT, self.N):
                points.append(point)

        clean = list(march(_rk4_step(2), _smooth, [0.0, 1.0], self.DT,
                           self.N))
        assert [i for i, _ in clean] == list(range(self.N + 1))
        last = self.K    # the index of the last point yielded
        if reason is None:
            run()
            last = self.N
        elif reason is ValueError:
            with pytest.raises(ValueError, match="values to unpack"):
                run()
        else:
            with pytest.raises(Diverged) as info:
                run()
            assert (info.value.i, info.value.reason) == (self.K, reason)
        assert points == clean[:last + 1]
        assert times == [i * self.DT for i in range(min(last + 1, self.N))]

    def test_sound_state_past_the_hypot_bound_marches_on(self):
        """hypot over the limit only hands the state to the exact rule:
        twelve entries at 0.9 of the limit are sound, one a step past it
        is not."""
        y = [0.9 * DIVERGENCE_LIMIT] * 12
        assert math.hypot(*y) > DIVERGENCE_LIMIT
        points = list(march(_rk4_step(12), lambda t, y: [0.0] * 12, y,
                            self.DT, self.N))
        assert points == [(i, y) for i in range(self.N + 1)]
        y[5] = math.nextafter(DIVERGENCE_LIMIT, math.inf)
        with pytest.raises(Diverged) as info:
            list(march(_rk4_step(12), lambda t, y: [0.0] * 12, y,
                       self.DT, self.N))
        assert (info.value.i, info.value.reason) == (0, RUNAWAY)


class TestSimulate:
    def test_grid_layout(self):
        traj = simulate(exponential, [1.0], 1.0, 0.1)
        assert len(traj) == 11
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        # times come from i * dt, not accumulation
        assert np.array_equal(traj.times, 0.1 * np.arange(11))

    def test_preserves_initial_state(self):
        y0 = [2.0, -3.0]
        traj = simulate(lambda t, y: np.zeros(2), y0, 0.5, 0.1)
        assert np.array_equal(traj.states[0], y0)
        assert np.array_equal(traj.states[-1], y0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate(exponential, [1.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            simulate(exponential, [1.0], -1.0, 0.1)
        with pytest.raises(ValueError):
            simulate(exponential, [math.nan], 1.0, 0.1)

    @pytest.mark.parametrize("y0", [[math.nan], [2e9], [0.0, -2e9]])
    def test_bad_initial_state_message_names_both_causes(self, y0):
        with pytest.raises(ValueError, match="not finite or has an entry "
                                             "beyond DIVERGENCE_LIMIT = 1e"):
            simulate(exponential, y0, 1.0, 0.1)

    @pytest.mark.parametrize("t_final, dt", [
        (1.0, 0.0), (1.0, math.inf), (1.0, math.nan), (1.0, -math.inf),
        (math.inf, 0.1), (math.nan, 0.1)])
    def test_rejects_zero_or_non_finite_step_and_duration(self, t_final, dt):
        with pytest.raises(ValueError, match="finite dt > 0"):
            simulate(exponential, [1.0], t_final, dt)

    def test_marks_runaway_as_diverged(self):
        traj = simulate(lambda t, y: [100.0 * v for v in y], [1.0], 10.0,
                        0.5)
        assert traj.diverged
        assert traj.diverged_step is not None
        assert len(traj) == traj.diverged_step + 1
        assert "runaway" in traj.diverged_reason

    def test_infinite_stage_angle_is_a_runaway(self):
        # k1 is inf, so the k2 stage angle is inf and math.cos raises
        def f(t, y):
            return [1e300 * 1e300 * math.cos(y[0])]
        traj = simulate(f, [0.0], 1.0, 0.1)
        assert (traj.diverged, traj.diverged_step, len(traj)) == (True, 0, 1)
        assert traj.diverged_reason == RUNAWAY

    def test_marks_singularity_as_diverged(self):
        def f(t, y):
            if t > 0.2:
                raise SingularConfiguration("gimbal lock")
            return np.zeros_like(y)

        traj = simulate(f, [0.0], 1.0, 0.1)
        assert traj.diverged
        assert "gimbal lock" in traj.diverged_reason

    def test_trajectory_len(self):
        traj = Trajectory(0.1, np.zeros((3, 2)))
        assert len(traj) == 3
        assert np.array_equal(traj.times, 0.1 * np.arange(3))

    def test_times_are_derived_from_dt_and_the_rows(self):
        assert "times" not in {f.name for f in dataclasses.fields(Trajectory)}
        full = simulate(exponential, [1.0], 1.0, 0.1)
        cut = simulate(lambda t, y: [100.0 * v for v in y], [1.0], 10.0, 0.5)
        assert cut.diverged and 1 < len(cut) < 21
        for traj in (full, cut):
            assert np.array_equal(traj.times,
                                  traj.dt * np.arange(len(traj.states)))
        with pytest.raises(AttributeError):
            full.times = np.zeros(11)


def indexed_rows(f, y0, t_final, dt):
    """``simulate``'s rows, stored with ``states[i] = y``: the reference
    for its struct-packed rows."""
    y = np.array(y0, dtype=float).tolist()
    states = np.empty((step_count(t_final, dt) + 1, len(y)))
    try:
        for i, y in march(_rk4_step(len(y)), f, y, dt, len(states) - 1):
            states[i] = y
    except Diverged as exc:
        return states[:exc.i + 1]
    return states


def ne_hover(t, y):
    return fast.ne_derivative_321(y, [470.0, 480.0, 475.0, 478.0],
                                  QuadParams())


class TestPackedRows:
    """Each row ``simulate`` records holds the bits of the state ``march``
    yielded, signed zeros included, as a ``states[i] = y`` store would."""

    Y12 = [0.0, -0.0, 1.0, 0.2, -0.1, 0.4, -0.0, 0.5, 0.0, 0.3, -0.4, -0.0]

    @pytest.mark.parametrize("f, y0, t_final, dt", [
        (ne_hover, Y12, 0.5, 0.01),
        (negative_zero, [-0.0, 0.0, 1.5], 0.3, 0.1),
        (wavy, [0.1, -0.0, 2.0, -3.0], 2.0, 0.05),
        (lambda t, y: -0.5 * np.asarray(y), [1.0, -0.0, 3.0], 1.0, 0.1),
        (lambda t, y: np.array(wavy(t, y)), [0.1, -0.0, 2.0], 1.0, 0.1),
    ], ids=["ne", "negative-zero", "wavy", "ndarray", "ndarray-wavy"])
    def test_rows_equal_indexed_stores_bit_for_bit(self, f, y0, t_final, dt):
        want = indexed_rows(f, y0, t_final, dt)
        traj = simulate(f, y0, t_final, dt)
        assert traj.states.dtype == np.float64
        assert traj.states.shape == want.shape
        assert traj.states.tobytes() == want.tobytes()

    def test_diverging_run_keeps_the_rows_up_to_its_step(self):
        def f(t, y):
            return [100.0 * v for v in y]
        traj = simulate(f, [1.0, -0.0], 10.0, 0.5)
        assert traj.diverged and len(traj) == traj.diverged_step + 1 > 1
        want = indexed_rows(f, [1.0, -0.0], 10.0, 0.5)
        assert traj.states.tobytes() == want.tobytes()


class TestStepCount:
    @pytest.mark.parametrize("t_final, dt, n", [
        (1.0, 0.1, 10), (0.05, 0.01, 5), (0.049999999995, 0.01, 5),
        (0.045, 0.01, 4), (60.0, 0.01, 6000), (60.0, 1e-4, 600000)])
    def test_floor_with_slack(self, t_final, dt, n):
        assert step_count(t_final, dt) == n

    @pytest.mark.parametrize("t_final, dt", [
        (1.0, 0.0), (1.0, -0.1), (1.0, math.inf), (1.0, math.nan),
        (0.0, 0.1), (-1.0, 0.1), (math.inf, 0.1), (math.nan, 0.1),
        (0.05, 0.1), (0.0999, 0.1), (1e300, 1e-300)])
    def test_rejects_a_bad_grid(self, t_final, dt):
        with pytest.raises(ValueError,
                           match="need finite dt > 0 and a duration of at "
                                 "least one step"):
            step_count(t_final, dt)

    def test_n_steps_is_keyword_only(self):
        with pytest.raises(TypeError):
            simulate(exponential, [1.0], 1.0, 0.1, "rk4")

    @pytest.mark.parametrize("n_steps", [-1, 0])
    def test_fewer_than_one_step_is_rejected(self, n_steps):
        with pytest.raises(ValueError, match="at least one step"):
            simulate(exponential, [1.0], 1.0, 0.1, n_steps=n_steps)

    def test_duration_shorter_than_one_step_is_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            simulate(exponential, [1.0], 0.05, 0.1)

    def test_simulate_takes_n_steps_when_given(self):
        traj = simulate(exponential, [1.0], 0.049999999995, 1e-4,
                        n_steps=500)
        assert len(traj) == 501
        assert np.array_equal(traj.times, 1e-4 * np.arange(501))
