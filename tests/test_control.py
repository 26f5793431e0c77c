import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from rotordyn import control
from rotordyn.control import (
    Gains,
    HelixSpec,
    InfeasibleAttitude,
    SweepReport,
    SweepRow,
    attitude_fl_pid,
    gain_sweep,
    helix_reference,
    position_outer_loop,
    run_tracking,
)
from rotordyn.fast import ne_rates_321
from rotordyn.integrators import RUNAWAY, _rk4_step
from rotordyn.kinematics import (
    SingularConfiguration,
    rotation,
    w_inverse,
    w_matrix,
)
from rotordyn.models import QuadParams, coriolis_matrix, rotated_inertia


def _rates(y, params):
    """R v and W^-1 omega of a plant state, as float tuples: rows 0-5 of
    the Newton-Euler derivative, whose expressions the closed loop uses."""
    d = ne_rates_321(y, 0.0, (0.0, 0.0, 0.0), params)
    return tuple(d[0:3]), tuple(d[3:6])


def _trig(eta):
    """(sin phi, cos phi, sin theta, cos theta): the attitude as the FL-PID
    torque takes it."""
    phi, theta = float(eta[0]), float(eta[1])
    return math.sin(phi), math.cos(phi), math.sin(theta), math.cos(theta)


def _error(eta_ref, eta):
    """eta_ref - eta, as floats."""
    return tuple(float(r - x) for r, x in zip(eta_ref, eta))


class TestGainsAndSpec:
    def test_gains_reject_negative(self):
        with pytest.raises(ValueError):
            Gains(att_kp=-1.0)

    @pytest.mark.parametrize("name", ["pos_kp", "pos_kd",
                                      "att_kp", "att_ki", "att_kd"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_gains_reject_non_finite(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            Gains(**{name: value})

    @pytest.mark.parametrize("name", ["radius", "rate", "climb", "yaw",
                                      "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_helix_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            HelixSpec(**{name: value})

    def test_helix_validation(self):
        with pytest.raises(ValueError):
            HelixSpec(radius=0.0)
        with pytest.raises(ValueError):
            HelixSpec(yaw_mode="spiral")
        with pytest.raises(ValueError, match="nonzero rate"):
            HelixSpec(yaw_mode="tangent", rate=0.0)
        HelixSpec(yaw_mode="constant", rate=0.0)


class TestHelixReference:
    def test_derivative_consistency(self):
        spec = HelixSpec()
        h = 1e-6
        for t in (0.0, 1.7, 12.3):
            p0, pd, pdd, _ = helix_reference(t, spec)
            p0 = np.asarray(p0)
            pp = np.asarray(helix_reference(t + h, spec)[0])
            pm = np.asarray(helix_reference(t - h, spec)[0])
            assert np.allclose((pp - pm) / (2 * h), pd, atol=1e-6)
            assert np.allclose((pp - 2 * p0 + pm) / h ** 2, pdd, atol=1e-3)

    def test_geometry(self):
        spec = HelixSpec(radius=2.0, rate=1.4, climb=0.1)
        p, _, _, _ = helix_reference(0.0, spec)
        assert np.allclose(p, [2.0, 0.0, 0.0])
        p, _, _, _ = helix_reference(10.0, spec)
        assert math.hypot(p[0], p[1]) == pytest.approx(2.0)
        assert p[2] == pytest.approx(1.0)

    def test_tangent_yaw_follows_velocity(self):
        spec = HelixSpec(yaw_mode="tangent")
        _, pd, _, psi = helix_reference(3.0, spec)
        assert math.remainder(psi - math.atan2(pd[1], pd[0]),
                              2 * math.pi) == pytest.approx(0.0)

    @pytest.mark.parametrize("rate", [1.4, -1.4, 0.3])
    def test_tangent_yaw_is_continuous(self, rate):
        # atan2 of the velocity wraps from +pi to -pi; the reference must not
        spec = HelixSpec(yaw_mode="tangent", rate=rate)
        ts = np.linspace(0.0, 20.0, 2001)
        psis = [helix_reference(t, spec)[3] for t in ts]
        assert np.abs(np.diff(psis)).max() < 2.0 * abs(rate) * (ts[1] - ts[0])
        for t, psi in zip(ts, psis):
            _, pd, _, _ = helix_reference(t, spec)
            assert math.remainder(psi - math.atan2(pd[1], pd[0]),
                                  2 * math.pi) == pytest.approx(0.0, abs=1e-9)


class TestFloatControlStep:
    """One control step is float arithmetic: the step functions return
    Python floats for float input, and an ndarray, list or tuple argument
    gives the same bits."""

    @staticmethod
    def _step_inputs(params):
        spec = HelixSpec(yaw=0.4)
        y = control._reference_start(spec, Gains(), params).tolist()
        y[3:6] = [0.05, -0.1, 0.45]
        y[9:12] = [0.3, -0.2, 0.1]
        return spec, y

    @staticmethod
    def _all_floats(value):
        if isinstance(value, tuple):
            return all(TestFloatControlStep._all_floats(v) for v in value)
        return type(value) is float

    def test_step_functions_return_python_floats(self, params):
        spec, y = self._step_inputs(params)
        ref = helix_reference(0.7, spec)
        rates = _rates(y, params)
        out = position_outer_loop(y[0:3], rates[0], *ref, Gains(), params)
        assert self._all_floats(ref) and self._all_floats(rates)
        assert self._all_floats(out)
        for comp in ("el", "rel"):
            tau = attitude_fl_pid(comp, _trig(y[3:6]), rates[1],
                                  _error(out[1], y[3:6]), [0.01, -0.02, 0.0],
                                  Gains(), params)
            assert len(tau) == 3 and self._all_floats(tau)

    def test_torque_evaluates_no_trig(self, params, monkeypatch):
        spec, y = self._step_inputs(params)
        p_dot, eta_dot = _rates(y, params)
        calls = []

        def counted(fn):
            def call(x):
                calls.append(fn.__name__)
                return fn(x)
            return call
        counting = types.SimpleNamespace(**vars(math))
        counting.sin, counting.cos = counted(math.sin), counted(math.cos)
        monkeypatch.setattr(control, "math", counting)
        _, eta_ref = position_outer_loop(y[0:3], p_dot,
                                         *helix_reference(0.7, spec),
                                         Gains(), params)
        assert calls   # the counter sees control's own trig
        calls.clear()
        for comp in ("el", "rel"):
            attitude_fl_pid(comp, _trig(y[3:6]), eta_dot,
                            _error(eta_ref, y[3:6]), [0.01, -0.02, 0.0],
                            Gains(), params)
        assert calls == []

    @pytest.mark.parametrize("kind", [np.array, list, tuple])
    def test_argument_type_gives_the_same_bits(self, params, kind):
        spec, y = self._step_inputs(params)
        p_ref, pd_ref, pdd_ref, psi = helix_reference(0.7, spec)
        p_dot, eta_dot = _rates(y, params)
        pos = (y[0:3], p_dot, p_ref, pd_ref, pdd_ref)
        want_pos = position_outer_loop(*pos, psi, Gains(), params)
        got_pos = position_outer_loop(*map(kind, pos), psi, Gains(), params)
        assert got_pos == want_pos
        att = (_trig(y[3:6]), eta_dot, _error(want_pos[1], y[3:6]),
               [0.01, -0.02, 0.0])
        for comp in ("el", "rel"):
            want = attitude_fl_pid(comp, *att, Gains(), params)
            got = attitude_fl_pid(comp, *map(kind, att), Gains(), params)
            assert [float(v) for v in got] == list(want)

    def test_every_pid_term_enters_its_own_axis(self, params):
        # distinct nonzero values in every argument and gain: a term taken
        # from the wrong axis would not cancel
        rng = np.random.default_rng(7)
        gains = Gains(pos_kp=6.0, pos_kd=4.0, att_kp=900.0, att_ki=8e3,
                      att_kd=22.0)
        x, v, xr, vr, a = rng.uniform(-0.5, 0.5, (5, 3))
        f = a + 4.0 * (vr - v) + 6.0 * (xr - x)
        f[2] += params.gravity
        thrust, eta_ref = position_outer_loop(x, v, xr, vr, a, 0.3, gains,
                                              params)
        got = thrust / params.mass * rotation(eta_ref) @ [0.0, 0.0, 1.0]
        assert np.allclose(got, f, rtol=0.0, atol=1e-12)

        eta, etad, er, ie = rng.uniform(-0.5, 0.5, (4, 3))
        nu = 22.0 * -etad + 900.0 * (er - eta) + 8e3 * ie
        want = rotated_inertia(eta, params) @ nu + (
            coriolis_matrix(eta, etad, params) @ etad)
        got = attitude_fl_pid("el", _trig(eta), etad, er - eta, ie, gains,
                              params)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        got = attitude_fl_pid("rel", _trig(eta), etad, er - eta, ie, gains,
                              params)
        assert np.allclose(w_matrix(eta).T @ got, want, rtol=1e-12,
                           atol=1e-12)


def _finite(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


VEC3 = st.lists(_finite(20.0), min_size=3, max_size=3)
ETA = st.tuples(_finite(math.pi), st.floats(-1.3, 1.3, exclude_min=True,
                                            exclude_max=True),
                _finite(math.pi)).map(list)


def assert_matches_spec(got, want, scale):
    """|got - want| <= 1e-12 * scale entrywise, where ``scale`` is the
    entrywise size of the terms summed into ``want``, floored at the
    smallest normal float so that the bound cannot underflow to 0."""
    assert all(type(v) is float for v in got)
    bound = 1e-12 * np.maximum(scale, np.finfo(float).tiny)
    assert np.all(np.abs(np.subtract(got, want)) <= bound), (got, want)


def fl_pid_spec(compensator, eta, eta_dot, err, int_err, gains, params):
    """The FL-PID torque at attitude ``eta`` and attitude error ``err`` from
    the generic matrices, and the size of its terms: J_R nu + C eta_dot,
    mapped through W^-T for 'rel'."""
    eta, eta_dot = np.asarray(eta), np.asarray(eta_dot)
    nu = (gains.att_kd * -eta_dot
          + gains.att_kp * np.asarray(err)
          + gains.att_ki * np.asarray(int_err))
    jr = rotated_inertia(eta, params)
    c = coriolis_matrix(eta, eta_dot, params)
    want = jr @ nu + c @ eta_dot
    scale = np.abs(jr) @ np.abs(nu) + np.abs(c) @ np.abs(eta_dot)
    if compensator == "rel":
        w_inv_t = w_inverse(eta).T
        want, scale = w_inv_t @ want, np.abs(w_inv_t) @ scale
    return want, scale


class TestControlStepMatchesTheMatrixSpec:
    """The closed loop's generalized rates and the FL-PID torque equal the
    generic matrix forms, ``kinematics.rotation(eta) @ v``,
    ``w_inverse(eta) @ omega`` and W^-T (J_R nu + C eta_dot) from
    ``models``, to 1e-12 of the size of their terms, away from the
    gimbal lock (|theta| < 1.3)."""

    PARAMS = QuadParams().with_gyro(False)
    # no position feedback: the outer loop is feasible from any state
    GAINS = Gains(pos_kp=0.0, pos_kd=0.0)

    @pytest.mark.parametrize("compensator", ["el", "rel"])
    @settings(max_examples=150, deadline=None)
    @given(pos=VEC3, eta=ETA, v=VEC3, omega=VEC3)
    # the torques differ by one subnormal ulp here, where 1e-12 * scale is 0
    @example(pos=[0.0] * 3, eta=[5e-324, 0.0, 0.0], v=[0.0] * 3,
             omega=[0.0, 11.0, 0.0])
    def test_first_control_step(self, compensator, pos, eta, v, omega):
        y = pos + eta + v + omega
        seen = {}

        def spy(name):
            fn = getattr(control, name)

            def call(*args):
                out = fn(*args)
                seen.setdefault(name, (args, out))
                return out
            return call

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(control, "_reference_start",
                       lambda *a: np.array(y))
            for name in ("position_outer_loop", "attitude_fl_pid"):
                mp.setattr(control, name, spy(name))
            run_tracking(compensator, HelixSpec(duration=0.01), self.GAINS,
                         self.PARAMS, dt=0.01)

        (p, p_dot, *_), (_, eta_ref) = seen["position_outer_loop"]
        assert list(p) == pos
        r = rotation(eta)
        assert_matches_spec(p_dot, r @ v, np.abs(r) @ np.abs(v))
        args, torque = seen["attitude_fl_pid"]
        assert args[0] == compensator and args[1] == _trig(eta)
        assert args[3] == _error(eta_ref, eta)
        w_inv = w_inverse(eta)
        assert_matches_spec(args[2], w_inv @ omega,
                            np.abs(w_inv) @ np.abs(omega))
        assert_matches_spec(torque, *fl_pid_spec(compensator, eta, *args[2:]))

    @pytest.mark.parametrize("compensator", ["el", "rel"])
    @settings(max_examples=200, deadline=None)
    @given(eta=ETA, eta_dot=VEC3, ref=st.tuples(VEC3, VEC3))
    def test_fl_pid_torque(self, compensator, eta, eta_dot, ref):
        args = (eta_dot, *ref, Gains(), self.PARAMS)
        assert_matches_spec(attitude_fl_pid(compensator, _trig(eta), *args),
                            *fl_pid_spec(compensator, eta, *args))


class TestOuterLoop:
    def test_hover_command(self, params):
        zero = np.zeros(3)
        thrust, eta_ref = position_outer_loop(
            zero, zero, zero, zero, zero, 0.3, Gains(), params)
        assert thrust == pytest.approx(params.mass * params.gravity)
        assert np.allclose(eta_ref, [0.0, 0.0, 0.3], atol=1e-12)

    def test_forward_acceleration_pitches_45_degrees(self, params):
        zero = np.zeros(3)
        g = params.gravity
        thrust, eta_ref = position_outer_loop(
            zero, zero, zero, zero, np.array([g, 0.0, 0.0]), 0.0, Gains(),
            params)
        assert eta_ref[1] == pytest.approx(math.pi / 4)
        assert eta_ref[0] == pytest.approx(0.0, abs=1e-12)
        assert thrust == pytest.approx(params.mass * g * math.sqrt(2.0))

    def test_lateral_acceleration_rolls_negative(self, params):
        zero = np.zeros(3)
        _, eta_ref = position_outer_loop(
            zero, zero, zero, zero, np.array([0.0, 2.0, 0.0]), 0.0, Gains(),
            params)
        assert eta_ref[0] < 0.0  # +y specific force needs negative roll

    def test_infeasible_tilt_raises(self, params):
        zero = np.zeros(3)
        g = params.gravity
        with pytest.raises(InfeasibleAttitude):
            position_outer_loop(zero, zero, zero, zero,
                                np.array([10.0 * g, 0.0, 0.0]), 0.0,
                                Gains(), params)
        with pytest.raises(InfeasibleAttitude):
            position_outer_loop(zero, zero, zero, zero,
                                np.array([0.0, 0.0, -2.0 * g]), 0.0,
                                Gains(), params)


class TestAttitudeLinearization:
    """The revised compensator makes the closed-loop attitude error obey the
    designed linear ODE exactly; the literature compensator does not."""

    ETA_REF = np.array([0.2, -0.15, 0.1])
    GAINS = Gains(att_kp=900.0, att_ki=8e3, att_kd=22.0)
    DT = 1e-3
    DURATION = 10.0

    def _nonlinear_error(self, compensator, params):
        p = params.with_gyro(False)
        thrust = p.mass * p.gravity

        def rhs(t, z):
            y, ie = z[:12], z[12:]
            _, eta_dot = _rates(y, p)
            torque = attitude_fl_pid(compensator, _trig(y[3:6]), eta_dot,
                                     self.ETA_REF - y[3:6], ie, self.GAINS, p)
            out = np.empty(15)
            out[:12] = ne_rates_321(y, thrust, torque, p)
            out[12:] = self.ETA_REF - y[3:6]
            return out

        n = int(round(self.DURATION / self.DT))
        z = np.zeros(15)
        errors = np.empty((n + 1, 3))
        errors[0] = self.ETA_REF
        for i in range(n):
            z = _rk4_step(len(z))(rhs, z, i * self.DT, self.DT)
            errors[i + 1] = self.ETA_REF - z[3:6]
        return errors

    def _linear_error(self):
        # per-axis error state (e, e_dot, int e); exact propagation via expm
        g = self.GAINS
        a = np.array([[0.0, 1.0, 0.0],
                      [-g.att_kp, -g.att_kd, -g.att_ki],
                      [1.0, 0.0, 0.0]])
        step = scipy.linalg.expm(a * self.DT)
        n = int(round(self.DURATION / self.DT))
        errors = np.empty((n + 1, 3))
        state = np.zeros((3, 3))
        state[0] = self.ETA_REF  # e(0) = reference, at-rest start
        errors[0] = self.ETA_REF
        for i in range(n):
            state = step @ state
            errors[i + 1] = state[0]
        return errors

    def test_revised_compensator_matches_linear_design(self, params):
        linear = self._linear_error()
        rel_dev = np.abs(self._nonlinear_error("rel", params) - linear).max()
        el_dev = np.abs(self._nonlinear_error("el", params) - linear).max()
        assert rel_dev < 1e-3
        assert el_dev > 10.0 * rel_dev

    def test_rejects_unknown_compensator(self, params):
        zero = np.zeros(3)
        with pytest.raises(ValueError):
            attitude_fl_pid("pd", _trig(zero), zero, zero, zero, Gains(),
                            params)


class TestTracking:
    def test_short_helix_is_tracked(self, params):
        spec = HelixSpec(duration=3.0)
        result = run_tracking("rel", spec, Gains(), params.with_gyro(False),
                              dt=2e-3)
        assert not result.diverged
        assert result.max_error < 0.1
        assert len(result.times) == len(result.attitude_error)

    def test_unstable_gain_is_flagged(self, params):
        spec = HelixSpec(duration=10.0)
        hot = Gains(att_ki=40e3)
        result = run_tracking("el", spec, hot, params.with_gyro(False),
                              dt=2e-3)
        assert result.diverged
        assert result.max_error == math.inf or result.max_error > 0.5

    def test_run_shorter_than_one_step_is_rejected(self, params):
        with pytest.raises(ValueError, match="at least one step"):
            run_tracking("rel", HelixSpec(duration=0.001), Gains(),
                         params.with_gyro(False), dt=0.01)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
    def test_zero_or_non_finite_step_is_rejected(self, params, dt):
        spec = HelixSpec(duration=0.01)
        with pytest.raises(ValueError, match="finite dt > 0"):
            run_tracking("rel", spec, Gains(), params, dt)
        with pytest.raises(ValueError, match="finite dt > 0"):
            gain_sweep(["rel"], [8e3], Gains(), spec, params, dt)

    @pytest.mark.parametrize("rate", [1.4, -1.4])
    def test_tangent_yaw_helix_is_tracked(self, params, rate):
        # the heading passes +-pi after a quarter turn (t = 1.12 s)
        spec = HelixSpec(yaw_mode="tangent", rate=rate, duration=10.0)
        result = run_tracking("rel", spec, Gains(), params.with_gyro(False),
                              dt=2e-3)
        assert not result.diverged, result.diverged_reason
        assert np.abs(result.states[result.times >= 2.0]).max() < 1e-3


class TestTrackingExits:
    """Every exit of run_tracking records one error row per control step it
    completed: i rows when the controller fails at step i, i + 1 when the
    error limit or the plant ends the run at step i."""

    SPEC = HelixSpec(duration=0.2)
    DT = 5e-3
    K = 7

    def run(self, params):
        return run_tracking("rel", self.SPEC, Gains(), params.with_gyro(False),
                            self.DT)

    def plant_fails_at(self, monkeypatch, k, fail):
        """control.step_rk4 runs the real step, then hands its result to
        ``fail`` on the k-th call (0-based)."""
        calls = itertools.count()

        def stepper(f, y, t, dt):
            y = _rk4_step(len(y))(f, y, t, dt)
            return fail(y) if next(calls) == k else y
        monkeypatch.setattr(control, "step_rk4", stepper)

    def check(self, result, full, rows, reason):
        assert len(result.times) == len(result.attitude_error) == rows
        assert np.array_equal(result.times, full.times[:rows])
        assert np.array_equal(result.attitude_error,
                              full.attitude_error[:rows])
        assert result.diverged is (reason is not None)
        if reason is None:
            assert result.diverged_step is None
        else:
            assert reason in result.diverged_reason
            assert len(result) == result.diverged_step + 1

    def test_completed_run_has_one_row_per_step_and_the_start(self, params):
        result = self.run(params)
        self.check(result, result, 41, None)
        assert result.diverged_reason == ""

    # a plant state handed back by step K: at step K + 1 the controller
    # meets gimbal lock or an infeasible tilt (K + 1 rows), or the plant
    # check flags it at step K (K + 1 rows)
    @pytest.mark.parametrize("index, value, reason", [
        (4, math.pi / 2, "|cos theta|"),
        (2, 1e3, "tilt limit"),
        (9, math.nan, "non-finite or runaway state")])
    def test_failure_after_plant_step_k_keeps_k_plus_one_rows(
            self, params, monkeypatch, index, value, reason):
        full = self.run(params)

        def poison(y):
            y[index] = value
            return y
        self.plant_fails_at(monkeypatch, self.K, poison)
        self.check(self.run(params), full, self.K + 1, reason)

    def test_singular_plant_step_i_keeps_i_plus_one_rows(self, params,
                                                         monkeypatch):
        full = self.run(params)
        calls = itertools.count()

        def rates(y, thrust, torque, params):
            if next(calls) == 4 * self.K + 2:
                raise SingularConfiguration("injected gimbal lock")
            return ne_rates_321(y, thrust, torque, params)
        monkeypatch.setattr(control, "ne_rates_321", rates)
        self.check(self.run(params), full, self.K + 1, "injected gimbal lock")

    def rates_with(self, monkeypatch, edit):
        """control.ne_rates_321 hands its k1 rates of plant step K to
        ``edit``."""
        calls = itertools.count()

        def rates(y, thrust, torque, params):
            out = ne_rates_321(y, thrust, torque, params)
            return edit(out) if next(calls) == 4 * self.K else out
        monkeypatch.setattr(control, "ne_rates_321", rates)

    def test_infinite_stage_angle_at_step_i_keeps_i_plus_one_rows(
            self, params, monkeypatch):
        full = self.run(params)

        def inf_pitch_rate(out):   # the k2 stage pitch is inf: sin raises
            out[4] = math.inf
            return out
        self.rates_with(monkeypatch, inf_pitch_rate)
        self.check(self.run(params), full, self.K + 1, RUNAWAY)

    def test_plant_rates_of_the_wrong_length_still_raise(self, params,
                                                         monkeypatch):
        self.rates_with(monkeypatch, lambda out: out[:11])
        with pytest.raises(ValueError, match="values to unpack"):
            self.run(params)

    def test_error_limit_keeps_the_row_that_exceeds_it(self, params):
        spec = HelixSpec(duration=10.0)
        result = run_tracking("el", spec, Gains(att_ki=40e3),
                              params.with_gyro(False), dt=2e-3)
        assert result.diverged_reason == "attitude error limit exceeded"
        assert len(result.times) == len(result.attitude_error)
        assert len(result) == result.diverged_step + 1
        assert np.array_equal(result.times,
                              2e-3 * np.arange(len(result.times)))
        assert "times" not in {f.name for f in
                               dataclasses.fields(control.TrackingResult)}
        last = np.abs(result.attitude_error[-1]).max()
        assert last > control.ERROR_LIMIT
        assert np.abs(result.attitude_error[:-1]).max() <= control.ERROR_LIMIT
        assert result.max_error == last


class TestSweep:
    def test_min_destabilizing_ki(self):
        report = SweepReport([
            SweepRow("el", 8e3, True, 0.01),
            SweepRow("el", 16e3, False, math.inf),
            SweepRow("el", 1e308, False, math.inf),
            SweepRow("rel", 8e3, True, 0.01),
            SweepRow("rel", 16e3, True, 0.02),
        ])
        assert report.min_destabilizing_ki("el") == 16e3
        assert report.min_destabilizing_ki("rel") is None
        text = report.format_text()
        assert "none in grid" in text
        for row, line in zip(report.rows, text.splitlines()[1:]):
            # Ki fills columns 12-21 of every row, 1e308 too
            assert float(line[12:22]) == row.ki and line[22:25] == "   "

    def test_rows_equal_one_tracking_run_per_cell(self, params):
        spec = HelixSpec(duration=2.0)
        p = params.with_gyro(False)
        report = gain_sweep(["el", "rel"], [16e3, 40e3], Gains(), spec, p,
                            dt=5e-3)
        for row in report.rows:
            result = run_tracking(row.compensator, spec,
                                  Gains(att_ki=row.ki), p, dt=5e-3)
            assert row.stable is not result.diverged
            assert row.max_error == result.max_error
        assert [r.stable for r in report.rows].count(False) >= 1

    def test_sweep_runs_grid(self, params):
        spec = HelixSpec(duration=2.0)
        report = gain_sweep(["rel"], [8e3, 10e3], Gains(), spec,
                            params.with_gyro(False), dt=5e-3)
        assert len(report.rows) == 2
        assert [r.ki for r in report.rows] == [8e3, 10e3]
