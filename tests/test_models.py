import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import composed_kernels
from conftest import random_attitudes
from rotordyn import fast, models
from rotordyn.kinematics import SingularConfiguration, w_dot, w_matrix
from rotordyn.models import (
    ETADOT,
    HOVER_ROTOR_SPEED,
    QuadParams,
    body_to_gen,
    coriolis_matrix,
    el_lit_derivative,
    el_lit_rates,
    gen_to_body,
    gyro_torque,
    mixer,
    ne_attitude_in_eta,
    ne_derivative,
    rel_derivative,
    rel_rates,
    rotated_inertia,
    rotated_inertia_partials,
)


def random_full_states(rng, n):
    states = rng.uniform(-1.0, 1.0, (n, 12))
    states[:, 4] *= 1.3  # keep pitch away from gimbal lock
    return states


# (..., 12) state batches, every entry (pitch included) within +-1.3
STATE_BATCHES = st.sampled_from([(1,), (2,), (5,), (2, 2)]).flatmap(
    lambda shape: hnp.arrays(np.float64, shape + (12,),
                             elements=st.floats(-1.3, 1.3)))


class TestQuadParams:
    def test_defaults_calibrate_hover_thrust(self, params):
        thrust, torque = mixer(np.full(4, HOVER_ROTOR_SPEED), params)
        assert thrust == pytest.approx(params.mass * params.gravity, rel=1e-12)
        assert np.allclose(torque, 0.0, atol=1e-15)

    def test_explicit_thrust_coeff_is_kept(self):
        p = QuadParams(thrust_coeff=2.98e-6)
        assert p.thrust_coeff == 2.98e-6

    @pytest.mark.parametrize("kwargs", [
        {"mass": 0.0}, {"jx": -1.0}, {"arm": 0.0},
        {"drag_coeff": 0.0}, {"rotor_inertia": -1e-6},
    ])
    def test_rejects_nonphysical_values(self, kwargs):
        with pytest.raises(ValueError):
            QuadParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(QuadParams)])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match="must be finite"):
            QuadParams(**{name: value})

    def test_inertia_matrix(self, params):
        assert np.allclose(params.inertia @ params.inertia_inv, np.eye(3))

    def test_with_gyro_toggles_only_the_flag(self, params):
        q = params.with_gyro(False)
        assert not q.gyro_enabled and q.mass == params.mass


class TestMixer:
    def test_roll_torque_from_lateral_pair(self, params):
        # speeding rotor 4 (on -y) and slowing rotor 2 rolls positively
        u = np.array([476.0, 400.0, 476.0, 500.0])
        _, torque = mixer(u, params)
        k, l = params.thrust_coeff, params.arm
        assert torque[0] == pytest.approx(l * k * (500.0 ** 2 - 400.0 ** 2))
        assert torque[1] == pytest.approx(0.0)

    def test_yaw_torque_from_drag_imbalance(self, params):
        u = np.array([0.0, 500.0, 0.0, 500.0])
        _, torque = mixer(u, params)
        assert torque[2] == pytest.approx(2 * params.drag_coeff * 500.0 ** 2)

    def test_rejects_wrong_shape(self, params):
        with pytest.raises(ValueError):
            mixer([1.0, 2.0, 3.0], params)

    @pytest.mark.parametrize("u", [np.ones(5), np.ones((4, 1)),
                                   np.ones((2, 2)), 400.0,
                                   ["a", "b", "c", "d"]])
    def test_rejects_anything_but_four_speeds(self, params, u):
        with pytest.raises(ValueError):
            mixer(u, params)

    def test_floats_equal_the_array_formula(self, params, rng):
        k, arm, drag = params.thrust_coeff, params.arm, params.drag_coeff
        for u in rng.uniform(300.0, 600.0, (20, 4)):
            sq = u * u
            want = (k * sq.sum(),
                    (arm * k * (sq[3] - sq[1]), arm * k * (sq[2] - sq[0]),
                     drag * (-sq[0] + sq[1] - sq[2] + sq[3])))
            for same in (u, u.tolist(), tuple(u.tolist())):
                thrust, torque = mixer(same, params)
                assert type(thrust) is float
                assert all(type(v) is float for v in torque)
                assert (thrust, torque) == want


class TestGyroTorque:
    def test_direction_for_pure_roll_rate(self, params):
        u = np.array([0.0, 500.0, 0.0, 500.0])   # relative speed +1000
        tau = gyro_torque(np.array([2.0, 0.0, 0.0]), u, params)
        # omega x e3 = (0, -wx, 0)
        assert np.allclose(tau, [0.0, -params.rotor_inertia * 2000.0, 0.0])

    def test_disabled_gyro_is_zero(self, params):
        p = params.with_gyro(False)
        tau = gyro_torque(np.array([1.0, 2.0, 3.0]), np.full(4, 400.0), p)
        assert np.array_equal(tau, np.zeros(3))


class TestRotatedInertia:
    def test_closed_form_321(self, params):
        phi, theta = 0.4, -0.7
        sf, cf = math.sin(phi), math.cos(phi)
        st, ct = math.sin(theta), math.cos(theta)
        jx, jy, jz = params.jx, params.jy, params.jz
        a = jy * cf ** 2 + jz * sf ** 2
        b = (jy - jz) * sf * cf
        e = jy * sf ** 2 + jz * cf ** 2
        expected = np.array([
            [jx, 0.0, -jx * st],
            [0.0, a, b * ct],
            [-jx * st, b * ct, jx * st ** 2 + e * ct ** 2],
        ])
        jr = rotated_inertia([phi, theta, 2.2], params)
        assert np.allclose(jr, expected, atol=1e-12)

    def test_symmetric_positive_definite_away_from_lock(self, params, rng):
        etas, _ = random_attitudes(rng, 30)
        for eta in etas:
            jr = rotated_inertia(eta, params)
            assert np.allclose(jr, jr.T, atol=1e-14)
            assert np.linalg.eigvalsh(jr).min() > 0.0

    def test_partials_match_finite_differences(self, params, rng):
        h = 1e-6
        etas, _ = random_attitudes(rng, 20)
        for eta in etas:
            djr = rotated_inertia_partials(eta, params)
            for k in range(3):
                step = np.zeros(3)
                step[k] = h
                fd = (rotated_inertia(eta + step, params)
                      - rotated_inertia(eta - step, params)) / (2 * h)
                assert np.allclose(djr[k], fd, atol=1e-7)


class TestCoriolis:
    def test_matches_finite_difference_construction(self, params, rng):
        """C = J_R_dot - G/2 with G rows built from FD partials of J_R."""
        h = 1e-6
        etas, eta_dots = random_attitudes(rng, 20)
        for eta, eta_dot in zip(etas, eta_dots):
            fd_rows = []
            jr_dot = np.zeros((3, 3))
            for k in range(3):
                step = np.zeros(3)
                step[k] = h
                djr_k = (rotated_inertia(eta + step, params)
                         - rotated_inertia(eta - step, params)) / (2 * h)
                fd_rows.append(djr_k @ eta_dot)
                jr_dot += djr_k * eta_dot[k]
            c_fd = jr_dot - 0.5 * np.stack(fd_rows)
            c = coriolis_matrix(eta, eta_dot, params)
            assert np.allclose(c, c_fd, atol=1e-6)

    def test_power_balance(self, params, rng):
        """eta_dot^T (J_R_dot - 2C) eta_dot = 0: the Coriolis term does no
        work, so torque-free kinetic energy is conserved."""
        etas, eta_dots = random_attitudes(rng, 30)
        for eta, eta_dot in zip(etas, eta_dots):
            w = w_matrix(eta)
            wd = w_dot(eta, eta_dot)
            jr_dot = wd.T @ params.inertia @ w + w.T @ params.inertia @ wd
            c = coriolis_matrix(eta, eta_dot, params)
            power = eta_dot @ (jr_dot - 2.0 * c) @ eta_dot
            assert abs(power) < 1e-12


class TestModelEquivalence:
    def test_revised_model_matches_newton_euler(self, params, rng):
        """The revised E-L Euler-angle acceleration equals the Newton-Euler
        one computed through an independent route."""
        etas, eta_dots = random_attitudes(rng, 50)
        torque = np.array([0.01, -0.02, 0.005])
        for eta, eta_dot in zip(etas, eta_dots):
            state = np.concatenate([np.zeros(3), eta, np.zeros(3), eta_dot])
            rel_dd = rel_rates(state, 0.0, torque, np.zeros(3), params)[ETADOT]
            ne_dd = ne_attitude_in_eta(eta, eta_dot, torque, params)
            assert np.allclose(rel_dd, ne_dd, atol=1e-10)

    def test_literature_model_disagrees_generically(self, params):
        eta = np.array([0.3, 0.4, 0.5])
        eta_dot = np.array([0.1, -0.2, 0.3])
        torque = np.array([0.01, 0.02, 0.03])
        state = np.concatenate([np.zeros(3), eta, np.zeros(3), eta_dot])
        lit_dd = el_lit_rates(state, 0.0, torque, np.zeros(3), params)[ETADOT]
        ne_dd = ne_attitude_in_eta(eta, eta_dot, torque, params)
        assert np.abs(lit_dd - ne_dd).max() > 1e-3

    def test_models_agree_at_level_attitude(self, params):
        """At eta = 0, W = I and the generalized torque W^T M = M, so the
        three models produce the same acceleration."""
        state = np.zeros(12)
        state[9:12] = [0.1, 0.2, -0.1]
        u = np.full(4, 450.0)
        rel = rel_derivative(state, u, params)
        lit = el_lit_derivative(state, u, params)
        assert np.allclose(rel, lit, atol=1e-12)


class TestStateConversions:
    def test_roundtrip(self, params, rng):
        for state in random_full_states(rng, 20):
            assert np.allclose(gen_to_body(body_to_gen(state)), state,
                               atol=1e-12)
            assert np.allclose(body_to_gen(gen_to_body(state)), state,
                               atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(states=STATE_BATCHES)
    @example(states=np.zeros((1, 12)))
    @example(states=np.arange(48.0).reshape(2, 2, 12) / 40.0)
    def test_batch_is_the_stacked_single_results(self, states):
        for convert in (body_to_gen, gen_to_body):
            single = np.array([convert(s) for s in states.reshape(-1, 12)])
            got = convert(states)
            assert got.shape == states.shape
            assert got.tobytes() == single.reshape(states.shape).tobytes()

    def test_velocity_maps(self, params):
        state = np.zeros(12)
        state[3] = math.pi / 2          # roll 90 deg
        state[6:9] = [0.0, 1.0, 0.0]    # body +y velocity
        gen = body_to_gen(state)
        assert np.allclose(gen[6:9], [0.0, 0.0, 1.0], atol=1e-12)


class TestFastPath:
    """The scalar 321 implementations must agree with the generic ones.

    The kernels get lists of Python floats, as the package passes them, and
    must return Python floats."""

    @pytest.mark.parametrize("fast_fn,ref_fn", [
        (fast.ne_derivative_321, ne_derivative),
        (fast.el_lit_derivative_321, el_lit_derivative),
        (fast.rel_derivative_321, rel_derivative),
    ])
    def test_pinned_to_generic(self, fast_fn, ref_fn, params, rng):
        for state in random_full_states(rng, 50):
            u = rng.uniform(300.0, 600.0, 4)
            got = fast_fn(state.tolist(), u.tolist(), params)
            assert all(type(v) is float for v in got)
            want = ref_fn(state, u, params)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_wrench_level_rates_pinned(self, params, rng):
        """At h = 0 and at a random nonzero rotor momentum h, whose
        gyroscopic torque is h (omega x e3)."""
        for state in random_full_states(rng, 30):
            thrust = rng.uniform(0.0, 10.0)
            tau = rng.uniform(-0.05, 0.05, 3)
            h_nonzero = float(rng.choice([-1.0, 1.0])
                              * rng.uniform(1e-3, 0.05))
            for h in (0.0, h_nonzero):
                got = fast.ne_rates_321(state.tolist(), thrust, tau.tolist(),
                                        h, params)
                assert all(type(v) is float for v in got)
                tau_g = h * np.cross(state[9:12], models.E3)
                want = models.ne_rates(state, thrust, tau, tau_g, params)
                assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("fn", [fast.ne_derivative_321,
                                    fast.el_lit_derivative_321,
                                    fast.rel_derivative_321])
    def test_state_container_does_not_change_result(self, fn, params, rng):
        for state in random_full_states(rng, 10):
            y, u = state.tolist(), rng.uniform(300.0, 600.0, 4).tolist()
            want = fn(y, u, params)
            assert all(type(v) is float for v in want)
            assert fn(tuple(y), u, params) == want
            assert fn(y, tuple(u), params) == want
            tau = rng.uniform(-0.05, 0.05, 3).tolist()
            want = fast.ne_rates_321(y, 2.0, tau, 0.01, params)
            assert all(type(v) is float for v in want)
            assert fast.ne_rates_321(tuple(y), 2.0, tuple(tau), 0.01,
                                     params) == want

    def test_attitude_terms_pinned(self, params, rng):
        etas, eta_dots = random_attitudes(rng, 30)
        for eta, eta_dot in zip(etas, eta_dots):
            trig = (math.sin(eta[0]), math.cos(eta[0]),
                    math.sin(eta[1]), math.cos(eta[1]))
            jr, c_etad = fast._attitude_terms(*trig, eta_dot.tolist(),
                                              params)
            assert all(type(v) is float for v in jr + c_etad)
            want = rotated_inertia(eta, params)
            got = np.array([jr[0:3], (jr[1], jr[3], jr[4]),
                            (jr[2], jr[4], jr[5])])
            assert np.allclose(got, want, rtol=0.0, atol=1e-10)
            want = coriolis_matrix(eta, eta_dot, params) @ eta_dot
            assert np.allclose(c_etad, want, rtol=0.0, atol=1e-10)
            x = composed_kernels.solve_sym(jr, tuple(want))
            assert np.allclose(got @ x, want, rtol=0.0, atol=1e-12)

    def test_raises_at_gimbal_lock(self, params):
        state = [0.0] * 12
        state[4] = math.pi / 2
        with pytest.raises(SingularConfiguration):
            fast.ne_derivative_321(state, [400.0] * 4, params)
