import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rotordyn import kinematics as kin, lab
from conftest import random_attitudes

ANGLES = st.floats(-math.pi, math.pi, allow_nan=False)
SAFE_PITCH = st.floats(-1.3, 1.3, allow_nan=False)


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_skew_matches_cross_product(a, b):
    assert np.allclose(kin.skew(a) @ b, np.cross(a, b), atol=1e-12)


def test_skew_is_antisymmetric():
    s = kin.skew([1.0, -2.0, 3.0])
    assert np.array_equal(s, -s.T)
    assert np.trace(s) == 0.0


@given(st.integers(1, 3), ANGLES)
def test_elem_rotation_is_orthonormal(axis, angle):
    r = kin.elem_rotation(axis, angle)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_elem_rotation_rejects_bad_axis():
    with pytest.raises(ValueError):
        kin.elem_rotation(0, 0.3)
    with pytest.raises(ValueError):
        kin.elem_rotation(4, 0.3)


def test_rotation_composition_examples():
    # pure roll by pi/2: body y maps to inertial z
    r = kin.rotation([math.pi / 2, 0.0, 0.0])
    assert np.allclose(r, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-12)
    # pure yaw by pi/2: body x maps to inertial y
    r = kin.rotation([0.0, 0.0, math.pi / 2])
    assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_w_matrix_closed_form_321():
    phi, theta = 0.3, -0.5
    sf, cf = math.sin(phi), math.cos(phi)
    st_, ct = math.sin(theta), math.cos(theta)
    expected = np.array([[1.0, 0.0, -st_],
                         [0.0, cf, sf * ct],
                         [0.0, -sf, cf * ct]])
    assert np.allclose(kin.w_matrix([phi, theta, 1.1]), expected, atol=1e-12)


def test_w_matrix_pure_roll_example():
    w = kin.w_matrix([math.pi / 2, 0.0, 0.0])
    assert np.allclose(w, [[1, 0, 0], [0, 0, 1], [0, -1, 0]], atol=1e-12)


def test_w_matrix_matches_rotation_kinematics(rng):
    """omega from W must equal vee(R^T R_dot)."""
    h = 1e-6
    for _ in range(20):
        eta = rng.uniform(-1.2, 1.2, 3)
        eta_dot = rng.uniform(-2.0, 2.0, 3)
        rp = kin.rotation(eta + h * eta_dot)
        rm = kin.rotation(eta - h * eta_dot)
        r_dot = (rp - rm) / (2.0 * h)
        omega_skew = kin.rotation(eta).T @ r_dot
        omega_fd = np.array([omega_skew[2, 1], omega_skew[0, 2],
                             omega_skew[1, 0]])
        assert np.allclose(kin.w_matrix(eta) @ eta_dot, omega_fd, atol=1e-6)


@given(ANGLES, SAFE_PITCH, ANGLES)
def test_w_inverse_inverts(phi, theta, psi):
    eta = [phi, theta, psi]
    assert np.allclose(kin.w_inverse(eta) @ kin.w_matrix(eta), np.eye(3),
                       atol=1e-9)


def test_w_inverse_raises_at_gimbal_lock():
    with pytest.raises(kin.SingularConfiguration):
        kin.w_inverse([0.2, math.pi / 2, -0.7])
    with pytest.raises(kin.SingularConfiguration):
        kin.w_inverse([0.0, -math.pi / 2 + 1e-9, 0.0])


# Complex step: d/dx f(x) along v is Im f(x + i h v) / h, exact to round-off
CS_STEP = 1e-30


def complex_step(fn, eta, direction):
    """Derivative of fn at eta along direction, by complex step."""
    return fn(np.asarray(eta) + 1j * CS_STEP * np.asarray(direction)).imag / CS_STEP


def test_w_partials_match_complex_step(rng):
    etas, _ = random_attitudes(rng, 25)
    for eta in etas:
        dw = kin.w_partials(eta)
        for k in range(3):
            assert np.allclose(dw[k], complex_step(kin.w_matrix, eta, np.eye(3)[k]),
                               rtol=0.0, atol=1e-12)


def test_w_is_independent_of_yaw():
    dw = kin.w_partials([0.4, -0.8, 2.0])
    assert np.array_equal(dw[2], np.zeros((3, 3)))


def test_w_dot_is_directional_derivative(rng):
    etas, eta_dots = random_attitudes(rng, 25)
    for eta, eta_dot in zip(etas, eta_dots):
        assert np.allclose(kin.w_dot(eta, eta_dot),
                           complex_step(kin.w_matrix, eta, eta_dot),
                           rtol=0.0, atol=1e-12)


def test_complex_input_gives_complex_output():
    eta = np.array([[0.3, -0.4, 0.9], [1.1, 0.2, -2.0]]) + 1e-30j
    for fn in (kin.rotation, kin.w_matrix, kin.w_inverse):
        out = fn(eta)
        assert out.dtype == np.complex128 and out.shape == (2, 3, 3)
        assert np.allclose(out.real, fn(eta.real), rtol=0.0, atol=1e-15)


# sha256 of the float64 bytes of rotation, w_matrix, w_inverse, w_partials,
# d(W^-1)/d eta_k = -W^-1 (dW/d eta_k) W^-1 and w_dot at 20 000 sampled
# states, recorded before the functions took complex input
REAL_OUTPUT_SHA256 = (
    "1ed449994a86ee91d25afcafa79e025629d7833d2f93841ed1e44eb1008990ce")


def test_real_outputs_are_unchanged():
    etas, eta_dots = lab.sample_states(20_000, 42)
    winv = kin.w_inverse(etas)[..., None, :, :]
    outs = [kin.rotation(etas), kin.w_matrix(etas), kin.w_inverse(etas),
            kin.w_partials(etas), -winv @ kin.w_partials(etas) @ winv,
            kin.w_dot(etas, eta_dots)]
    digest = hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest()
    assert digest == REAL_OUTPUT_SHA256


# sha256 of the complex128 bytes of rotation, w_matrix, w_inverse and
# w_partials at eta + i CS_STEP v for 2000 sampled states and the
# directions v = e1, e2, e3 and eta_dot, the inputs of lab's complex-step
# relations
COMPLEX_OUTPUT_SHA256 = (
    "32a8c3add7eb8a205266bfafdbc5e95b5882213824513e77d0c2c366f803a12e")


def test_complex_outputs_are_unchanged():
    etas, eta_dots = lab.sample_states(2000, 42)
    steps = np.concatenate([np.broadcast_to(np.eye(3), etas.shape + (3,)),
                            eta_dots[:, None, :]], -2)
    probe = etas[:, None, :] + 1j * CS_STEP * steps
    outs = [fn(probe) for fn in (kin.rotation, kin.w_matrix, kin.w_inverse,
                                 kin.w_partials)]
    digest = hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest()
    assert digest == COMPLEX_OUTPUT_SHA256


# sha256 of rotation, w_matrix, w_inverse, w_partials and w_dot at every
# eta built from signed zeros, subnormals, 0.5, -1.2, +-pi and 1e300, for
# real input and for complex input with imaginary part +0.0, -0.0 and a
# complex step, recorded before the columns R1(-phi) e2 and R2(-theta) e3
# were taken by indexing; sin(-0.0) is -0.0, where the product gave +0.0
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 0.5, -1.2, math.pi, -math.pi, 1e300]
SPECIAL_OUTPUT_SHA256 = (
    "b6766f97681cbeaa59e199f3f99e01029461bef72a3e58fddf2e6bc5eaca56e7")


def test_outputs_at_special_angles_are_unchanged():
    etas = np.array(list(itertools.product(SPECIAL, SPECIAL,
                                           [0.0, -0.0, 2.0])))
    rate = np.array([1.0, -0.0, 0.0])
    plus, minus = etas + 0j, etas + 0j
    minus.imag = -0.0
    outs = []
    for probe in (etas, plus, minus, etas + 1j * CS_STEP * rate):
        outs += [kin.rotation(probe), kin.w_matrix(probe),
                 kin.w_inverse(probe), kin.w_partials(probe),
                 kin.w_dot(probe, rate)]
    digest = hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest()
    assert digest == SPECIAL_OUTPUT_SHA256


# -- batches: (..., 3) in, one result per row, bit for bit ------------------

# Few examples each: every example already checks up to six rows.
BATCH = settings(max_examples=20, deadline=None)
BATCH_SHAPES = st.one_of(st.integers(1, 6).map(lambda n: (n,)),
                         st.just((2, 2)))


@st.composite
def attitude_batches(draw):
    """(eta, eta_dot) batches of one shape, pitch away from gimbal lock."""
    shape = draw(BATCH_SHAPES)
    eta = draw(hnp.arrays(np.float64, shape + (3,), elements=ANGLES))
    eta[..., 1] = draw(hnp.arrays(np.float64, shape, elements=SAFE_PITCH))
    eta_dot = draw(hnp.arrays(np.float64, shape + (3,),
                              elements=st.floats(-2.0, 2.0)))
    return eta, eta_dot


# Always tried: a batch of one and a 2 x 2 batch
ONE_ROW = (np.array([[0.3, -0.4, 0.9]]), np.array([[0.1, -0.2, 0.3]]))
GRID = (np.array([[[0.0, 0.0, 0.0], [-0.0, 1.2, -3.1]],
                  [[math.pi, -1.3, 0.5], [0.7, 0.01, -math.pi]]]),
        np.array([[[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]],
                  [[-1.5, 0.3, 2.0], [0.0, -0.0, 1.0]]]))


def assert_rows_stack(batched, single, *batch_args):
    """``batched`` on the batch equals ``single`` per row, stacked: same
    shape and the same bytes (signed zeros included)."""
    shape = batch_args[0].shape[:-1]
    rows = zip(*(a.reshape(-1, 3) for a in batch_args))
    stacked = np.array([single(*row) for row in rows])
    expected = stacked.reshape(shape + stacked.shape[1:])
    got = batched(*batch_args)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


BY_ETA = [kin.rotation, kin.w_matrix, kin.w_inverse, kin.w_partials,
          kin.skew]


@pytest.mark.parametrize("fn", BY_ETA, ids=lambda f: f.__name__)
@BATCH
@given(batch=attitude_batches())
@example(batch=ONE_ROW)
@example(batch=GRID)
def test_batch_is_the_stacked_single_results(fn, batch):
    assert_rows_stack(fn, fn, batch[0])


@pytest.mark.parametrize("fn", [kin.w_dot, kin.matvec],
                         ids=lambda f: f.__name__)
@BATCH
@given(batch=attitude_batches())
@example(batch=ONE_ROW)
@example(batch=GRID)
def test_batch_of_pairs_is_the_stacked_single_results(fn, batch):
    eta, eta_dot = batch
    if fn is kin.matvec:
        assert_rows_stack(lambda e, v: fn(kin.w_matrix(e), v),
                          lambda e, v: fn(kin.w_matrix(e), v), eta, eta_dot)
    else:
        assert_rows_stack(fn, fn, eta, eta_dot)


@BATCH
@given(axis=st.integers(1, 3), batch=attitude_batches())
@example(axis=1, batch=ONE_ROW)
@example(axis=2, batch=GRID)
def test_elem_rotation_batch_is_the_stacked_single_results(axis, batch):
    angles = batch[0][..., 0]
    single = np.array([kin.elem_rotation(axis, a) for a in angles.ravel()])
    got = kin.elem_rotation(axis, angles)
    assert got.tobytes() == single.tobytes()
    assert got.shape == angles.shape + (3, 3)


def test_single_eta_gives_single_matrices():
    eta = [0.3, -0.4, 0.9]
    for fn in (kin.rotation, kin.w_matrix, kin.w_inverse):
        assert fn(eta).shape == (3, 3)
    assert kin.w_partials(eta).shape == (3, 3, 3)


def test_batched_gimbal_lock_names_the_first_locked_row():
    etas = np.array([[0.1, 0.2, 0.3], [0.0, 1.0, 0.0],
                     [0.2, math.pi / 2, -0.7], [0.0, -math.pi / 2, 0.0]])
    with pytest.raises(kin.SingularConfiguration) as exc:
        kin.w_inverse(etas)
    message = str(exc.value)
    assert "batch index 2" in message
    assert "eta = (0.2, 1.5707963267948966, -0.7)" in message
    assert f"|det W| = {abs(math.cos(math.pi / 2)):.3e}" in message
    with pytest.raises(kin.SingularConfiguration, match=r"batch index \(1, 0\)"):
        kin.w_inverse(etas.reshape(2, 2, 3))
