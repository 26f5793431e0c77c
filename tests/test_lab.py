import collections
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotordyn import kinematics, lab
from rotordyn.integrators import Trajectory
from rotordyn.kinematics import w_matrix
from rotordyn.lab import (
    ComparisonConfig,
    RELATION_NAMES,
    check_proof_chain,
    check_relations,
    drifting_rotor_input,
    rmse,
    run_model_comparison,
    run_oracle_comparison,
    sample_states,
    simulate_model,
)
from rotordyn.models import QuadParams


class TestSampling:
    def test_respects_pitch_bound(self):
        etas, eta_dots = sample_states(500, seed=3)
        assert np.abs(etas[:, 1]).max() < lab.PITCH_SAMPLING_BOUND
        assert np.abs(etas[:, [0, 2]]).max() <= np.pi
        assert np.abs(eta_dots).max() <= 2.0

    def test_seeded_and_deterministic(self):
        a = sample_states(50, seed=7)
        b = sample_states(50, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = sample_states(50, seed=8)
        assert not np.array_equal(a[0], c[0])


ROW_JACOBIANS = lab._row_jacobians


def _swapped_row_jacobians(winv, dw):
    return np.swapaxes(ROW_JACOBIANS(winv, dw), -3, -1)


def _flipped_dw_dtheta(eta):
    dw = kinematics.w_partials(eta)
    dw[..., 1, :, :] *= -1.0
    return dw


def _scaled_w_inverse(eta):
    scale = 1.0 + 0.01 * np.sin(np.asarray(eta)[..., 0])
    return kinematics.w_inverse(eta) * scale[..., None, None]


def _transposed_rotation(eta):
    return np.swapaxes(kinematics.rotation(eta), -1, -2)


class TestRelations:
    def test_analytic_residuals_are_tiny(self):
        report = check_relations(n_samples=100, seed=1, tol=1e-9)
        assert report.passed
        assert set(report.residuals) == set(RELATION_NAMES)

    def test_r7_fails_for_a_wrong_w(self, monkeypatch):
        monkeypatch.setattr(lab, "w_matrix",
                            lambda eta: np.swapaxes(w_matrix(eta), -1, -2))
        report = check_relations(n_samples=20, seed=0, tol=1e-9)
        assert report.residuals["R7"] > report.tol

    # One planted defect per relation; every relation fails for at least
    # one, because its complex-step side does not share the defect.  At
    # seed 0 the target relations read: swapped P_i axes R1 27, R2 17,
    # R4 4.8; flipped dW/d theta R6 3.7; scaled W^-1 R3 1.0e-2, R5 1.7e-2;
    # R^T for R R7 4.5.
    DEFECTS = {
        "clean": (None, None, set()),
        "swapped_row_jacobian_axes": ("_row_jacobians", _swapped_row_jacobians,
                                      {"R1", "R2", "R4"}),
        "flipped_dw_dtheta": ("w_partials", _flipped_dw_dtheta,
                              {"R1", "R2", "R4", "R6"}),
        "scaled_w_inverse": ("w_inverse", _scaled_w_inverse,
                             {"R1", "R2", "R3", "R4", "R5"}),
        "transposed_rotation": ("rotation", _transposed_rotation, {"R7"}),
    }

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_each_planted_defect_fails_its_relations(self, monkeypatch,
                                                     defect):
        name, fake, failing = self.DEFECTS[defect]
        if name is not None:
            monkeypatch.setattr(lab, name, fake)
        report = check_relations(n_samples=20, seed=0, tol=1e-9)
        assert {r for r, v in report.residuals.items()
                if v >= report.tol} == failing
        assert all(report.residuals[r] < 4e-15 for r in RELATION_NAMES
                   if r not in failing)

    def test_row_jacobians_match_complex_step(self):
        # P[..., i, j, k] = d(W^-1)[i, j]/d eta_k, from the complex step of
        # W^-1 along each e_k
        etas, _ = sample_states(25, seed=9)
        p = lab._row_jacobians(kinematics.w_inverse(etas),
                               kinematics.w_partials(etas))
        for k in range(3):
            step = kinematics.w_inverse(etas + 1j * lab.CS_STEP * np.eye(3)[k])
            assert np.allclose(p[..., k], step.imag / lab.CS_STEP,
                               rtol=0.0, atol=1e-12)

    def test_planted_defects_cover_every_relation(self):
        assert set().union(*(f for _, _, f in self.DEFECTS.values())) == set(
            RELATION_NAMES)

    def test_one_kinematics_pass_per_check(self, monkeypatch):
        # counted in states, so the bounds hold however the check is
        # blocked: one real pass, and one complex W^-1 per state for each
        # of the four complex-step directions e1, e2, e3 and eta_dot
        states = collections.Counter()

        def counted(name):
            fn = getattr(kinematics, name)

            def call(eta):
                kind = "complex" if np.iscomplexobj(eta) else "real"
                states[name, kind] += np.size(eta) // 3
                return fn(eta)
            return call
        for name in ("w_inverse", "w_partials"):
            wrapper = counted(name)
            monkeypatch.setattr(kinematics, name, wrapper)
            monkeypatch.setattr(lab, name, wrapper)
        n_samples = 1000
        check_relations(n_samples)
        assert set(states) == {("w_inverse", "real"), ("w_partials", "real"),
                               ("w_inverse", "complex")}
        assert states["w_inverse", "real"] <= n_samples
        assert states["w_partials", "real"] <= n_samples
        assert states["w_inverse", "complex"] == 4 * n_samples

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 769])
    def test_blocks_match_one_batch(self, n):
        # block edges at RELATION_BLOCK = 256: the report is the one a
        # single _relation_residuals call over all n states gives
        report = check_relations(n, seed=6)
        etas, eta_dots = sample_states(n, seed=6)
        batch = lab._relation_residuals(etas, eta_dots)
        for name in RELATION_NAMES:
            i = int(np.argmax(batch[name]))
            assert report.worst[name] == i
            assert report.residuals[name] == float(batch[name][i])
            assert report.worst_eta[name] == tuple(etas[i])

    def test_check_memory_is_bounded(self):
        # about 3 MiB in blocks: one block plus the per-state samples and
        # maxima, where one batch of all 20 000 states needs about 40 MiB
        tracemalloc.start()
        try:
            check_relations(20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_relations(n_samples=0)

    def test_report_formatting(self):
        report = check_relations(n_samples=10, seed=0)
        text = report.format_text()
        assert "R1" in text and "pass" in text

    # sha256 of the seven per-state residual arrays of one
    # _relation_residuals call over 1000 states, in RELATION_NAMES order
    RESIDUALS_SHA256 = {
        0: "8869d795d1276edeb5adf6b6dc3a2fd27c97d079f9f1711c44da82895f0bdcf9",
        7: "ae1bcbcbe04cb820f41da3af891a39091e91e86a6e39edf61714616aff88b69d",
    }

    @pytest.mark.parametrize("seed", sorted(RESIDUALS_SHA256))
    def test_residual_arrays_are_unchanged(self, seed):
        res = lab._relation_residuals(*sample_states(1000, seed))
        digest = hashlib.sha256(
            b"".join(res[name].tobytes() for name in RELATION_NAMES))
        assert digest.hexdigest() == self.RESIDUALS_SHA256[seed]

    def test_batch_residuals_are_the_per_state_residuals(self):
        etas, eta_dots = sample_states(40, seed=5)
        batch = lab._relation_residuals(etas, eta_dots)
        for i in (0, 17, 39):
            one = lab._relation_residuals(etas[i], eta_dots[i])
            for name in RELATION_NAMES:
                assert batch[name].shape == (40,)
                assert batch[name][i] == one[name]

    # sha256 of format_text() for 1000 states, recorded when the
    # derivatives went to complex step
    REPORT_SHA256 = {
        0: "1d6a191c71e580c3180f192887cdd874aa01faa8eccfd880625934d9ad35d1f8",
        1: "430fc6a44047861bc67fc270dc75fd5fda2f3d606280ab95e393459fcec8c9d3",
        2: "25ea9ca052f0b9292b73550722658af5414f87e55b5439b69d28fe2e41673b9e",
        3: "21ce6e99f982a7aa30ece4cbfe7413f83732ef802a8e7043353f0dd4f2821fe5",
    }

    @pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
    def test_report_prints_without_redrawing(self, monkeypatch, seed):
        report = check_relations(1000, seed)

        def redraw(n, seed):
            raise AssertionError("format_text redrew the sampled states")
        monkeypatch.setattr(lab, "sample_states", redraw)
        text = report.format_text()
        assert (hashlib.sha256(text.encode()).hexdigest()
                == self.REPORT_SHA256[seed])

    def test_report_names_the_worst_state(self):
        report = check_relations(n_samples=60, seed=4)
        etas, eta_dots = sample_states(60, seed=4)
        per_state = lab._relation_residuals(etas, eta_dots)
        assert set(report.worst) == set(RELATION_NAMES)
        lines = report.format_text().splitlines()[1:]
        for name, line in zip(RELATION_NAMES, lines):
            i = report.worst[name]
            assert report.residuals[name] == per_state[name].max()
            assert per_state[name][i] == per_state[name].max()
            eta = ", ".join(f"{x:+.4f}" for x in etas[i])
            assert line.startswith(f"  {name}:")
            assert line.endswith(f"at eta = ({eta})")


class TestProofChain:
    def test_revised_model_closes_newton_euler(self, params):
        report = check_proof_chain([0.3, 0.4, 0.5], [0.1, -0.2, 0.3],
                                   [0.01, 0.02, 0.03], params)
        assert report.coriolis_residual < 1e-9
        assert report.newton_euler_residual < 1e-9
        assert report.literature_residual > 1e-3
        assert all(type(v) is float for v in vars(report).values())

    def test_coriolis_identity_holds_over_sampled_states(self, params):
        # C eta_dot = W^T (J W_dot eta_dot + w x J w) for any torque
        etas, eta_dots = sample_states(1000, seed=0)
        worst = max(check_proof_chain(eta, eta_dot, [0.01, -0.02, 0.005],
                                      params).coriolis_residual
                    for eta, eta_dot in zip(etas, eta_dots))
        assert worst < 1e-13

    def test_models_coincide_at_identity(self, params):
        report = check_proof_chain(np.zeros(3), np.zeros(3),
                                   [0.01, 0.0, 0.0], params)
        assert report.literature_residual < 1e-12

    def test_gimbal_lock_raises_w_inverse_message(self, params):
        eta = [0.1, math.pi / 2, 0.2]
        with pytest.raises(kinematics.SingularConfiguration) as chain:
            check_proof_chain(eta, [0.1, -0.2, 0.3], [0.01, 0.02, 0.03],
                              params)
        with pytest.raises(kinematics.SingularConfiguration) as direct:
            kinematics.w_inverse(eta)
        assert str(chain.value) == str(direct.value)


class TestRmse:
    def _traj(self, states):
        states = np.asarray(states, float)
        return Trajectory(0.1, states)

    def test_known_value(self):
        a = self._traj(np.zeros((4, 12)))
        b_states = np.zeros((4, 12))
        b_states[:, 3] = 1.0  # offset phi only
        b = self._traj(b_states)
        assert rmse(a, b, "eta") == pytest.approx(math.sqrt(1.0 / 3.0))
        assert rmse(a, b, "p") == 0.0

    def test_rejects_unknown_group_and_grid_mismatch(self):
        a = self._traj(np.zeros((4, 12)))
        b = self._traj(np.zeros((5, 12)))
        with pytest.raises(ValueError):
            rmse(a, a, "omega")
        with pytest.raises(ValueError):
            rmse(a, b, "p")


class TestComparisons:
    CFG = ComparisonConfig(dt=0.01, duration=2.0)

    def test_drifting_input_is_slowly_varying(self):
        u0 = drifting_rotor_input(0.0)
        assert np.allclose(u0, [475.9, 476.2, 476.0, 476.1])
        assert np.abs(np.subtract(drifting_rotor_input(2.0), u0)).max() <= 0.2

    def test_drifting_input_is_the_paper_formula_bit_for_bit(self):
        for t in np.linspace(-50.0, 50.0, 401).tolist() + [0.0, -0.0]:
            u = drifting_rotor_input(t)
            s = 0.1 * math.sin(t)
            want = [475.9 + s, 476.2 + s, 476.0, 476.1]
            assert type(u) is list and all(type(x) is float for x in u)
            assert u == want
            assert np.array_equal(np.signbit(u), np.signbit(want))

    def test_rotor_input(self):
        u = lab.rotor_input((1.0, 2.0, 3.0, 4.0), (0.5, -0.5, 0.0, 1.0), 2.0)
        assert u(0.0) == [1.0, 2.0, 3.0, 4.0]
        assert u(math.pi / 4) == [1.5, 1.5, 3.0, 5.0]

    @pytest.mark.parametrize("base,amp", [
        ((1.0, 2.0, 3.0), (0.0, 0.0, 0.0, 0.0)),
        ((1.0, 2.0, 3.0, 4.0), (0.0, 0.0, 0.0)),
        ((1.0, 2.0, 3.0, 4.0, 5.0), (0.0,) * 5),
        ((), ()),
    ])
    def test_rotor_input_takes_four_rotors(self, base, amp):
        with pytest.raises(ValueError, match="unpack"):
            lab.rotor_input(base, amp, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(-1e12, 1e12, allow_nan=False) | st.sampled_from(
               [0.0, -0.0, 5e-324, -1e300, 1e300]),
           base=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
           amp=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
           freq=st.floats(-10.0, 10.0))
    def test_rotor_input_is_the_formula_bit_for_bit(self, t, base, amp, freq):
        got = lab.rotor_input(tuple(base), tuple(amp), freq)(t)
        want = [b + a * math.sin(freq * t) for b, a in zip(base, amp)]
        assert type(got) is list
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_simulate_model_rejects_unknown(self):
        with pytest.raises(ValueError):
            simulate_model("dcm", drifting_rotor_input, self.CFG)

    @pytest.mark.parametrize("model", ["ne", "el", "rel"])
    def test_input_container_does_not_change_the_states(self, model):
        cfg = ComparisonConfig(dt=0.01, duration=0.5)
        want = simulate_model(model, drifting_rotor_input, cfg).states
        for box in (tuple, np.array):
            got = simulate_model(
                model, lambda t: box(drifting_rotor_input(t)), cfg).states
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("box", [list, np.array])
    def test_kernels_get_lists_of_python_floats(self, monkeypatch, box):
        """A list input (``rotor_input``) or an ndarray input reaches every
        kernel as a list of floats, as does the state."""
        calls = []
        for model, kernel in lab._MODEL_FNS.items():
            def spy(y, u, params, kernel=kernel):
                calls.append((y, u))
                return kernel(y, u, params)
            monkeypatch.setitem(lab._MODEL_FNS, model, spy)
        cfg = ComparisonConfig(dt=0.01, duration=0.1)
        for model in ("ne", "el", "rel"):
            simulate_model(model, lambda t: box(drifting_rotor_input(t)), cfg)
        assert len(calls) == 3 * 4 * 10
        for y, u in calls:
            assert type(y) is list and type(u) is list
            assert all(type(v) is float for v in y + u)

    def test_revised_tracks_newton_euler_closely(self):
        table = run_model_comparison(self.CFG)
        for group in lab.GROUPS:
            assert table.value(group, "rel") < 1e-3 * table.value(group, "el")

    def test_oracle_comparison_structure(self):
        cfg = ComparisonConfig(dt=0.01, duration=1.0, oracle_refinement=10)
        table = run_oracle_comparison(cfg)
        assert table.columns == ["ne", "el", "rel"]
        assert "oracle" in table.notes
        for group in lab.GROUPS:
            assert table.value(group, "el") > table.value(group, "rel")

    def test_table_formatting_and_csv(self):
        table = run_model_comparison(self.CFG)
        text = table.format_text()
        assert "RMSE" in text and "etadot" in text
        rows = list(table.csv_rows())
        assert rows[0] == ["group", "el", "rel"]
        assert len(rows) == 5

    def test_oracle_just_short_of_a_whole_step(self):
        # 0.049999999995 / 0.01 rounds up to 5 steps, while
        # 0.049999999995 / 1e-4 alone would floor to 499, not 500
        short = run_oracle_comparison(
            ComparisonConfig(dt=0.01, duration=0.049999999995))
        whole = run_oracle_comparison(ComparisonConfig(dt=0.01, duration=0.05))
        assert short.values == whole.values
        assert all(math.isfinite(v) for row in short.values.values()
                   for v in row)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ComparisonConfig(dt=0.0)
        with pytest.raises(ValueError):
            ComparisonConfig(oracle_refinement=1)

    @pytest.mark.parametrize("refine", [2.5, 10.0, "10", None, math.nan])
    def test_config_rejects_a_non_integer_refinement(self, refine):
        with pytest.raises(ValueError, match="oracle_refinement must be an "
                                             "integer"):
            ComparisonConfig(dt=0.01, duration=0.05, oracle_refinement=refine)
        assert ComparisonConfig(oracle_refinement=np.int64(10))

    @pytest.mark.parametrize("dt, duration", [
        (0.01, 0.001), (0.01, math.inf), (0.01, math.nan), (math.nan, 1.0),
        (math.inf, 1.0)])
    def test_config_rejects_a_run_shorter_than_one_step(self, dt, duration):
        with pytest.raises(ValueError, match="at least one step"):
            ComparisonConfig(dt=dt, duration=duration)

    @pytest.mark.parametrize("integrator", ["euler", "heun"])
    def test_config_rejects_integrators_other_than_rk4(self, integrator):
        with pytest.raises(ValueError, match="integrator must be rk4"):
            ComparisonConfig(integrator=integrator)


def test_diverging_model_is_reported():
    # one rotor well above the rest rolls and yaws the vehicle until both E-L
    # models run away; the Newton-Euler reference stays finite
    def spin_up_input(t):
        return [476.0, 476.0, 476.0, 520.0]

    table = run_model_comparison(ComparisonConfig(dt=0.01, duration=20.0),
                                 spin_up_input)
    assert table.notes == {
        "el": "diverged at step 305: non-finite or runaway state",
        "rel": "diverged at step 357: non-finite or runaway state",
    }
    for group in lab.GROUPS:
        assert math.isinf(table.value(group, "el"))
        assert math.isinf(table.value(group, "rel"))


class TestDivergedReference:
    """A diverged Newton-Euler run or reference is reported, not raised."""

    CFG = ComparisonConfig(dt=0.01, duration=1.0, oracle_refinement=10)

    @staticmethod
    def _all_inf(table):
        return all(math.isinf(v) for row in table.values.values() for v in row)

    def test_model_comparison(self, ne_diverges):
        table = run_model_comparison(self.CFG)
        assert table.notes["ne"].startswith("diverged at step 50:")
        assert "injected gimbal lock" in table.notes["ne"]
        assert self._all_inf(table)
        assert "inf" in table.format_text()

    def test_oracle_comparison(self, ne_diverges):
        table = run_oracle_comparison(self.CFG)
        assert table.notes["reference"].startswith("diverged at step 50:")
        assert table.notes["ne"].startswith("diverged at step 0:")
        assert "oracle" in table.notes
        assert self._all_inf(table)

    def test_subsampled_reference_keeps_its_fine_grid_step(
            self, ne_diverges, monkeypatch):
        ref = _oracle_reference(self.CFG, monkeypatch)
        assert ref.diverged and ref.diverged_step == 50    # of dt / 10
        assert ref.dt == self.CFG.dt and len(ref) == 6     # fine rows 0..50
        assert np.array_equal(ref.times, 0.01 * np.arange(6))


def _oracle_reference(cfg, monkeypatch):
    """The subsampled reference ``run_oracle_comparison`` scores against:
    the first trajectory it converts."""
    seen = []

    def as_gen(traj, original=lab._as_gen):
        seen.append(traj)
        return original(traj)
    monkeypatch.setattr(lab, "_as_gen", as_gen)
    run_oracle_comparison(cfg)
    return seen[0]


def test_subsampled_reference_is_on_the_run_grid(monkeypatch):
    cfg = ComparisonConfig(dt=0.01, duration=0.5, oracle_refinement=10)
    ref = _oracle_reference(cfg, monkeypatch)
    fine = simulate_model("ne", drifting_rotor_input,
                          ComparisonConfig(dt=0.001, duration=0.5))
    assert not ref.diverged and ref.dt == 0.01 and len(ref) == 51
    assert np.array_equal(ref.times, 0.01 * np.arange(51))
    assert np.array_equal(ref.states, fine.states[::10])
