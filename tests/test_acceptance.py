"""Acceptance suite: one test per shipping criterion.

Each test prints a single summary line on success so the run log doubles
as a checklist.  These are end-to-end checks over the full library; the
fine-grained unit tests live in the other test modules.
"""

import math
import time

import numpy as np
import pytest

from rotordyn import control, lab
from rotordyn.cli import main
from rotordyn.fast import ne_rates_321, rel_derivative_321
from rotordyn.integrators import simulate
from rotordyn.kinematics import rotation, w_inverse, w_matrix
from rotordyn.lab import ComparisonConfig, check_proof_chain, check_relations
from rotordyn.models import (
    ETADOT,
    QuadParams,
    ne_attitude_in_eta,
    rel_rates,
)

GROUPS = ("p", "eta", "pdot", "etadot")

# Heavier-inertia vehicle for the refined-reference comparison.  The errors
# of both healthy models are the RK4 truncation error of the 10 ms step (see
# configs/table3.cfg).  With the default inertia the trajectory amplifies
# that error over 60 s, to a 14x gap between ne and rel, which is a property
# of the trajectory, not of the models; the heavier vehicle keeps the two
# within 2x of each other, so they are directly comparable.
HEAVY = QuadParams(jx=97.12e-3, jy=97.12e-3, jz=176.02e-3,
                   rotor_inertia=67.14e-5)


def test_criterion_1_relation_residuals():
    start = time.perf_counter()
    report = check_relations(n_samples=1000, seed=0, tol=1e-9)
    elapsed = time.perf_counter() - start
    assert report.passed, report.format_text()
    assert elapsed < 5.0, f"relation suite took {elapsed:.1f} s"
    worst = max(report.residuals.values())
    print(f"\ncriterion 1 PASS: seven relations, max residual {worst:.2e} "
          f"over 1000 states in {elapsed:.2f} s")


def test_criterion_2_equivalence_proof():
    params = QuadParams()
    etas, eta_dots = lab.sample_states(1000, seed=0)
    torque = np.array([0.01, -0.02, 0.005])
    worst = 0.0
    for eta, eta_dot in zip(etas, eta_dots):
        state = np.concatenate([np.zeros(3), eta, np.zeros(3), eta_dot])
        rel_dd = rel_rates(state, 0.0, torque, np.zeros(3), params)[ETADOT]
        ne_dd = ne_attitude_in_eta(eta, eta_dot, torque, params)
        resid = np.linalg.norm(rel_dd - ne_dd) / max(np.linalg.norm(ne_dd),
                                                     1e-12)
        worst = max(worst, resid)
    assert worst < 1e-9, f"revised-model residual {worst:.2e}"

    exhibit = check_proof_chain([0.3, 0.4, 0.5], [0.1, -0.2, 0.3],
                                [0.01, 0.02, 0.03], params)
    assert exhibit.newton_euler_residual < 1e-9
    assert exhibit.literature_residual > 1e-3
    print(f"\ncriterion 2 PASS: revised model matches Newton-Euler to "
          f"{worst:.2e} at 1000 states; literature residual "
          f"{exhibit.literature_residual:.2e} at the exhibit state")


def test_criterion_3_rmse_pattern():
    start = time.perf_counter()
    coarse = lab.run_model_comparison(ComparisonConfig(dt=0.01, duration=60.0))
    fine = lab.run_model_comparison(ComparisonConfig(dt=0.001, duration=60.0))
    elapsed = time.perf_counter() - start

    for group in GROUPS:
        el, rel = coarse.value(group, "el"), coarse.value(group, "rel")
        assert rel <= 1e-3 * el, f"{group}: rel {rel:.2e} vs el {el:.2e}"
        # refining the step shrinks the revised-model error dramatically
        drop = rel / fine.value(group, "rel")
        assert drop >= 100.0, f"{group}: revised error only dropped {drop:.0f}x"
        # while the literature model barely moves (its error is structural)
        change = abs(fine.value(group, "el") - el) / el
        assert change < 0.10, f"{group}: literature error moved {change:.1%}"
    assert elapsed < 30.0, f"comparison runs took {elapsed:.1f} s"
    ratio = max(coarse.value(g, "rel") / coarse.value(g, "el") for g in GROUPS)
    print(f"\ncriterion 3 PASS: rel/el RMSE ratio <= {ratio:.2e} at 10 ms; "
          f"refined-step trends hold; {elapsed:.1f} s")


def test_criterion_4_oracle_comparison():
    table = lab.run_oracle_comparison(
        ComparisonConfig(dt=0.01, duration=60.0, params=HEAVY))
    worst_pair = 0.0
    worst_gap = math.inf
    for group in GROUPS:
        ne = table.value(group, "ne")
        el = table.value(group, "el")
        rel = table.value(group, "rel")
        pair = max(ne / rel, rel / ne)
        assert pair <= 2.0, f"{group}: ne vs rel ratio {pair:.2f}"
        gap = el / max(ne, rel)
        assert gap >= 1e3, f"{group}: el only {gap:.1f}x worse"
        worst_pair = max(worst_pair, pair)
        worst_gap = min(worst_gap, gap)
    print(f"\ncriterion 4 PASS: ne/rel within {worst_pair:.2f}x of each "
          f"other against the refined reference; el at least "
          f"{worst_gap:.1e}x larger")


def test_criterion_5_conservation():
    params = QuadParams(gravity=0.0, thrust_coeff=5.0647e-6)
    j = params.inertia
    eta0 = np.array([0.05, -0.1, 0.2])
    omega0 = np.array([0.1, -0.05, 1.0])
    zero = np.zeros(3)

    def invariants(eta, omega):
        energy = 0.5 * omega @ j @ omega
        momentum = np.linalg.norm(rotation(eta) @ (j @ omega))
        return energy, momentum

    e0, l0 = invariants(eta0, omega0)

    # Newton-Euler, zero wrench
    y0 = np.concatenate([zero, eta0, zero, omega0])
    ne = simulate(lambda t, y: ne_rates_321(y, 0.0, zero, 0.0, params),
                  y0, 10.0, 1e-3)
    assert not ne.diverged
    drift_ne = max(
        max(abs(invariants(s[3:6], s[9:12])[0] - e0) for s in ne.states) / e0,
        max(abs(invariants(s[3:6], s[9:12])[1] - l0) for s in ne.states) / l0,
    )
    assert drift_ne < 1e-6, f"Newton-Euler drift {drift_ne:.2e}"

    # revised E-L, zero generalized wrench, omega recovered as W eta_dot
    g0 = np.concatenate([zero, eta0, zero, w_inverse(eta0) @ omega0])
    rel = simulate(lambda t, y: rel_derivative_321(y, [0.0] * 4, params),
                   g0, 10.0, 1e-3)
    assert not rel.diverged
    drift_rel = 0.0
    for s in rel.states:
        omega = w_matrix(s[3:6]) @ s[9:12]
        e, l = invariants(s[3:6], omega)
        drift_rel = max(drift_rel, abs(e - e0) / e0, abs(l - l0) / l0)
    assert drift_rel < 1e-6, f"revised E-L drift {drift_rel:.2e}"
    print(f"\ncriterion 5 PASS: energy/momentum drift {drift_ne:.1e} "
          f"(Newton-Euler), {drift_rel:.1e} (revised E-L) over 10 s")


def test_criterion_6_gain_sweep():
    grid = control.DEFAULT_KI_GRID
    for required in (8e3, 15.5e3, 16e3):
        assert required in grid
    params = QuadParams().with_gyro(False)
    start = time.perf_counter()
    report = control.gain_sweep(("el", "rel"), grid, control.Gains(),
                                control.HelixSpec(), params)
    elapsed = time.perf_counter() - start

    el_min = report.min_destabilizing_ki("el")
    rel_min = report.min_destabilizing_ki("rel")
    assert el_min is not None, "literature compensator never destabilized"
    assert rel_min is None or el_min < rel_min, \
        f"el breaks at {el_min}, rel at {rel_min}"
    for row in report.rows:
        if row.ki == 8e3:
            assert row.stable and row.max_error < 0.1, \
                f"{row.compensator} at Ki=8e3: {row.max_error:.3f}"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"
    rel_txt = "none in grid" if rel_min is None else f"{rel_min:g}"
    print(f"\ncriterion 6 PASS: min destabilizing Ki el={el_min:g} < "
          f"rel={rel_txt}; both track at Ki=8e3; {elapsed:.1f} s")


def test_criterion_7_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("[run]\ncommand = simulate\nmodel = ne\nseed = 0\n"
                   "duration = 5\ndt = 0.01\n\n[input]\npreset = drifting\n")
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["run", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(second)]) == 0
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b, "repeated runs differ"
    assert len(a) > 0
    print(f"\ncriterion 7 PASS: identical config produced byte-identical "
          f"CSV ({len(a)} bytes)")
