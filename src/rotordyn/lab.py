"""Numerical verification of the seven kinematic relations, the
equivalence proof chain, and the open-loop RMSE model comparisons.

The multibody-simulator comparison is reproduced with a refined-step
Newton-Euler reference (RK4 at dt / oracle_refinement, 100 by default)
standing in for a third-party dynamics engine; outputs label it as such.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import fast, models
from .integrators import Trajectory, simulate, step_count
from .kinematics import (
    matvec,
    rotation,
    skew,
    w_dot,
    w_inverse,
    w_matrix,
    w_partials,
)
from .models import (
    QuadParams,
    body_to_gen,
    coriolis_matrix,
    el_lit_rates,
    rel_rates,
)

GROUPS = {"p": models.P, "eta": models.ETA, "pdot": models.PDOT,
          "etadot": models.ETADOT}

RELATION_NAMES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")

# Pitch kept away from the 321 gimbal lock when sampling random states
PITCH_SAMPLING_BOUND = 1.3
# Complex step: f'(x) dx = Im f(x + i h dx) / h + O(h^2) takes no
# difference, so it is exact to round-off at any small h (Squire & Trapp,
# SIAM Review 40, 1998).
CS_STEP = 1e-30
# States per _relation_residuals call in check_relations, whose temporaries
# (~2 KB per state) then stay one block; 128, 256 and 512 peaked alike.
RELATION_BLOCK = 256


def rotor_input(base, amp, freq: float):
    """u(t) = base + amp sin(freq t) for four rotors, as a list of floats."""
    (b0, b1, b2, b3), (a0, a1, a2, a3) = base, amp   # ValueError unless 4

    def u(t):
        s = math.sin(freq * t)
        return [b0 + a0 * s, b1 + a1 * s, b2 + a2 * s, b3 + a3 * s]
    return u


# The slowly drifting four-rotor input of the open-loop study
DRIFTING_BASE = (475.9, 476.2, 476.0, 476.1)
DRIFTING_AMP = (0.1, 0.1, 0.0, 0.0)
DRIFTING_FREQ = 1.0
drifting_rotor_input = rotor_input(DRIFTING_BASE, DRIFTING_AMP, DRIFTING_FREQ)


def sample_states(n: int, seed: int):
    """Random (eta, eta_dot) pairs with |pitch| < PITCH_SAMPLING_BOUND."""
    rng = np.random.default_rng(seed)
    etas = rng.uniform(-np.pi, np.pi, (n, 3))
    etas[:, 1] = rng.uniform(-PITCH_SAMPLING_BOUND, PITCH_SAMPLING_BOUND, n)
    eta_dots = rng.uniform(-2.0, 2.0, (n, 3))
    return etas, eta_dots


@dataclass
class RelationReport:
    """Max residual per relation over a sampled batch of states, and the
    index and eta of the sample where each maximum occurs."""

    n_samples: int
    seed: int
    tol: float
    residuals: dict[str, float] = field(default_factory=dict)
    worst: dict[str, int] = field(default_factory=dict)
    worst_eta: dict[str, tuple] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r < self.tol for r in self.residuals.values())

    def format_text(self) -> str:
        lines = [
            f"relation residuals over {self.n_samples} states "
            f"(seed {self.seed}, complex-step derivatives, "
            f"|pitch| < {PITCH_SAMPLING_BOUND}):"
        ]
        for name in RELATION_NAMES:
            r = self.residuals[name]
            verdict = "pass" if r < self.tol else "FAIL"
            eta = ", ".join(f"{x:+.4f}" for x in self.worst_eta[name])
            lines.append(f"  {name}: max residual {r:.3e}  "
                         f"(tol {self.tol:.1e})  {verdict}  at eta = ({eta})")
        return "\n".join(lines)


def _row_jacobians(winv, dw) -> np.ndarray:
    """P_i, the Jacobian of row i of W^-1 (P[..., i, j, k] =
    d(W^-1)[i, j]/d eta_k), from d(W^-1) = -W^-1 dW W^-1."""
    winv = winv[..., None, :, :]
    return np.moveaxis(-winv @ dw @ winv, -3, -1)


def _relation_residuals(eta, eta_dot) -> dict[str, np.ndarray]:
    """Largest residual entry of each relation per state, for states (..., 3).

    W, W^-1, dW/d eta_k and P_i are evaluated once, analytically; block i
    of the stacked Sigma(W^-1) is P_i W^-1 minus its transpose.  R2 and
    R4-R7 check them against derivatives taken by complex step: P_i and
    d(W^-1)/dt from one complex W^-1 over the directions e1, e2, e3 and
    eta_dot, and W_dot and R_dot along eta_dot.
    """
    w = w_matrix(eta)
    winv = w_inverse(eta)
    dw = w_partials(eta)
    omega = matvec(w, eta_dot)
    p = _row_jacobians(winv, dw)

    steps = np.concatenate([np.broadcast_to(np.eye(3), w.shape),
                            eta_dot[..., None, :]], -2)    # e1, e2, e3, eta_dot
    dwinv = w_inverse(eta[..., None, :] + 1j * CS_STEP * steps).imag / CS_STEP
    p_cs = np.moveaxis(dwinv[..., :3, :, :], -3, -1)
    winv_dot = dwinv[..., 3, :, :]
    along = eta + 1j * CS_STEP * eta_dot
    wd = w_matrix(along).imag / CS_STEP

    res = {}
    p_winv = p @ winv[..., None, :, :]     # block i: P_i W^-1
    # R1: the blocks of Sigma(W^-1) collapse to skew of the rows of W^-1
    res["R1"] = p_winv - np.swapaxes(p_winv, -1, -2) - skew(winv)
    # R2: rows of d(W^-1)/dt equal omega^T ((dw_i/deta) W^-1)^T
    res["R2"] = winv_dot - matvec(p_winv, omega[..., None, :])
    # R3: W^-1 (d omega/d eta_dot) = I
    res["R3"] = winv @ w - np.eye(3)
    # R4: rows omega^T P_i, with P_i by complex step, match the
    # W^-1-factored form omega^T P_i W^-1 times W
    omega_i = omega[..., None, None, :]    # broadcast over the row index i
    res["R4"] = ((omega_i @ p_cs)[..., 0, :]
                 - (omega_i @ p_winv)[..., 0, :] @ w)
    # R5: product rule for d/dt(W^-1 W) = 0
    res["R5"] = winv_dot @ w + winv @ wd
    # R6: W_dot = d omega/d eta - S(omega) W; column k of d omega/d eta is
    # (dW/d eta_k) eta_dot
    domega_deta = np.swapaxes(matvec(dw, eta_dot[..., None, :]), -1, -2)
    res["R6"] = wd - (domega_deta - skew(omega) @ w)
    # R7: d omega/d eta_dot = W; the body rate vee(R^T R_dot) equals W eta_dot
    s = np.swapaxes(rotation(eta), -1, -2) @ rotation(along).imag / CS_STEP
    res["R7"] = np.stack([s[..., 2, 1], s[..., 0, 2], s[..., 1, 0]], -1) - omega
    return {name: np.abs(r).reshape(np.shape(eta)[:-1] + (-1,)).max(-1)
            for name, r in res.items()}


def check_relations(n_samples: int = 1000, seed: int = 0,
                    tol: float = 1e-9) -> RelationReport:
    """Evaluate the seven relations over sampled states, block by block."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    etas, eta_dots = sample_states(n_samples, seed)
    blocks = [_relation_residuals(etas[i:i + RELATION_BLOCK],
                                  eta_dots[i:i + RELATION_BLOCK])
              for i in range(0, n_samples, RELATION_BLOCK)]
    res = {name: np.concatenate([b[name] for b in blocks])
           for name in RELATION_NAMES}
    worst = {name: int(np.argmax(r)) for name, r in res.items()}
    return RelationReport(n_samples, seed, tol, {
        name: float(res[name][i]) for name, i in worst.items()}, worst,
        {name: tuple(etas[i]) for name, i in worst.items()})


@dataclass
class ProofChainReport:
    """Residuals of the revised-model equivalence proof at one state."""

    coriolis_residual: float      # C eta_dot = W^T(J W_dot eta_dot + S(w)Jw), relative
    newton_euler_residual: float  # J w_dot + S(w) J w = M, relative
    literature_residual: float    # same check with the literature accel

    def format_text(self) -> str:
        return (
            "equivalence proof chain residuals (relative):\n"
            f"  Coriolis identity (torque-free): {self.coriolis_residual:.3e}\n"
            f"  Newton-Euler closure (revised model): {self.newton_euler_residual:.3e}\n"
            f"  Newton-Euler closure (literature model): {self.literature_residual:.3e}\n"
        )


def check_proof_chain(eta, eta_dot, torque, params: QuadParams) -> ProofChainReport:
    """Evaluate the proof that the revised model closes the Newton-Euler
    equations while the literature model does not."""
    eta = np.asarray(eta, float)
    eta_dot = np.asarray(eta_dot, float)
    torque = np.asarray(torque, float)
    w = w_matrix(eta)
    wd = w_dot(eta, eta_dot)
    j = params.inertia
    omega = w @ eta_dot
    state = np.concatenate([np.zeros(3), eta, np.zeros(3), eta_dot])
    zero = np.zeros(3)

    scale = max(np.linalg.norm(torque), 1e-12)

    def ne_residual(eta_dd):
        omega_dot = wd @ eta_dot + w @ eta_dd
        return j @ omega_dot + np.cross(omega, j @ omega) - torque

    rel_dd = rel_rates(state, 0.0, torque, zero, params)[models.ETADOT]
    lit_dd = el_lit_rates(state, 0.0, torque, zero, params)[models.ETADOT]

    # the torque-free terms of W^T (J w_dot + S(w) J w) are C eta_dot
    rate_terms = w.T @ (j @ wd @ eta_dot + np.cross(omega, j @ omega))
    coriolis = coriolis_matrix(eta, eta_dot, params) @ eta_dot - rate_terms
    return ProofChainReport(
        coriolis_residual=float(np.linalg.norm(coriolis)
                                / max(np.linalg.norm(rate_terms), 1e-12)),
        newton_euler_residual=float(np.linalg.norm(ne_residual(rel_dd)) / scale),
        literature_residual=float(np.linalg.norm(ne_residual(lit_dd)) / scale),
    )


def rmse(a: Trajectory, b: Trajectory, group: str) -> float:
    """Pooled RMSE of one coordinate group between equal-grid trajectories."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if len(a) != len(b) or a.dt != b.dt:
        raise ValueError(
            f"trajectory grids differ: {len(a)} @ {a.dt} vs {len(b)} @ {b.dt}")
    d = a.states[:, GROUPS[group]] - b.states[:, GROUPS[group]]
    return math.sqrt(float((d * d).mean()))


@dataclass(frozen=True)
class ComparisonConfig:
    """Settings for an open-loop model comparison run."""

    dt: float = 0.01
    duration: float = 60.0
    integrator: str = "rk4"
    params: QuadParams = field(default_factory=QuadParams)
    oracle_refinement: int = 100

    def __post_init__(self):
        step_count(self.duration, self.dt)   # raises for no whole step
        if self.integrator != "rk4":
            raise ValueError(f"integrator must be rk4, got {self.integrator!r}")
        try:
            refine = operator.index(self.oracle_refinement)
        except TypeError:
            refine = 0
        if refine < 2:
            raise ValueError(f"oracle_refinement must be an integer >= 2, "
                             f"got {self.oracle_refinement!r}")


@dataclass
class RmseTable:
    """RMSE per coordinate group (rows) per model (columns)."""

    reference: str
    columns: list[str]
    values: dict[str, list[float]]    # group -> one value per column
    dt: float
    duration: float
    notes: dict[str, str] = field(default_factory=dict)

    def value(self, group: str, column: str) -> float:
        return self.values[group][self.columns.index(column)]

    def format_text(self) -> str:
        width = 14
        head = "group".ljust(8) + "".join(c.rjust(width) for c in self.columns)
        lines = [
            f"RMSE vs {self.reference} "
            f"(dt={self.dt:g} s, duration={self.duration:g} s, rk4)",
            head,
        ]
        for group in GROUPS:
            row = group.ljust(8)
            row += "".join(f"{v:>{width}.6e}" for v in self.values[group])
            lines.append(row)
        for k, v in self.notes.items():
            lines.append(f"note: {k}: {v}")
        return "\n".join(lines)

    def csv_rows(self):
        yield ["group"] + list(self.columns)
        for group in GROUPS:
            yield [group] + [repr(v) for v in self.values[group]]


_MODEL_FNS = {
    "ne": fast.ne_derivative_321,
    "el": fast.el_lit_derivative_321,
    "rel": fast.rel_derivative_321,
}


def simulate_model(model: str, input_fn, cfg: ComparisonConfig,
                   n_steps: int | None = None) -> Trajectory:
    """Simulate one named model from rest; n_steps overrides cfg.duration."""
    if model not in _MODEL_FNS:
        raise ValueError(f"unknown model {model!r}, expected ne, el or rel")
    deriv = _MODEL_FNS[model]
    params = cfg.params

    def f(t, y):   # the kernels take rotor speeds as Python floats
        u = input_fn(t)
        return deriv(y, u.tolist() if isinstance(u, np.ndarray) else u, params)

    return simulate(f, np.zeros(12), cfg.duration, cfg.dt, n_steps=n_steps)


def _as_gen(traj: Trajectory) -> Trajectory:
    return replace(traj, states=body_to_gen(traj.states))


def _score(table: RmseTable, ref_label: str, ref: Trajectory,
           runs: dict[str, Trajectory]):
    """Fill in the RMSE of each run against ``ref``.  A diverged run, or
    every run when ``ref`` diverged, scores inf and gets a note."""
    for label, traj in {ref_label: ref, **runs}.items():
        if traj.diverged:
            table.notes[label] = (f"diverged at step {traj.diverged_step}: "
                                  f"{traj.diverged_reason}")
    for group in GROUPS:
        table.values[group] = [
            math.inf if ref.diverged or traj.diverged
            else rmse(ref, traj, group) for traj in runs.values()]


def run_model_comparison(cfg: ComparisonConfig,
                         input_fn=drifting_rotor_input) -> RmseTable:
    """RMSE of both E-L variants against the Newton-Euler model."""
    ne = _as_gen(simulate_model("ne", input_fn, cfg))
    el = simulate_model("el", input_fn, cfg)
    rel = simulate_model("rel", input_fn, cfg)
    table = RmseTable("ne", ["el", "rel"], {}, cfg.dt, cfg.duration)
    _score(table, "ne", ne, {"el": el, "rel": rel})
    return table


def run_oracle_comparison(cfg: ComparisonConfig,
                          input_fn=drifting_rotor_input) -> RmseTable:
    """RMSE of all three models against a refined-step reference.

    The reference is the Newton-Euler model, RK4 at dt / oracle_refinement
    for oracle_refinement times the run's steps, subsampled back onto the
    run grid.  It stands in for an external multibody engine.
    """
    refine = cfg.oracle_refinement
    ref_cfg = replace(cfg, dt=cfg.dt / refine)
    ref = simulate_model("ne", input_fn, ref_cfg,
                         refine * step_count(cfg.duration, cfg.dt))
    # every refine-th sample; a divergence keeps its step on the fine grid
    oracle = _as_gen(replace(ref, dt=cfg.dt, states=ref.states[::refine]))
    ne = _as_gen(simulate_model("ne", input_fn, cfg))
    el = simulate_model("el", input_fn, cfg)
    rel = simulate_model("rel", input_fn, cfg)
    table = RmseTable("refined-step reference (substitute for a multibody engine)",
                      ["ne", "el", "rel"], {}, cfg.dt, cfg.duration)
    table.notes["oracle"] = f"Newton-Euler RK4 at dt/{refine}"
    _score(table, "reference", oracle, {"ne": ne, "el": el, "rel": rel})
    return table
