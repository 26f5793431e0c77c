"""Exact outputs of short runs, pinned bit for bit.

A change that is meant to leave the numbers alone (a faster kernel, a
leaner loop) must keep every value here.  The values were recorded with
the helper-composed derivative kernels, before they were written out as
straight-line bodies, on x86_64 Linux with Python 3.11.7 and numpy 2.4.6.
The ``track_rel_tangent`` value was recorded later, the same way, with the
closed-loop control step as it was before it computed its attitude
kinematics in one pass.  The ``simulate_ne`` hash and ``VERIFY_TEXT`` pin
the two outputs of the benchmark's ``rotordyn run`` + ``verify`` path; they
were recorded later still, before the rotor input was written out for four
rotors and before the relation report kept its worst states; ``VERIFY_TEXT``
was re-recorded when the relations took their derivatives by complex step
and the proof chain gained the Coriolis identity.  They depend
on the platform's libm (sin, cos): on another box, a failure here first
says that the platform differs, not that the code does.

Each run goes through ``cli.main`` and is pinned by the sha256 of the CSV
it writes, whose floats are ``repr`` strings; the oracle run (refinement
10, which the CLI does not expose) is pinned by the reprs of its table.
"""

import hashlib
import pathlib

import pytest

from rotordyn import cli
from rotordyn.lab import ComparisonConfig, run_oracle_comparison
from rotordyn.models import QuadParams

ROOT = pathlib.Path(__file__).resolve().parents[1]

SIMULATE = """
[run]
command = simulate
model = {model}
dt = 0.01
[input]
preset = drifting
"""

TRACK = """
[run]
command = track
compensator = el
dt = 0.002
[gains]
att_ki = 40000
"""

# fig4's shape: the revised compensator on the tangent-yaw helix
TRACK_REL_TANGENT = """
[run]
command = track
compensator = rel
dt = 0.002
[helix]
yaw_mode = tangent
rate = 1.4
"""

CLI_RUNS = {
    "compare": (None, ["run", "--config", str(ROOT / "configs/table1.cfg"),
                       "--duration", "2"]),
    "simulate_ne": (SIMULATE.format(model="ne"), ["run", "--duration", "2"]),
    "simulate_el": (SIMULATE.format(model="el"), ["run", "--duration", "2"]),
    "simulate_rel": (SIMULATE.format(model="rel"), ["run", "--duration", "2"]),
    "track_el": (TRACK, ["run", "--duration", "1"]),
    "track_rel_tangent": (TRACK_REL_TANGENT, ["run", "--duration", "1"]),
    "sweep": (None, ["run", "--config", str(ROOT / "configs/fig3.cfg"),
                     "--duration", "0.3"]),
    "oracle": (None, ["run", "--config", str(ROOT / "configs/table3.cfg"),
                      "--duration", "0.5"]),
}

CSV_SHA256 = {
    "compare":
        "e117aca82b8919a0b0659975066d452a0497b859f65e3e67d2e538251b1328e3",
    "simulate_ne":
        "7fed885cd66c9ee92482b90ac15f0fa44798bb0883b537459ff02c7a539e1602",
    "simulate_el":
        "a48668efc105930959244c66e9c8a08177f9e26620749ccc776a8fb2f35be674",
    "simulate_rel":
        "af5403e24eff52d040b7ffc1bb6e06bf71c693a8f2af5c3f73195edcce0df59d",
    "track_el":
        "50689b23996232918ff71fa75e6eb9dba4632644ba788bf2cb7475fba066f1b5",
    "track_rel_tangent":
        "f3ab09985f13cc9afa6564bbcbc84003f17b3af1d666ffdf5b2836a5b9cb3bea",
    "sweep":
        "7837f7567e837d6eb789cd677e1534c9b8524172e1026044519c0e4ff65ef118",
    "oracle":
        "6751b2f6374bb72d896437fce510531e06738b0bb3d00ff35f9c70845514149b",
}

# what `track` prints for the el run that hits the attitude-error limit
TRACK_LINE = ("el compensator: diverged: attitude error limit exceeded, "
              "max|e_eta| = 1.6368e+00")

TRACK_REL_LINE = "rel compensator: tracked, max|e_eta| = 3.7733e-02"

# everything `rotordyn verify` prints at its defaults (1000 states, seed 0)
VERIFY_TEXT = """\
effective config:
  command = verify
  seed = 0
  samples = 1000
  tol = 1e-09
  params = QuadParams(mass=0.468, jx=0.004856, jy=0.004856, jz=0.008801, \
gravity=9.81, arm=0.225, thrust_coeff=5.064653404757345e-06, \
drag_coeff=1.14e-07, rotor_inertia=3.357e-05, gyro_enabled=True)
relation residuals over 1000 states (seed 0, complex-step derivatives, |pitch| < 1.3):
  R1: max residual 3.553e-15  (tol 1.0e-09)  pass  at eta = (+1.8968, -1.2455, -1.4694)
  R2: max residual 7.105e-15  (tol 1.0e-09)  pass  at eta = (-3.1119, +1.2653, -0.4120)
  R3: max residual 3.341e-16  (tol 1.0e-09)  pass  at eta = (-2.2914, +1.2567, +0.1398)
  R4: max residual 3.691e-15  (tol 1.0e-09)  pass  at eta = (+0.6704, -1.2658, -2.4024)
  R5: max residual 3.553e-15  (tol 1.0e-09)  pass  at eta = (-0.7140, -1.2845, -0.4636)
  R6: max residual 6.661e-16  (tol 1.0e-09)  pass  at eta = (-2.6794, -0.0418, +2.3176)
  R7: max residual 8.882e-16  (tol 1.0e-09)  pass  at eta = (-2.5589, -1.0593, -1.9023)
equivalence proof chain residuals (relative):
  Coriolis identity (torque-free): 4.214e-16
  Newton-Euler closure (revised model): 1.912e-16
  Newton-Euler closure (literature model): 2.675e-01

verify: PASS
"""

# run_oracle_comparison on the table3 vehicle, refinement 10, 0.5 s
ORACLE = {
    "p": ["2.1080531844454413e-13", "1.9046535106731972e-11",
          "2.1082944967111276e-13"],
    "eta": ["3.606040652500759e-15", "3.097166531031625e-10",
            "3.606025390627393e-15"],
    "pdot": ["3.665489355811684e-15", "2.499069655463907e-10",
             "3.3311125328917007e-15"],
    "etadot": ["1.7452218781683491e-16", "2.9277506312211436e-09",
               "1.791672471314479e-16"],
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_csv_is_unchanged(name, tmp_path, capsys):
    text, argv = CLI_RUNS[name]
    if text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[name]
    if name == "track_el":
        assert TRACK_LINE in capsys.readouterr().out.splitlines()
    if name == "track_rel_tangent":
        assert TRACK_REL_LINE in capsys.readouterr().out.splitlines()


def test_verify_text_is_unchanged(capsys):
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out == VERIFY_TEXT


def test_oracle_table_is_unchanged():
    heavy = QuadParams(jx=97.12e-3, jy=97.12e-3, jz=176.02e-3,
                       rotor_inertia=67.14e-5)
    table = run_oracle_comparison(ComparisonConfig(
        dt=0.01, duration=0.5, params=heavy, oracle_refinement=10))
    got = {g: [repr(v) for v in row] for g, row in table.values.items()}
    assert got == ORACLE
