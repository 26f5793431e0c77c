"""Property tests for the config parser: valid values round-trip, and any
value string gives a RunConfig or a ConfigError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rotordyn import cli
from rotordyn.cli import ConfigError, RunConfig, parse_config

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
four = st.tuples(finite, finite, finite, finite)

# A valid value for every (section, key); thrust_coeff = 0 means
# "calibrate for hover", so it would not read back as written.
VALID = {
    ("run", "command"): st.sampled_from(cli.COMMANDS),
    ("run", "model"): st.sampled_from(("ne", "el", "rel")),
    ("run", "dt"): positive,
    ("run", "duration"): positive,
    ("run", "integrator"): st.just("rk4"),
    ("run", "seed"): st.integers(min_value=0, max_value=2**64),
    ("run", "samples"): st.integers(min_value=1, max_value=10**6),
    ("run", "tol"): positive,
    ("run", "out"): st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
    ("run", "compensator"): st.sampled_from(("el", "rel")),
    **{("params", k): positive for k in
       ("mass", "jx", "jy", "jz", "arm", "thrust_coeff", "drag_coeff")},
    ("params", "gravity"): finite,
    ("params", "rotor_inertia"): nonnegative,
    ("params", "gyro"): st.booleans(),
    **{("gains", k): nonnegative for k in
       ("pos_kp", "pos_kd", "att_kp", "att_ki", "att_kd")},
    ("helix", "radius"): positive,
    ("helix", "rate"): finite,
    ("helix", "climb"): finite,
    ("helix", "yaw"): finite,
    ("helix", "yaw_mode"): st.sampled_from(("constant", "tangent")),
    # every key is written, and preset = drifting takes no base/amp/freq
    ("input", "preset"): st.just("custom"),
    ("input", "base"): four,
    ("input", "amp"): four,
    ("input", "freq"): finite,
    ("sweep", "ki_grid"): st.lists(nonnegative, min_size=1,
                                   max_size=5).map(tuple),
    ("sweep", "compensators"): st.lists(st.sampled_from(("el", "rel")),
                                        min_size=1, max_size=3).map(tuple),
}


def _text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_text(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def _read(cfg: RunConfig, section: str, key: str):
    if section in ("run", "sweep"):
        return getattr(cfg, key)
    if section == "input":
        return getattr(cfg, "input_" + key)
    if key == "gyro":
        return cfg.params.gyro_enabled
    return getattr(getattr(cfg, section), key)


def test_every_key_has_a_strategy():
    assert set(VALID) == {(section, key)
                          for section, keys in cli._SECTIONS.items()
                          for key in keys}


@settings(max_examples=40, deadline=None)
@given(st.fixed_dictionaries(VALID).filter(    # tangent yaw needs a rate
    lambda v: v["helix", "yaw_mode"] == "constant" or v["helix", "rate"]))
def test_valid_values_round_trip(values):
    lines = []
    for section in cli._SECTIONS:
        lines.append(f"[{section}]")
        lines += [f"{key} = {_text(v)}"
                  for (s, key), v in values.items() if s == section]
    cfg = parse_config("\n".join(lines))
    for (section, key), value in values.items():
        assert _read(cfg, section, key) == value, (section, key)


value_strings = st.one_of(
    st.text(max_size=30),
    st.floats().map(repr),
    st.integers().map(str),
    st.lists(st.floats(), max_size=5).map(lambda xs: ", ".join(map(repr, xs))),
    st.sampled_from(("nan", "-inf", "1e999", "", "true", "rk4", "el, rel",
                     "0", "-0.0", "1_000", " 1 , 2 ,3, 4")),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(VALID)), value_strings)
def test_any_value_gives_config_or_config_error(key, value):
    section, name = key
    try:
        cfg = parse_config(f"[{section}]\n{name} = {value}\n")
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
