import dataclasses
from pathlib import Path

import pytest

from bsgd.config import RunConfig, parse_config, serialize_config


MINIMAL = """
[experiment]
kind = benchmark

[solver]
mu0 = 0.5
epochs = 7
seed = 3
"""


def test_parse_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.experiment == "benchmark"
    assert cfg.mu0 == 0.5 and cfg.epochs == 7 and cfg.solver_seed == 3
    assert cfg.r_x == 2.0  # untouched default


def test_round_trip_is_identity():
    cfg = parse_config(MINIMAL)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_round_trip_from_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL)
    cfg = parse_config(path)
    canonical = tmp_path / "canonical.ini"
    canonical.write_text(serialize_config(cfg))
    assert parse_config(canonical) == cfg


def test_manifest_result_section_ignored():
    cfg = parse_config(MINIMAL)
    manifest = serialize_config(cfg, extra_sections={
        "result": {"delta": 0.01, "diverged": False}})
    assert parse_config(manifest) == cfg


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        parse_config("/nonexistent/path.ini")


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="experiment"):
        parse_config("[experiment]\nkind = sudoku\n")


@pytest.mark.parametrize("space", ["p = 3.0", "q = 3.0", "p = 3.0\nq = -2.0",
                                   "p = -1.0\nq = -1.0"])
def test_half_set_or_negative_gauge_powers_rejected(space):
    # the mode gives p and q; a config or older manifest that sets them fails
    with pytest.raises(ValueError, match=r"unknown key '[pq]' in config section \[space\]"):
        parse_config(MINIMAL + f"\n[space]\n{space}\n")


@pytest.mark.parametrize("text, message", [
    ("[noise]\nkind = gausian\n", "unknown noise kind 'gausian'"),
    ("[space]\nmode = practise\n", "unknown mode 'practise'"),
    ("[noise]\nepsilon = -0.01\n", r"\[noise\] epsilon must be >= 0"),
    ("[solver]\nmu0 = -0.5\n", r"\[solver\] mu0 must be set > 0"),
    ("[solver]\nrecord_every = -3\n", r"\[solver\] record_every must be >= 0"),
    ("[solver]\nmu0 = nan\n", r"\[solver\] mu0 must be finite, got nan"),
    ("[solver]\ndecay = nan\n", r"\[solver\] decay must be finite"),
    ("[space]\nr_x = inf\n", r"\[space\] r_x must be finite, got inf"),
    ("[space]\nr_x = 1.0\n", r"\[space\] r_x must be > 1, got 1.0"),
    ("[space]\nr_y = 0.5\n", r"\[space\] r_y must be > 1, got 0.5"),
    ("[estimates]\nball_radius = -inf\n", r"\[estimates\] ball_radius must be finite"),
    # no key sets the gauge powers, whatever their value
    ("[space]\nr_x = 1.1\np = 2.0\nq = 2.0\n", r"unknown key 'p' in config section \[space\]"),
    ("[space]\nmode = theory\nr_x = 1.5\np = 1.5\nq = 1.5\n",
     r"unknown key 'p' in config section \[space\]"),
    ("[noise]\nkind = salt_pepper\n", r"\[noise\] kappa must lie in \(0, 1\)"),
    ("[noise]\nkind = salt_pepper\nkappa = 1.0\n", r"\[noise\] kappa must lie in"),
    ("[solver]\nepochs = 7\n", r"\[solver\] mu0 must be set > 0, got 0.0"),
    ("[solver]\nepochs = 0\n", r"\[solver\] epochs must be >= 1, got 0"),
    ("[estimates]\nn_samples = 0\n", r"\[estimates\] n_samples must be >= 1"),
    ("[rates]\nn_seeds = 0\n", r"\[rates\] n_seeds must be >= 1"),
    ("[problem]\nrows = 0\n", r"\[problem\] rows must be >= 1"),
    ("[problem]\ncols = -1\n", r"\[problem\] cols must be >= 1"),
    ("[problem]\nn_angles = 0\n", r"\[problem\] n_angles must be >= 1"),
    ("[problem]\nn_detectors = 0\n", r"\[problem\] n_detectors must be >= 1"),
    ("[problem]\nbatch_size = 0\n", r"\[problem\] batch_size must be >= 1"),
    ("[problem]\ndim = 0\n", r"\[problem\] dim must be >= 1"),
    ("[problem]\nn_blocks = 0\n", r"\[problem\] n_blocks must be >= 1"),
    ("[problem]\nbatch_size = 7\n", r"batch_size 7 must divide n_angles = 30"),
    ("[rates]\ndeltas = \n", r"\[rates\] deltas must list"),
    ("[rates]\ndeltas = 1e-1,abc\n", r"\[rates\] deltas must list"),
    ("[rates]\ndeltas = nan,1e-2,1e-3\n", r"\[rates\] deltas must list"),
    ("[rates]\ndeltas = 1e-1,inf\n", r"\[rates\] deltas must list"),
    ("[rates]\ndeltas = 1e-1,0.0\n", r"\[rates\] deltas must list"),
    ("[phantom]\nkind = checkerboard\n", r"\[phantom\] kind accepts only sparse_blobs"),
    ("[phantom]\nn_blobs = -1\n", r"\[phantom\] n_blobs must be >= 0, got -1"),
    ("[solver]\nalgorithm = landweber\n",
     r"\[solver\] algorithm accepts only sgd, got 'landweber'"),
    # the benchmark reads the diagonal range, and a Schlieren run does not
    ("[experiment]\nkind = benchmark\n[problem]\ndiag_min = -1.0\n",
     r"\[problem\] diag_min and diag_max need 0 < diag_min <= diag_max, got -1.0, 1.1"),
    ("[experiment]\nkind = benchmark\n[problem]\ndiag_min = 1.2\n",
     r"\[problem\] diag_min and diag_max need 0 < diag_min <= diag_max, got 1.2, 1.1"),
    ("[problem]\ndiag_min = -1.0\n", r"\[solver\] mu0 must be set > 0"),
    ("[problem]\nproblem_seed = -1\n", r"\[problem\] problem_seed must be >= 0"),
    ("[phantom]\nseed = -1\n", r"\[phantom\] seed must be >= 0"),
    ("[noise]\nseed = -1\n", r"\[noise\] seed must be >= 0"),
    ("[solver]\nseed = -1\n", r"\[solver\] seed must be >= 0"),
    ("[estimates]\nseed = -1\n", r"\[estimates\] seed must be >= 0"),
    ("[solver]\ndecay = -0.5\n", r"\[solver\] decay must be >= 0"),
    ("[solver]\nstopping = a_priori\n", r"\[solver\] gamma_budget must be > 0, got 0.0"),
    # a_priori stopping reads the noise level, which noise-free data lack
    ("[solver]\nmu0 = 0.5\nstopping = a_priori\ngamma_budget = 0.5\n",
     r"a_priori stopping needs a positive noise level: \[solver\] stopping = "
     r"a_priori with \[noise\] kind = none has none"),
    ("[noise]\nkind = gaussian\n[solver]\nmu0 = 0.5\nstopping = a_priori\n"
     "gamma_budget = 0.5\n",
     r"\[noise\] kind = gaussian with epsilon = 0 has none"),
    ("[rates]\ngamma_budget = -1\n", r"\[rates\] gamma_budget must be > 0"),
    ("[estimates]\nball_radius = 0.0\n", r"\[estimates\] ball_radius must be > 0"),
    ("[estimates]\nball_radius = -1.0\n", r"\[estimates\] ball_radius must be > 0"),
])
def test_misspelled_or_negative_values_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        parse_config(text)


_ROOT = Path(__file__).resolve().parents[1]
_SHIPPED = sorted(_ROOT.glob("configs/*.ini")) + \
    sorted(_ROOT.glob("perfbench/configs/*.ini"))


@pytest.mark.parametrize("path", _SHIPPED,
                         ids=lambda p: p.relative_to(_ROOT).as_posix())
def test_shipped_config_parses_and_round_trips(path):
    cfg = parse_config(path)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_rate_delta_list_parsing():
    cfg = dataclasses.replace(parse_config(MINIMAL),
                              rate_deltas="1e-1, 3e-2,1e-2")
    assert cfg.rate_delta_list() == [0.1, 0.03, 0.01]


@pytest.mark.parametrize("text, message", [
    ("[solver]\nepoch = 5\n", r"'epoch'.*\[solver\]"),
    ("[solver]\nmu_0 = 3\n", r"'mu_0'.*\[solver\]"),
    ("[solvr]\nepochs = 5\n", r"section \[solvr\]"),
    # deleted keys: no run read them
    ("[phantom]\nbackground = 1.0\n", r"'background'.*\[phantom\]"),
    ("[problem]\ntruth_scale = 2.0\n", r"'truth_scale'.*\[problem\]"),
])
def test_unknown_keys_and_sections_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        parse_config(text)


# str fields that RunConfig checks against a fixed set of names
_OTHER_NAMES = {"experiment": "benchmark", "stopping": "a_priori",
                "noise_kind": "gaussian", "mode": "theory"}


def _other_value(f):
    """A value of the field's declared type that differs from its default,
    or the default itself for a key with one legal value."""
    if f.metadata["only"]:
        return f.default
    if f.type == "int":
        return f.default + 3
    if f.type == "float":
        return f.default + 0.375
    assert f.type == "str", f.name
    return _OTHER_NAMES.get(f.name, f.default + "_other")


def test_every_field_round_trips_through_its_entry():
    values = {f.name: _other_value(f) for f in dataclasses.fields(RunConfig)}
    values["rate_deltas"] = "1e-1,5e-2"
    cfg = RunConfig(**values)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    for f in dataclasses.fields(RunConfig):
        assert type(getattr(again, f.name)).__name__ == f.type, f.name
        if f.metadata["only"]:
            assert getattr(again, f.name) == f.default, f.name
        else:
            assert getattr(again, f.name) != f.default, f.name
    assert serialize_config(again) == text
