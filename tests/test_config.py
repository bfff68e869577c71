import dataclasses

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


def test_resolved_pq_modes():
    cfg = parse_config(MINIMAL)
    assert dataclasses.replace(cfg, mode="practice", r_x=1.1,
                               r_y=1.5).resolved_pq() == (1.1, 1.5)
    assert dataclasses.replace(cfg, mode="theory", r_x=1.1,
                               r_y=1.5).resolved_pq() == (2.0, 2.0)
    assert dataclasses.replace(cfg, p=3.0, q=2.0).resolved_pq() == (3.0, 2.0)


@pytest.mark.parametrize("space", ["p = 3.0", "q = 3.0", "p = 3.0\nq = -2.0",
                                   "p = -1.0\nq = -1.0"])
def test_half_set_or_negative_gauge_powers_rejected(space):
    with pytest.raises(ValueError, match="both"):
        parse_config(MINIMAL + f"\n[space]\n{space}\n")


def test_rate_delta_list_parsing():
    cfg = dataclasses.replace(parse_config(MINIMAL),
                              rate_deltas="1e-1, 3e-2,1e-2")
    assert cfg.rate_delta_list() == [0.1, 0.03, 0.01]


def test_default_mu0_lookup():
    cfg = parse_config(MINIMAL)
    assert cfg.resolved_mu0() == 0.5
    auto = dataclasses.replace(cfg, mu0=0.0)
    assert auto.resolved_mu0() > 0


@pytest.mark.parametrize("text, message", [
    ("[solver]\nepoch = 5\n", r"'epoch'.*\[solver\]"),
    ("[solver]\nmu_0 = 3\n", r"'mu_0'.*\[solver\]"),
    ("[solvr]\nepochs = 5\n", r"section \[solvr\]"),
])
def test_unknown_keys_and_sections_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        parse_config(text)


# str fields that RunConfig checks against a fixed set of names
_OTHER_NAMES = {"experiment": "benchmark", "algorithm": "landweber",
                "stopping": "a_priori"}


def _other_value(f):
    """A value of the field's declared type that differs from its default."""
    if f.type == "int":
        return f.default + 3
    if f.type == "float":
        return f.default + 0.375
    assert f.type == "str", f.name
    return _OTHER_NAMES.get(f.name, f.default + "_other")


def test_every_field_round_trips_through_its_entry():
    cfg = RunConfig(**{f.name: _other_value(f)
                       for f in dataclasses.fields(RunConfig)})
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    for f in dataclasses.fields(RunConfig):
        assert type(getattr(again, f.name)).__name__ == f.type, f.name
        assert getattr(again, f.name) != f.default, f.name
    assert serialize_config(again) == text
