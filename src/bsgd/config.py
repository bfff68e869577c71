"""Flat key = value run configuration with section headers.

The format is stock configparser INI, chosen for diff-friendliness.  The
canonical writer always emits the full key set, so parse -> serialize ->
parse is the identity and two semantically equal configs serialize to
byte-identical text.  A run manifest is the same document plus a [result]
section, which the parser ignores; any manifest is therefore a valid
config that reproduces its run.  Any other section or key outside the
schema is rejected, so a misspelled key fails instead of running on a
default.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields

from .solver import mode_exponents

__all__ = ["RunConfig", "parse_config", "serialize_config", "default_mu0"]


# Calibrated base step-sizes for the Schlieren operator (unit-amplitude
# sparse phantoms, practice mode), found by a coarse grid search that
# maximizes descent without divergence; keyed by (r_X, r_Y).
SCHLIEREN_MU0 = {
    (2.0, 2.0): 1.0,
    (1.5, 2.0): 1.0,
    (1.1, 2.0): 1.0,
    (2.0, 1.1): 0.3,
    (1.1, 1.1): 0.3,
}


def default_mu0(experiment: str, r_x: float, r_y: float) -> float:
    if experiment == "schlieren":
        return SCHLIEREN_MU0.get((r_x, r_y), 0.3)
    return 0.5


_SCHEMA = {
    "experiment": [("kind", "experiment", str)],
    "problem": [
        ("rows", "rows", int),
        ("cols", "cols", int),
        ("n_angles", "n_angles", int),
        ("n_detectors", "n_detectors", int),
        ("batch_size", "batch_size", int),
        ("dim", "dim", int),
        ("diag_min", "diag_min", float),
        ("diag_max", "diag_max", float),
        ("beta", "beta", float),
        ("n_blocks", "n_blocks", int),
        ("problem_seed", "problem_seed", int),
        ("truth_scale", "truth_scale", float),
    ],
    "phantom": [
        ("kind", "phantom_kind", str),
        ("n_blobs", "n_blobs", int),
        ("amplitude", "amplitude", float),
        ("seed", "phantom_seed", int),
        ("background", "phantom_background", float),
        ("path", "phantom_path", str),
    ],
    "space": [
        ("r_x", "r_x", float),
        ("r_y", "r_y", float),
        ("p", "p", float),
        ("q", "q", float),
        ("mode", "mode", str),
    ],
    "noise": [
        ("kind", "noise_kind", str),
        ("epsilon", "epsilon", float),
        ("kappa", "kappa", float),
        ("seed", "noise_seed", int),
    ],
    "solver": [
        ("algorithm", "algorithm", str),
        ("mu0", "mu0", float),
        ("decay", "decay", float),
        ("epochs", "epochs", int),
        ("seed", "solver_seed", int),
        ("x0", "x0", float),
        ("record_every", "record_every", int),
        ("stopping", "stopping", str),
        ("gamma_budget", "gamma_budget", float),
    ],
    "estimates": [
        ("ball_radius", "gamma_ball_radius", float),
        ("n_samples", "gamma_samples", int),
        ("seed", "estimate_seed", int),
    ],
    "rates": [
        ("deltas", "rate_deltas", str),
        ("n_seeds", "rate_seeds", int),
        ("gamma_budget", "rate_gamma_budget", float),
    ],
}


@dataclass
class RunConfig:
    experiment: str = "schlieren"
    # Schlieren discretization
    rows: int = 32
    cols: int = 32
    n_angles: int = 30
    n_detectors: int = 45
    batch_size: int = 6
    # benchmark problem
    dim: int = 40
    diag_min: float = 0.9
    diag_max: float = 1.1
    beta: float = 0.0
    n_blocks: int = 5
    problem_seed: int = 0
    truth_scale: float = 1.0
    # phantom
    phantom_kind: str = "sparse_blobs"
    n_blobs: int = 4
    amplitude: float = 1.0
    phantom_seed: int = 7
    phantom_background: float = 0.0
    phantom_path: str = ""
    # spaces; p = q = 0 means "derive from the mode"
    r_x: float = 2.0
    r_y: float = 2.0
    p: float = 0.0
    q: float = 0.0
    mode: str = "practice"
    # noise
    noise_kind: str = "none"
    epsilon: float = 0.0
    kappa: float = 0.0
    noise_seed: int = 99
    # solver; mu0 = 0 means "use the calibrated default", record_every = 0
    # means "once per epoch"
    algorithm: str = "sgd"
    mu0: float = 0.0
    decay: float = 0.0
    epochs: int = 100
    solver_seed: int = 0
    x0: float = 0.01
    record_every: int = 0
    stopping: str = "max_epochs"
    gamma_budget: float = 0.0
    # constant estimation (tangential cone / derivative bound sampling)
    gamma_ball_radius: float = 0.25
    gamma_samples: int = 10
    estimate_seed: int = 1234
    # rate-study driver
    rate_deltas: str = "1e-1,3e-2,1e-2,3e-3"
    rate_seeds: int = 20
    rate_gamma_budget: float = 0.5

    def __post_init__(self):
        if self.experiment not in ("schlieren", "benchmark"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.algorithm not in ("sgd", "landweber"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.stopping not in ("max_epochs", "a_priori"):
            raise ValueError(f"unknown stopping rule {self.stopping!r}")
        if self.p < 0 or self.q < 0 or (self.p > 0) != (self.q > 0):
            raise ValueError(f"[space] p and q must both be positive or both "
                             f"0 (from the mode), got p={self.p}, q={self.q}")

    def resolved_pq(self) -> tuple[float, float]:
        if self.p > 0 and self.q > 0:
            return self.p, self.q
        return mode_exponents(self.mode, self.r_x, self.r_y)

    def resolved_mu0(self) -> float:
        if self.mu0 > 0:
            return self.mu0
        return default_mu0(self.experiment, self.r_x, self.r_y)

    def rate_delta_list(self) -> list[float]:
        return [float(tok) for tok in self.rate_deltas.split(",") if tok.strip()]


def parse_config(source) -> RunConfig:
    """Parse a config (or manifest) from a path or a string."""
    parser = configparser.ConfigParser()
    if isinstance(source, str) and "\n" in source:
        parser.read_string(source)
    else:
        read = parser.read(str(source))
        if not read:
            raise FileNotFoundError(f"config file not found: {source}")
    kwargs = {}
    for section in parser.sections():
        if section == "result":
            continue
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        entries = {key: (attr, conv) for key, attr, conv in _SCHEMA[section]}
        for key in parser.options(section):
            if key not in entries:
                raise ValueError(f"unknown key {key!r} in config section [{section}]")
            attr, conv = entries[key]
            kwargs[attr] = conv(parser.get(section, key))
    return RunConfig(**kwargs)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig, extra_sections: dict | None = None) -> str:
    """Canonical text form: full key set, fixed section and key order."""
    known = {f.name for f in fields(config)}
    out = io.StringIO()
    for section, entries in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, attr, _ in entries:
            if attr in known:
                out.write(f"{key} = {_fmt(getattr(config, attr))}\n")
        out.write("\n")
    for section, mapping in (extra_sections or {}).items():
        out.write(f"[{section}]\n")
        for key, value in mapping.items():
            out.write(f"{key} = {_fmt(value)}\n")
        out.write("\n")
    return out.getvalue()
