"""Flat key = value run configuration with section headers.

The format is stock configparser INI, chosen for diff-friendliness.  The
canonical writer always emits the full key set, so parse -> serialize ->
parse is the identity and two semantically equal configs serialize to
byte-identical text.  A run manifest is the same document plus a [result]
section, which the parser ignores; any manifest is therefore a valid
config that reproduces its run.  The schema is the fields of
``RunConfig``: each names its section and key, and the type of its default
converts the text.  Any other section or key is rejected, so a misspelled
key fails instead of running on a default, and so do values no run can
use (README, "Configuration").
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import Field, dataclass, field, fields

from .noise import _KINDS as _NOISE_KINDS
from .solver import check_mode_exponents, format_value, mode_exponents

__all__ = ["RunConfig", "parse_config", "serialize_config"]


def _entry(section: str, default, key: str | None = None, *, low=None,
           only: bool = False):
    """A config field read from ``key`` (default: the field name) in
    ``[section]``, converted by the type of ``default``.  ``low`` is its
    least legal value; with ``only`` its default is its one legal value,
    kept so that every written manifest parses."""
    return field(default=default, metadata={"section": section, "key": key,
                                            "low": low, "only": only})


@dataclass
class RunConfig:
    """The config schema: each field is one INI entry, in file order."""

    experiment: str = _entry("experiment", "schlieren", key="kind")
    # Schlieren discretization
    rows: int = _entry("problem", 32, low=1)
    cols: int = _entry("problem", 32, low=1)
    n_angles: int = _entry("problem", 30, low=1)
    n_detectors: int = _entry("problem", 45, low=1)
    batch_size: int = _entry("problem", 6, low=1)
    # benchmark problem
    dim: int = _entry("problem", 40, low=1)
    diag_min: float = _entry("problem", 0.9)
    diag_max: float = _entry("problem", 1.1)
    beta: float = _entry("problem", 0.0)
    n_blocks: int = _entry("problem", 5, low=1)
    problem_seed: int = _entry("problem", 0)
    truth_scale: float = _entry("problem", 1.0)
    phantom_kind: str = _entry("phantom", "sparse_blobs", key="kind", only=True)
    n_blobs: int = _entry("phantom", 4)
    amplitude: float = _entry("phantom", 1.0)
    phantom_seed: int = _entry("phantom", 7, key="seed")
    phantom_background: float = _entry("phantom", 0.0, key="background",
                                      only=True)
    phantom_path: str = _entry("phantom", "", key="path")
    # p = q = 0 means "derive from the mode"
    r_x: float = _entry("space", 2.0)
    r_y: float = _entry("space", 2.0)
    p: float = _entry("space", 0.0)
    q: float = _entry("space", 0.0)
    mode: str = _entry("space", "practice")
    noise_kind: str = _entry("noise", "none", key="kind")
    epsilon: float = _entry("noise", 0.0, low=0.0)
    kappa: float = _entry("noise", 0.0)
    noise_seed: int = _entry("noise", 99, key="seed")
    # mu0 must be set; record_every = 0 means "once per epoch"
    algorithm: str = _entry("solver", "sgd")
    mu0: float = _entry("solver", 0.0)
    decay: float = _entry("solver", 0.0)
    epochs: int = _entry("solver", 100, low=1)
    solver_seed: int = _entry("solver", 0, key="seed")
    x0: float = _entry("solver", 0.01)
    record_every: int = _entry("solver", 0, low=0)
    stopping: str = _entry("solver", "max_epochs")
    gamma_budget: float = _entry("solver", 0.0)
    # constant estimation (tangential cone / derivative bound sampling)
    gamma_ball_radius: float = _entry("estimates", 0.25, key="ball_radius")
    gamma_samples: int = _entry("estimates", 10, key="n_samples", low=1)
    estimate_seed: int = _entry("estimates", 1234, key="seed")
    # rate-study driver
    rate_deltas: str = _entry("rates", "1e-1,3e-2,1e-2,3e-3", key="deltas")
    rate_seeds: int = _entry("rates", 20, key="n_seeds", low=1)
    rate_gamma_budget: float = _entry("rates", 0.5, key="gamma_budget")

    def __post_init__(self):
        for f in fields(self):
            value, low = getattr(self, f.name), f.metadata["low"]
            where = f"[{f.metadata['section']}] {f.metadata['key'] or f.name}"
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{where} must be finite, got {value}")
            if low is not None and value < low:
                raise ValueError(f"{where} must be >= {low}, got {value}")
            if f.metadata["only"] and value != f.default:
                raise ValueError(f"{where} accepts only "
                                 f"{format_value(f.default)}, got {value!r}")
        if self.experiment not in ("schlieren", "benchmark"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.algorithm not in ("sgd", "landweber"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.stopping not in ("max_epochs", "a_priori"):
            raise ValueError(f"unknown stopping rule {self.stopping!r}")
        if self.p < 0 or self.q < 0 or (self.p > 0) != (self.q > 0):
            raise ValueError(f"[space] p and q must both be positive or both "
                             f"0 (from the mode), got p={self.p}, q={self.q}")
        # also rejects an unknown mode
        check_mode_exponents(self.mode, self.r_x, self.r_y, *self.resolved_pq())
        if self.noise_kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}; "
                             f"expected one of {_NOISE_KINDS}")
        if self.noise_kind == "salt_pepper" and not 0.0 < self.kappa < 1.0:
            raise ValueError(f"[noise] kappa must lie in (0, 1) for "
                             f"{self.noise_kind} noise, got {self.kappa}")
        if self.experiment == "schlieren" and self.n_angles % self.batch_size:
            raise ValueError(f"[problem] batch_size {self.batch_size} must "
                             f"divide n_angles = {self.n_angles}")
        self.rate_delta_list()
        if self.mu0 <= 0:
            raise ValueError(f"[solver] mu0 must be set > 0, got {self.mu0}")

    def resolved_pq(self) -> tuple[float, float]:
        if self.p > 0 and self.q > 0:
            return self.p, self.q
        return mode_exponents(self.mode, self.r_x, self.r_y)

    def rate_delta_list(self) -> list[float]:
        try:
            deltas = [float(tok) for tok in self.rate_deltas.split(",") if tok.strip()]
        except ValueError:
            deltas = []
        if deltas and all(0.0 < d < math.inf for d in deltas):
            return deltas
        raise ValueError(f"[rates] deltas must list positive finite noise "
                         f"levels, got {self.rate_deltas!r}")


def _sections() -> dict[str, dict[str, Field]]:
    """{section: {key: field}} in declaration order."""
    sections: dict[str, dict[str, Field]] = {}
    for f in fields(RunConfig):
        key = f.metadata["key"] or f.name
        sections.setdefault(f.metadata["section"], {})[key] = f
    return sections


_SECTIONS = _sections()


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
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        entries = _SECTIONS[section]
        for key in parser.options(section):
            if key not in entries:
                raise ValueError(f"unknown key {key!r} in config section [{section}]")
            f = entries[key]
            kwargs[f.name] = type(f.default)(parser.get(section, key))
    return RunConfig(**kwargs)


def serialize_config(config: RunConfig, extra_sections: dict | None = None) -> str:
    """Canonical text form: full key set, fixed section and key order."""
    out = io.StringIO()
    sections = {section: {key: getattr(config, f.name) for key, f in entries.items()}
                for section, entries in _SECTIONS.items()}
    for section, mapping in {**sections, **(extra_sections or {})}.items():
        out.write(f"[{section}]\n")
        for key, value in mapping.items():
            out.write(f"{key} = {format_value(value)}\n")
        out.write("\n")
    return out.getvalue()
