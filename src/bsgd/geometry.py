"""Finite-dimensional L^r vectors, duality maps, and Bregman distances.

The discrete L^r norm of a value array is the plain l^r norm of its entries
(unit cell measure); a uniform mesh weight would cancel in every relative
quantity used downstream.

Exponent conventions: ``r`` is the Lebesgue exponent of the space, ``p`` the
power of the gauge ``t -> t**(p-1)`` defining the duality map.  Conjugates
``r_star``, ``p_star`` are stored explicitly and validated once, never
recomputed ad hoc, so the forward and inverse maps cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridVector",
    "DualVector",
    "GeometryParams",
    "conjugate_exponent",
    "lr_norm",
    "pairing",
    "duality_map",
    "inverse_duality_map",
    "bregman_distance",
    "smoothness_constant",
]

_CONJUGACY_TOL = 1e-12


def _require_finite(vals: np.ndarray) -> None:
    """The finiteness check of every vector wrapper, also made on raw arrays.
    Counting the finite entries is quicker than ``all()`` on their mask."""
    if np.count_nonzero(np.isfinite(vals)) != vals.size:
        raise ValueError("vector entries must be finite (no NaN/Inf)")


def _as_finite_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.size == 0:
        raise ValueError("vector must have at least one entry")
    _require_finite(arr)
    arr.setflags(write=False)
    return arr


class _LebesgueVector:
    """Immutable value array; shared base for primal and dual vectors."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = _as_finite_array(values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def ravel(self) -> np.ndarray:
        return self.values.ravel()

    def __add__(self, other):
        self._check_same(other)
        return type(self)(self.values + other.values)

    def __sub__(self, other):
        self._check_same(other)
        return type(self)(self.values - other.values)

    def __mul__(self, scalar):
        return type(self)(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self.values)

    def _check_same(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.shape})"


class GridVector(_LebesgueVector):
    """Element of a discretized L^r space (solution images, data blocks)."""


class DualVector(_LebesgueVector):
    """Element of the dual space (duality-map images, gradients)."""


def conjugate_exponent(e: float) -> float:
    """Conjugate exponent e* with 1/e + 1/e* = 1, for e in (1, inf)."""
    if not 1 < e < math.inf:
        raise ValueError(f"exponent must exceed 1 and be finite, got {e}")
    return e / (e - 1.0)


@dataclass(frozen=True)
class GeometryParams:
    """Exponent pack governing duality maps and Bregman distances.

    ``G_pstar`` (p*-smoothness constant of the dual) is optional; closed
    forms are known only for special exponent combinations, see
    :func:`smoothness_constant`.
    """

    r: float
    p: float
    r_star: float
    p_star: float
    G_pstar: float | None = None

    def __post_init__(self):
        if not all(1 < e < math.inf for e in (self.r, self.p, self.r_star, self.p_star)):
            raise ValueError(f"exponents must exceed 1 and be finite: r={self.r}, "
                             f"p={self.p}, r_star={self.r_star}, p_star={self.p_star}")
        for e, e_star, name in ((self.r, self.r_star, "r"), (self.p, self.p_star, "p")):
            if abs(1.0 / e + 1.0 / e_star - 1.0) > _CONJUGACY_TOL:
                raise ValueError(
                    f"{name}={e} and {name}_star={e_star} are not conjugate"
                )

    @classmethod
    def for_lebesgue(cls, r: float, p: float) -> "GeometryParams":
        """Parameters for L^r with gauge power p."""
        return cls(
            r=r,
            p=p,
            r_star=conjugate_exponent(r),
            p_star=conjugate_exponent(p),
            G_pstar=smoothness_constant(conjugate_exponent(r), conjugate_exponent(p)),
        )



def _values(v) -> np.ndarray:
    if isinstance(v, _LebesgueVector):
        return v.values
    return _as_finite_array(v)


def lr_norm(v, r: float) -> float:
    """Discrete L^r norm (sum |v_j|^r)^(1/r), for r in (1, inf)."""
    vals = _values(v).ravel()
    return _lr_norm_raw(vals, r)


def _lr_norm_raw(vals: np.ndarray, r: float) -> float:
    if not 1 < r < math.inf:
        raise ValueError(f"exponent must exceed 1 and be finite, got {r}")
    if r == 2.0:
        # np.linalg.norm's own formula for a real vector, minus its dispatch
        return math.sqrt(vals.dot(vals))
    terms = np.abs(vals)
    terms **= r
    return float(terms.sum() ** (1.0 / r))


def pairing(dual, primal) -> float:
    """Duality pairing <dual, primal>: the plain coordinate dot product."""
    a = _values(dual).ravel()
    b = _values(primal).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def _signed_power(vals: np.ndarray, expnt: float) -> np.ndarray:
    """sign(v) * |v|**expnt via log-domain evaluation, hard zero at v = 0.

    The exponent-1 case returns the values untouched so that the Hilbert
    duality map is bitwise the identity.  With no zero entry (NaN counts as
    nonzero, as in the mask) the formula runs on ``vals`` itself, in one
    output array: ``copysign`` gives sign(v) * e's bits for every e >= 0,
    and the result has the masked path's bits without its gather and
    scatter.
    """
    if expnt == 1.0:
        return vals.copy()
    if vals.all():
        out = np.abs(vals)
        np.log(out, out=out)
        out *= expnt
        np.exp(out, out=out)
        return np.copysign(out, vals, out=out)
    out = np.zeros_like(vals)
    nz = vals != 0.0
    out[nz] = np.sign(vals[nz]) * np.exp(expnt * np.log(np.abs(vals[nz])))
    return out


def _duality_map_raw(vals: np.ndarray, r: float, p: float,
                     peak: float | None = None) -> np.ndarray:
    """J_p on L^r of a raw array; ``peak`` is max|v| when the caller has
    already taken it."""
    if r == p and peak is None:
        peak = np.abs(vals).max()
    if r == p and peak >= 2.0 ** (-1000.0 / r):
        # The norm factor is norm**0.0 == 1.0 and only the zero test reads
        # the norm.  An entry this large has |v|^r >= 2**-1000, which cannot
        # underflow to 0.0, so the map is not zero (NaN takes the norm path).
        return _signed_power(vals, r - 1.0)
    norm = _lr_norm_raw(vals.ravel(), r)
    if norm == 0.0:
        # J_p(0) = {0}; also the limit along every ray, including p < r
        # where the norm power alone would be singular.
        return np.zeros_like(vals)
    return norm ** (p - r) * _signed_power(vals, r - 1.0)


def _duality_map_rows(vals: np.ndarray, r: float) -> np.ndarray:
    """``_duality_map_raw(row, r, r)`` of each row of a 2-D array, bit for bit.

    Rows may end in zero padding.  The norm factor is norm**0.0 == 1.0 and
    only the zero-row test reads the norm; it asks whether a row's |v|^r
    terms sum to 0.0, that is whether each term is 0.0, which neither the
    summation order nor the padding changes.  The serial map first tests
    max|v| against a bound to skip the powers of a long vector; on these
    short rows the terms cost less than that test.
    """
    out = _signed_power(vals, r - 1.0)
    terms = vals * vals if r == 2.0 else np.abs(vals) ** r
    sums = terms.sum(axis=1)
    if all(sums.tolist()):  # NaN counts as nonzero, as in the serial test
        return out
    out[sums == 0.0] = 0.0
    return out


def duality_map(v: GridVector, g: GeometryParams) -> DualVector:
    """Duality map J_p on L^r: ||v||_r^(p-r) |v|^(r-1) sign(v)."""
    return DualVector(_duality_map_raw(_values(v), g.r, g.p))


def inverse_duality_map(w: DualVector, g: GeometryParams) -> GridVector:
    """Inverse of J_p: the dual-space map with exponents (r*, p*)."""
    return GridVector(_duality_map_raw(_values(w), g.r_star, g.p_star))


def bregman_distance(z: GridVector, w: GridVector, g: GeometryParams) -> float:
    """Bregman distance (1/p*)||z||^p + (1/p)||w||^p - <J_p(z), w>.

    Exactly zero for identical inputs; otherwise the raw floating-point
    value is returned (it may undershoot zero by roundoff for z ~ w).
    """
    zv, wv = _values(z), _values(w)
    if zv.shape != wv.shape:
        raise ValueError(f"shape mismatch: {zv.shape} vs {wv.shape}")
    return _bregman_raw(zv, wv, _lr_norm_raw(wv.ravel(), g.r), g)


def _bregman_raw(zv: np.ndarray, wv: np.ndarray, w_norm: float,
                 g: GeometryParams) -> float:
    """``bregman_distance`` of raw arrays of one shape, given ||w||_r; a
    loop that measures against one fixed w computes its norm once."""
    if np.array_equal(zv, wv):
        return 0.0
    nz = _lr_norm_raw(zv.ravel(), g.r)
    jz = _duality_map_raw(zv, g.r, g.p)
    return nz**g.p / g.p_star + w_norm**g.p / g.p - float(np.dot(jz.ravel(), wv.ravel()))


def _scalar_bregman_ratio_max(s: float) -> float:
    """Maximum over scalars of D_s(t, t+1) for the L^s gauge power p = s.

    With p = s the Bregman distance is separable across coordinates, so a
    scalar maximum of D(z, w)/|w - z|^s gives a valid vector constant.
    """
    s_star = conjugate_exponent(s)

    def f(t: float) -> float:
        js = math.copysign(abs(t) ** (s - 1.0), t) if t != 0.0 else 0.0
        return abs(t) ** s / s_star + abs(t + 1.0) ** s / s - js * (t + 1.0)

    ts = np.concatenate([-np.logspace(-3, 3, 400)[::-1], [0.0], np.logspace(-3, 3, 400)])
    fs = [f(t) for t in ts]
    idx = int(np.argmax(fs))
    # golden-section search on the grid maximum's bracket; 80 steps shrink
    # it to 0.618**80 ~ 2e-17 of its width
    a = float(ts[max(idx - 1, 0)])
    b = float(ts[min(idx + 1, len(ts) - 1)])
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - shrink * (b - a), a + shrink * (b - a)
        if f(c) > f(d):
            b = d
        else:
            a = c
    return max(f(0.5 * (a + b)), fs[idx])


@lru_cache(maxsize=None)
def smoothness_constant(r_star: float, p_star: float) -> float | None:
    """p*-smoothness constant G of L^r*: D(z,w) <= (G/p*) ||w-z||_r*^p*.

    Known cases: Hilbert gives 1; r* >= 2 with p* = 2 gives r* - 1;
    r* < 2 with p* = r* is computed from the separable scalar problem.
    Returns None outside the p*-smooth regime.
    """
    if r_star == 2.0 and p_star == 2.0:
        return 1.0
    if r_star >= 2.0 and p_star == 2.0:
        return r_star - 1.0
    if 1.0 < r_star < 2.0 and p_star == r_star:
        return r_star * _scalar_bregman_ratio_max(r_star)
    return None
