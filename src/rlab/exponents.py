"""Exact exponent arithmetic: thresholds, region predicates, scaling laws.

Everything here is computed over ``fractions.Fraction`` so boundary
classifications, degeneracy scans and predicted slopes are exact; floats
never decide a region membership or a type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .curves import (
    Curve,
    TypeTuple,
    det_poly,
    poly_divmod,
    poly_gcd,
    poly_root_count,
    poly_squarefree,
    type_candidates,
)
from .errors import NotFiniteTypeError

Rational = Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        if x in ("inf", "oo"):
            raise ValueError("infinite value not allowed here")
        return Fraction(x)
    if isinstance(x, float):
        if not np.isfinite(x):
            raise ValueError("nonfinite value")
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


def ceil_of(x) -> int:
    """Exact ceiling of a rational."""
    f = _frac(x)
    return -((-f.numerator) // f.denominator)


# ----------------------------------------------------------------------
# exponent points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentPoint:
    """A Lebesgue exponent pair stored as (1/p, 1/q)."""

    inv_p: Fraction
    inv_q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "inv_p", _frac(self.inv_p))
        object.__setattr__(self, "inv_q", _frac(self.inv_q))
        if not (0 <= self.inv_p <= 1) or not (0 <= self.inv_q <= 1):
            raise ValueError("exponent pair must satisfy p, q >= 1")

    @classmethod
    def from_pq(cls, p, q) -> "ExponentPoint":
        return cls(_inv_exponent(p), _inv_exponent(q))

    @property
    def p(self):
        return float("inf") if self.inv_p == 0 else Fraction(1) / self.inv_p

    @property
    def q(self):
        return float("inf") if self.inv_q == 0 else Fraction(1) / self.inv_q


def _inv_exponent(p) -> Fraction:
    if p in ("inf", "oo") or (isinstance(p, float) and np.isinf(p)):
        return Fraction(0)
    f = _frac(p)
    if f < 1:
        raise ValueError(f"exponent {p} must be >= 1 (or inf)")
    return Fraction(1) / f


# ----------------------------------------------------------------------
# kappa / beta scaling functionals
# ----------------------------------------------------------------------

def kappa(a, alpha) -> Fraction:
    """Box-mass scaling functional of a derivative tuple at dimension alpha.

    For alpha in (0, d] this is
    (alpha + 1 - ceil(alpha)) * a_{d-ceil(alpha)+1} + sum of the last
    ceil(alpha)-1 entries; piecewise linear and continuous in alpha.
    """
    orders = tuple(a)
    d = len(orders)
    al = _frac(alpha)
    if not (0 < al <= d):
        raise ValueError(f"alpha must lie in (0, {d}]")
    ca = ceil_of(al)
    j = d - ca + 1  # 1-indexed
    head = (al + 1 - ca) * orders[j - 1]
    tail = sum(orders[j:], Fraction(0))
    return head + tail


def beta(alpha, d: int) -> Fraction:
    """kappa of the nondegenerate tuple (1, 2, ..., d)."""
    return kappa(tuple(range(1, d + 1)), alpha)


# ----------------------------------------------------------------------
# regions in the (1/p, 1/q) square
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Closed half-plane intersection {q >= q_threshold, 1/p + L/q <= 1}.

    ``classify`` is purely geometric (interior / boundary / exterior of the
    closed region).  ``holds`` answers whether the norm estimate is known
    to hold (True), known to fail (False), or open (None) at the point;
    the answer on the line depends on the region kind.
    """

    kind: str
    d: int
    q_threshold: Fraction
    line_coeff: Fraction
    line_closed: bool
    threshold_closed: bool = False

    def _slacks(self, pt: ExponentPoint) -> tuple:
        s_thresh = Fraction(1) / self.q_threshold - pt.inv_q  # >= 0 inside
        s_line = 1 - (pt.inv_p + self.line_coeff * pt.inv_q)  # >= 0 inside
        return (s_thresh, s_line)

    def classify(self, pt: ExponentPoint) -> str:
        s = self._slacks(pt)
        if any(x < 0 for x in s):
            return "exterior"
        if any(x == 0 for x in s):
            return "boundary"
        return "interior"

    def holds(self, pt: ExponentPoint):
        s_thresh, s_line = self._slacks(pt)
        if s_thresh < 0 or s_line < 0:
            return False
        line_ok = s_line > 0 or (s_line == 0 and self.line_closed)
        thresh_ok = s_thresh > 0 or (s_thresh == 0 and self.threshold_closed)
        if line_ok and thresh_ok:
            return True
        if self.kind == "hyperplane":
            # sharp characterization: anything else fails
            return False
        return None

    def describe(self) -> str:
        rel = "<=" if self.line_closed else "<"
        qrel = ">=" if self.threshold_closed else ">"
        return (
            f"{self.kind}(d={self.d}): q {qrel} {self.q_threshold}, "
            f"1/p + {self.line_coeff}/q {rel} 1"
        )


def sphere_region(d: int) -> Region:
    """Sharp range for nondegenerate curves against surface measure."""
    if d < 2:
        raise ValueError("d >= 2 required")
    return Region(
        kind="sphere",
        d=d,
        q_threshold=Fraction(d * d + d, 2),
        line_coeff=Fraction(d * d + d - 2, 2),
        line_closed=False,
    )


def finite_type_region(kappa_max, d: int) -> Region:
    """Range for finite-type curves; the scaling line is included."""
    if d < 2:
        raise ValueError("d >= 2 required")
    return Region(
        kind="finite_type",
        d=d,
        q_threshold=Fraction(d * d + d, 2),
        line_coeff=_frac(kappa_max),
        line_closed=True,
    )


def hyperplane_region(omega, d: int) -> Region:
    """Sharp range for moment-curve shadows on a hyperplane."""
    if d < 3:
        raise ValueError("d >= 3 required")
    base = Fraction(d * (d - 1), 2)
    return Region(
        kind="hyperplane",
        d=d,
        q_threshold=base + 1,
        line_coeff=base + _frac(omega),
        line_closed=True,
    )


def kdim_region(d: int, k: int) -> Region:
    """Known sufficient range against k-dimensional graph measures."""
    qc = kdim_threshold(d, k)
    return Region(
        kind="kdim",
        d=d,
        q_threshold=qc,
        line_coeff=qc - 1,
        line_closed=False,
    )


def kdim_threshold(d: int, k: int) -> Fraction:
    """Critical q for k-dimensional measures: (2d-k+1)k/2 + 1."""
    if not 2 <= k <= d - 1:
        raise ValueError(f"k must satisfy 2 <= k <= d-1, got k={k}, d={d}")
    return Fraction((2 * d - k + 1) * k, 2) + 1


def alpha_general_region(a, alpha, d: int) -> Region:
    """Range against alpha-dimensional measures for a type-a curve."""
    return Region(
        kind="alpha_general",
        d=d,
        q_threshold=beta(alpha, d) + 1,
        line_coeff=kappa(a, alpha),
        line_closed=True,
    )


def exponent_table(d: int) -> dict:
    """Headline constants for dimension d."""
    reg = sphere_region(d)
    return {
        "d": d,
        "q_critical": reg.q_threshold,
        "line_coeff": reg.line_coeff,
    }


# ----------------------------------------------------------------------
# predicted excess slopes for the lambda sweeps
# ----------------------------------------------------------------------

def predicted_excess(
    point: ExponentPoint,
    family: str,
    d: int,
    a=None,
    alpha=None,
    rho=None,
) -> Fraction:
    """Exact slope of log(ratio) vs log(lambda) for an input family.

    Positive means the construction beats the conjectured decay at the
    point (estimate must fail), negative means it is dominated.
    """
    if family == "knapp":
        line = Fraction(d * d + d - 2, 2)
        return (point.inv_p + line * point.inv_q - 1) / (2 * d)
    if family == "random":
        qc = Fraction(d * d + d, 2)
        return (qc * point.inv_q - 1) / (2 * d)
    if family == "alpha_rect":
        if a is None or alpha is None or rho is None:
            raise ValueError("alpha_rect needs a, alpha, rho")
        return _frac(rho) * (point.inv_p + kappa(a, alpha) * point.inv_q - 1)
    raise ValueError(f"unknown excess family {family!r}")


# ----------------------------------------------------------------------
# hyperplane shadows of the moment curve
# ----------------------------------------------------------------------

def _hyperplane_data(c_normal: Sequence, d: int):
    c = [_frac(x) for x in c_normal]
    if len(c) != d:
        raise ValueError(f"normal must have length {d}")
    if all(x == 0 for x in c):
        raise ValueError("normal vector must be nonzero")
    best = max(abs(x) for x in c)
    k = next(i for i in range(d) if abs(c[i]) == best) + 1  # 1-indexed
    h = [-c[i] / c[k - 1] for i in range(d) if i != k - 1]
    return k, h


def hyperplane_project(c_normal: Sequence, d: int):
    """Moment curve pushed to the hyperplane with normal c.

    The coordinate k maximizing |c_k| (1-indexed, ties toward the
    smallest) is solved out; the surviving component of index i becomes
    t^i/i! + h_i t^k/k! with h = -c/c_k.  Returns (k, h, curve).
    """
    k, h = _hyperplane_data(c_normal, d)
    rows = []
    slot = 0
    for i in range(1, d + 1):
        if i == k:
            continue
        width = max(i, k) + 1
        row = [Fraction(0)] * width
        row[i] = Fraction(1, math.factorial(i))
        row[k] += h[slot] * Fraction(1, math.factorial(k))
        rows.append(tuple(row))
        slot += 1
    curve = Curve(
        tuple(rows),
        domain=(0.0, 1.0),
        name=f"hyperplane(k={k})",
    )
    return k, tuple(h), curve


# ----------------------------------------------------------------------
# degeneracy scans
# ----------------------------------------------------------------------

def domain_types(curve: Curve) -> list:
    """Every type tuple the curve takes on its closed domain, exactly.

    ``rest`` is a square-free polynomial whose zeros are the points not
    yet typed; the zero row stands for every point, so the first
    determinant that is not identically zero types the generic points.
    For each candidate a in ``type_candidates`` order, the zeros of
    rest / gcd(rest, det_a) have type a, and a Sturm count decides
    whether one lies in the domain.  No float takes part in a decision.
    """
    lo, hi = curve.domain
    rest, types = (Fraction(0),), []
    for a in type_candidates(curve):
        det = det_poly(curve, a)
        if not any(det):
            continue  # the columns are dependent at every t
        g = poly_gcd(rest, det)
        if not any(rest) or poly_root_count(poly_divmod(rest, g)[0], lo, hi):
            types.append(TypeTuple(a))
        rest = poly_squarefree(g)
        if not poly_root_count(rest, lo, hi):
            return types
    raise NotFiniteTypeError(
        f"no admissible derivative tuple at some t in [{lo}, {hi}]"
    )


def kappa_max_scan(curve: Curve) -> int:
    """max over t of (|a(t)|_1 - a_1(t)), the finite-type line coefficient."""
    return max(a.norm1 - a[0] for a in domain_types(curve))


def hyperplane_omega(c_normal: Sequence, d: int) -> int:
    """Excess line coefficient of the hyperplane shadow.

    omega = max_t |a(t)|_1 - d(d-1)/2 for the projected curve in R^{d-1}.
    """
    _, _, curve = hyperplane_project(c_normal, d)
    return max(a.norm1 for a in domain_types(curve)) - d * (d - 1) // 2
