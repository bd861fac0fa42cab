"""Polynomial space curves with exact coefficient arithmetic.

Curves are stored per component as polynomial coefficient rows over
``fractions.Fraction``, so derivatives, torsion determinants and the
type tuples they decide are computed exactly.  A derivative of any
nonnegative order is exact, and one above the degree is the zero row.
Cached float coefficient tables back the vectorized evaluation used by
the oscillatory quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import NotFiniteTypeError

Poly = tuple  # coefficient row; index = power of t

DET_TOL = 1e-8  # relative determinant threshold for rank decisions


# ----------------------------------------------------------------------
# exact polynomial helpers (coefficient rows of Fractions)
# ----------------------------------------------------------------------

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise TypeError(f"cannot coerce {x!r} to Fraction")


def poly_trim(c: Sequence[Fraction]) -> Poly:
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_derivative(c: Sequence[Fraction], order: int = 1) -> Poly:
    c = tuple(c)
    for _ in range(order):
        if len(c) <= 1:
            return (Fraction(0),)
        c = tuple(c[j] * j for j in range(1, len(c)))
    return poly_trim(c)


def poly_eval(c: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(tuple(c)):
        acc = acc * t + coef
    return acc


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    n = max(len(a), len(b))
    a = tuple(a) + (Fraction(0),) * (n - len(a))
    b = tuple(b) + (Fraction(0),) * (n - len(b))
    return poly_trim(tuple(x + y for x, y in zip(a, b)))


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple:
    """Exact quotient and remainder of a by a nonzero b."""
    b = poly_trim(b)
    if not any(b):
        raise ZeroDivisionError("polynomial division by zero")
    r, m = list(poly_trim(a)), len(b)
    q = [Fraction(0)] * max(len(r) - m + 1, 1)
    for s in range(len(r) - m, -1, -1):
        q[s] = Fraction(r[s + m - 1]) / b[-1]
        for j, y in enumerate(b):
            r[s + j] -= q[s] * y
    return poly_trim(q), poly_trim(r[: max(m - 1, 1)])


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is the zero row."""
    a, b = poly_trim(a), poly_trim(b)
    while any(b):
        a, b = b, poly_divmod(a, b)[1]
    return tuple(Fraction(c) / a[-1] for c in a) if any(a) else a


def poly_squarefree(c: Sequence[Fraction]) -> Poly:
    """c / gcd(c, c') for a nonzero c: the same zeros, each simple."""
    return poly_divmod(c, poly_gcd(c, poly_derivative(c)))[0]


def poly_root_count(c: Sequence[Fraction], lo, hi) -> int:
    """Distinct real zeros of a nonzero c in the closed [lo, hi].

    Sturm's theorem: the sign changes V(lo) - V(hi) of the Sturm chain
    count the zeros in (lo, hi]; a zero at lo is added to them.
    """
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    chain = [poly_squarefree(c)]
    nxt = poly_derivative(chain[0])
    while any(nxt):
        chain.append(nxt)
        nxt = tuple(-x for x in poly_divmod(chain[-2], chain[-1])[1])

    def changes(t):
        signs = [v > 0 for v in (poly_eval(f, t) for f in chain) if v != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes(lo) - changes(hi) + (poly_eval(chain[0], lo) == 0)


# ----------------------------------------------------------------------
# type tuples
# ----------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class TypeTuple:
    """Strictly increasing derivative orders (a_1 < ... < a_d)."""

    orders: tuple

    def __post_init__(self):
        orders = tuple(int(a) for a in self.orders)
        object.__setattr__(self, "orders", orders)
        if not orders:
            raise ValueError("empty type tuple")
        if any(a < 1 for a in orders) or any(
            b <= a for a, b in zip(orders, orders[1:])
        ):
            raise ValueError(f"orders must be strictly increasing positive: {orders}")

    @property
    def norm1(self) -> int:
        return sum(self.orders)

    def __iter__(self):
        return iter(self.orders)

    def __len__(self):
        return len(self.orders)

    def __getitem__(self, i):
        return self.orders[i]


def _horner(tab: np.ndarray, x) -> np.ndarray:
    """sum_k tab[:, k] x^k for each row of tab, shape (rows,) + shape of x.

    Horner's rule in the steps (and so with the rounding) of numpy's
    polyval, which starts from the top coefficient plus x * 0.
    """
    x = np.asarray(x)
    tab = tab.reshape(tab.shape + (1,) * x.ndim)
    acc = tab[:, -1] + x * 0
    for k in range(tab.shape[1] - 2, -1, -1):
        acc = tab[:, k] + acc * x
    return acc


# ----------------------------------------------------------------------
# curves
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """Polynomial curve t -> (p_1(t), ..., p_d(t)) with exact coefficients."""

    coeffs: tuple
    domain: tuple = (0.0, 1.0)
    name: str = "poly"

    def __post_init__(self):
        rows = tuple(poly_trim(tuple(_as_fraction(c) for c in row)) for row in self.coeffs)
        if not rows:
            raise ValueError("curve needs at least one component")
        object.__setattr__(self, "coeffs", rows)
        object.__setattr__(self, "_fcache", {})

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        return max(len(r) - 1 for r in self.coeffs)

    def derivative_rows(self, order: int) -> tuple:
        return tuple(poly_derivative(r, order) for r in self.coeffs)

    def _check_order(self, order: int):
        if order < 0:
            raise ValueError("negative derivative order")

    def _float_rows(self, order: int) -> np.ndarray:
        cache = self._fcache
        if order not in cache:
            rows = self.derivative_rows(order)
            width = max(len(r) for r in rows)
            tab = np.zeros((self.dim, width))
            for i, r in enumerate(rows):
                tab[i, : len(r)] = [float(c) for c in r]
            cache[order] = tab
        return cache[order]

    def eval_many(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """Vectorized derivative values, shape (len(ts), dim)."""
        self._check_order(order)
        tab = self._float_rows(order)
        return _horner(tab, np.asarray(ts, dtype=float)).T


def moment_curve(d: int, domain=(0.0, 1.0)) -> Curve:
    """(t, t^2/2!, ..., t^d/d!)."""
    rows = []
    for i in range(1, d + 1):
        row = [Fraction(0)] * i + [Fraction(1, math.factorial(i))]
        rows.append(tuple(row))
    return Curve(tuple(rows), domain=domain, name=f"moment({d})")


def monomial_curve(orders: Iterable[int], domain=(0.0, 1.0)) -> Curve:
    """(t^{a_1}/a_1!, ..., t^{a_d}/a_d!) for a strictly increasing tuple."""
    a = TypeTuple(tuple(orders))
    rows = []
    for ai in a:
        row = [Fraction(0)] * ai + [Fraction(1, math.factorial(ai))]
        rows.append(tuple(row))
    name = "monomial(" + ",".join(str(x) for x in a) + ")"
    return Curve(tuple(rows), domain=domain, name=name)


def poly_curve(table, domain=(0.0, 1.0), name: str = "poly") -> Curve:
    """Curve from a nested coefficient table (rows = components)."""
    return Curve(tuple(tuple(row) for row in table), domain=domain, name=name)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def eval_derivative(curve: Curve, t, order: int = 0) -> np.ndarray:
    """Derivative gamma^{(order)}(t); scalar t gives shape (d,)."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        return curve.eval_many(ts.reshape(1), order)[0]
    return curve.eval_many(ts, order)


def torsion_det(curve: Curve, t):
    """det(gamma'(t), ..., gamma^{(d)}(t)); vectorized over t."""
    d = curve.dim
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    ts = np.atleast_1d(ts)
    cols = np.stack([curve.eval_many(ts, j) for j in range(1, d + 1)], axis=-1)
    det = np.linalg.det(cols)
    return float(det[0]) if scalar else det


def det_poly(curve: Curve, orders: Iterable[int]) -> Poly:
    """Exact coefficient row of t -> det(gamma^(a_1), ..., gamma^(a_d))."""
    rows = [curve.derivative_rows(a) for a in orders]  # rows[j][i]
    d = len(rows)
    total: Poly = (Fraction(0),)
    for perm in permutations(range(d)):  # Leibniz expansion; d <= 6
        inv = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term: Poly = (Fraction(-1 if inv % 2 else 1),)
        for j in range(d):
            term = _poly_mul(term, rows[j][perm[j]])
        total = poly_add(total, term)
    return total


def type_candidates(curve: Curve) -> list:
    """Derivative tuples in increasing (sum, lexicographic) order, with
    orders up to 2d."""
    d = curve.dim
    return sorted(combinations(range(1, 2 * d + 1), d),
                  key=lambda a: (sum(a), a))


def _singular_frame(curve: Curve, t, orders, m: np.ndarray) -> bool:
    """Whether the float frame m, columns gamma^(a)(t) for a in orders,
    is singular to DET_TOL.

    A column is zero when its norm is at most DET_TOL times the curve's
    own scale for its order at t, the norm of sum_k |c_k| |t|^k over the
    components: round-off of that size is not scaled back to full size.
    Otherwise the determinant is compared with the product of the column
    norms.
    """
    norms = np.linalg.norm(m, axis=0)
    for a, norm in zip(orders, norms):
        tab = np.abs(curve._float_rows(a))
        scale = _horner(tab, abs(float(t)))
        if norm <= DET_TOL * np.linalg.norm(scale):
            return True
    return abs(float(np.linalg.det(m))) <= DET_TOL * float(np.prod(norms))


def detect_type(curve: Curve, t) -> TypeTuple:
    """Minimal derivative tuple whose columns span R^d at t.

    Tuples are scanned in ``type_candidates`` order; the first whose
    frame is not singular (``_singular_frame``) is the type.
    """
    candidates = type_candidates(curve)
    cols = {j: eval_derivative(curve, t, j) for j in set().union(*candidates)}
    for a in candidates:
        if not _singular_frame(curve, t, a, np.column_stack([cols[j] for j in a])):
            return TypeTuple(a)
    raise NotFiniteTypeError(
        f"no admissible derivative tuple up to order {max(cols, default=0)} "
        f"at t={t}"
    )
