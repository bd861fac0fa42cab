"""Polynomial space curves with exact coefficient arithmetic.

Curves are stored per component as polynomial coefficient rows over
``fractions.Fraction``, so derivatives, affine reparametrization, and the
Taylor-frame rescaling are computed exactly.  Cached float coefficient
tables back the vectorized evaluation used by the oscillatory quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapabilityError,
    MonomialFormError,
    NotFiniteTypeError,
    SingularMatrixError,
)

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


def poly_compose_affine(c: Sequence[Fraction], u: Fraction, t0: Fraction) -> Poly:
    """Coefficients of p(u*t + t0), computed by binomial expansion."""
    out = [Fraction(0)] * max(len(c), 1)
    for j, cj in enumerate(c):
        if cj == 0:
            continue
        for m in range(j + 1):
            out[m] += cj * math.comb(j, m) * u**m * t0 ** (j - m)
    return poly_trim(out)


def _fraction_solve(m: list[list[Fraction]], rhs: list[list[Fraction]]):
    """Solve M X = RHS exactly by Gaussian elimination with partial pivoting."""
    n = len(m)
    a = [row[:] + r[:] for row, r in zip(m, rhs)]
    w = len(a[0])
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise SingularMatrixError("exact pivot vanished")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:w] for row in a]


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


def nondegenerate_tuple(d: int) -> TypeTuple:
    return TypeTuple(tuple(range(1, d + 1)))


# ----------------------------------------------------------------------
# curves
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """Polynomial curve t -> (p_1(t), ..., p_d(t)) with exact coefficients."""

    coeffs: tuple
    domain: tuple = (0.0, 1.0)
    max_derivative_order: int = 0  # 0 = pick default in __post_init__
    name: str = "poly"

    def __post_init__(self):
        rows = tuple(poly_trim(tuple(_as_fraction(c) for c in row)) for row in self.coeffs)
        if not rows:
            raise ValueError("curve needs at least one component")
        object.__setattr__(self, "coeffs", rows)
        deg = max(len(r) - 1 for r in rows)
        if self.max_derivative_order <= 0:
            object.__setattr__(
                self, "max_derivative_order", max(2 * len(rows), deg + 1)
            )
        object.__setattr__(self, "_fcache", {})

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        return max(len(r) - 1 for r in self.coeffs)

    def derivative_rows(self, order: int) -> tuple:
        return tuple(poly_derivative(r, order) for r in self.coeffs)

    def eval_exact(self, t, order: int = 0) -> tuple:
        """Exact evaluation of the order-th derivative at rational t."""
        self._check_order(order)
        tf = _as_fraction(t)
        return tuple(poly_eval(r, tf) for r in self.derivative_rows(order))

    def _check_order(self, order: int):
        if order < 0:
            raise ValueError("negative derivative order")
        if order > self.max_derivative_order:
            raise CapabilityError(
                f"order {order} exceeds the curve oracle bound "
                f"{self.max_derivative_order}"
            )

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
        ts = np.asarray(ts, dtype=float)
        # polyval over the trailing coefficient axis: result (dim, n) -> (n, dim)
        return np.polynomial.polynomial.polyval(ts, tab.T).T


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


def torsion_poly(curve: Curve) -> Poly:
    """Exact coefficient row of t -> det(gamma', ..., gamma^{(d)})."""
    return det_poly(curve, range(1, curve.dim + 1))


def type_candidates(curve: Curve, a_max: int | None = None) -> list:
    """Derivative tuples in increasing (sum, lexicographic) order, with
    orders up to min(a_max, max_derivative_order); a_max defaults to 2d."""
    d = curve.dim
    a_max = min(2 * d if a_max is None else a_max, curve.max_derivative_order)
    return sorted(combinations(range(1, a_max + 1), d), key=lambda a: (sum(a), a))


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
        scale = np.polynomial.polynomial.polyval(abs(float(t)), tab.T)
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


def rescale_curve(curve: Curve, t0, u) -> Curve:
    """Taylor-frame rescaling (M_{t0} D_u)^{-1} (gamma(u t + t0) - gamma(t0)).

    Exact for polynomial input: the result is again a polynomial curve
    with exactly computed coefficients.
    """
    d = curve.dim
    t0f = _as_fraction(t0)
    uf = _as_fraction(u)
    if uf == 0:
        raise ValueError("scale u must be nonzero")
    a = detect_type(curve, float(t0f))
    # frame matrix M columns gamma^{(a_i)}(t0), exact
    mcols = [curve.eval_exact(t0f, ai) for ai in a]
    m = [[mcols[j][i] for j in range(d)] for i in range(d)]  # m[i][j]
    mf = np.array([[float(x) for x in row] for row in m])
    if _singular_frame(curve, t0f, a, mf):
        raise SingularMatrixError(
            f"frame matrix nearly singular at t0={float(t0f)} for tuple {tuple(a)}"
        )
    # shifted, scaled components as exact polynomials
    shifted = []
    for row in curve.coeffs:
        comp = poly_compose_affine(row, uf, t0f)
        comp = poly_add(comp, (-poly_eval(row, t0f),))
        shifted.append(list(comp))
    width = max(len(c) for c in shifted)
    for c in shifted:
        c.extend([Fraction(0)] * (width - len(c)))
    # solve M y = shifted coefficient columns, then divide row i by u^{a_i}
    sol = _fraction_solve(m, shifted)
    new_rows = []
    for i in range(d):
        fac = Fraction(1) / uf ** a[i]
        new_rows.append(poly_trim(tuple(c * fac for c in sol[i])))
    return Curve(
        tuple(new_rows),
        domain=curve.domain,
        max_derivative_order=curve.max_derivative_order,
        name=f"{curve.name}@rescale",
    )


def dyadic_rescale(curve: Curve, type_tuple: TypeTuple, ell: int) -> Curve:
    """Anisotropic dyadic zoom: component i -> 2^{ell a_i} p_i(2^{-ell} t)."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    rows = []
    for ai, row in zip(type_tuple, curve.coeffs):
        fac = Fraction(2) ** (ell * ai)
        rows.append(
            poly_trim(tuple(c * fac * Fraction(1, 2 ** (ell * j)) for j, c in enumerate(row)))
        )
    lo, hi = curve.domain
    return Curve(
        tuple(rows),
        domain=(lo * 2**ell, hi * 2**ell),
        max_derivative_order=curve.max_derivative_order,
        name=f"{curve.name}@zoom{ell}",
    )


def class_membership(curve: Curve, type_tuple: TypeTuple,
                     eps: float) -> tuple[bool, float]:
    """Check components t^{a_i} phi_i(t) with phi_i near 1/a_i!.

    Measures the sup over the domain grid of |phi_i^{(k)} - delta_{k0}/a_i!|
    for k = 0..a_d+1 and returns (within eps, measured deviation).
    """
    d = curve.dim
    if len(type_tuple) != d:
        raise ValueError("type tuple length must match curve dimension")
    a_d = type_tuple[-1]
    lo, hi = curve.domain
    grid = np.linspace(lo, hi, 129)
    deviation = 0.0
    for i, (ai, row) in enumerate(zip(type_tuple, curve.coeffs)):
        if any(c != 0 for c in row[:ai]):
            raise MonomialFormError(
                f"component {i} has nonvanishing coefficients below t^{ai}"
            )
        phi = poly_trim(row[ai:]) if len(row) > ai else (Fraction(0),)
        target0 = 1.0 / math.factorial(ai)
        for k in range(a_d + 2):
            dk = poly_derivative(phi, k) if k else phi
            vals = np.polynomial.polynomial.polyval(
                grid, np.array([float(c) for c in dk])
            )
            ref = target0 if k == 0 else 0.0
            deviation = max(deviation, float(np.max(np.abs(vals - ref))))
    return (deviation <= eps, deviation)
