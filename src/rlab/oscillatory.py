"""Oscillatory-integral evaluation and norms.

Every phase is a curve phase x . curve(t): on the frequency side x is an
ambient point, on the chart side x is the embedding of a chart point
(graph embeddings of the sphere or of integral submanifolds).  One
segment loop evaluates every field, routing by the curve's degree alone:
at degree 2 each node takes one of two O(1) forms, the closed form or the
Taylor form, and every other degree takes the panel rule.  The kind of
phase never enters.  eval_field adds every segment's term into one array;
segment_fields keeps one row per segment.

Closed form.  When the curve has degree 2, a segment [a, b] carries
P(t) = A t^2 + B t + C at each node.  With r = sqrt|A|, omega =
exp(-i pi/4 sign A), t* = -B / 2A and z(t) = omega r (t - t*),

    int_a^b exp(i P) dt = sqrt(pi) / (2 r omega)
                          * [exp(i P(a)) w~(a) - exp(i P(b)) w~(b)] + S,

where w~(t) is w(i z) when i z lies in the upper half-plane and -w(-i z)
otherwise, w the Faddeeva function, and the saddle term S =
sqrt(pi) / (r omega) exp(i P(t*)) is added when t* lies in (a, b].  This
is erf(z(b)) - erf(z(a)) written so that no exp(-z^2) of size
exp(|z|^2) and no C - B^2 / 4A of a distant saddle is ever formed.  w
comes from Weideman's rational series (SIAM J. Numer. Anal. 31, 1994) on
the rays arg = pi/4 and 3 pi/4 only.  It serves the nodes with
|A| (b - a)^2 >= _QUADRATIC_MIN = 1; below, 1/r outgrows the segment and
the bracket cancels.

Taylor form.  The other degree-2 nodes, A = 0 and lambda = 0 included,
expand exp(i A s^2) about the linear phase at the midpoint m = (a + b) / 2.
With h = (b - a) / 2, x = (B + 2 A m) h and alpha = A h^2, so that
|alpha| < 1/4,

    int_a^b exp(i P) dt = 2 h exp(i P(m)) sum_k (i alpha)^k / k! c_k(x),
    c_k(x) = int_0^1 u^(2k) cos(x u) du,

a Filon-type moment method (Iserles & Norsett, Proc. R. Soc. A 461,
2005).  The sum keeps _TAYLOR_TERMS = 12 terms: the first one left out is
below 4^-12 / (12! 25) < 5e-18 of 2 h.  For |x| < _SERIES_MAX = 2, c_k is its
power series sum_j (-x^2)^j / ((2j)! (2k + 2j + 1)) to as many terms, the
first one left out below 4^12 / 24! < 3e-17.  From 2 up it comes from
the upward recurrence c_0 = sin x / x and

    c_k = sin x / x + 2k cos x / x^2 - 2k (2k - 1) / x^2 c_(k-1),

unrolled into polynomials in 1 / x^2 (_taylor_constants).  The recurrence
multiplies an error of c_0 by at most (2k)! / x^(2k) by step k, and the
unrolled sum has terms of that size; the term's weight 4^-k / k! brings
that to (2k - 1)!! / 8^k, at most 1.6.

Panel rule.  Panels are sized from an exact upper bound on the
t-derivative of the total phase, which is a polynomial in t: its largest
Bernstein coefficient over the segment.  Each panel then carries at most
PANEL_CAP = 4 pi radians, well inside the range where a 16-point
Gauss-Legendre rule is accurate to round-off (Trefethen, SIAM Review 50,
2008).

The panels of a segment have equal width h, so for each Gauss index the
t-nodes across panels form an arithmetic progression, on which the total
phase is a polynomial of degree D in the panel index.  Its forward
differences D^l Phi obey D^l Phi(k + 1) = D^l Phi(k) + D^(l+1) Phi(k),
with D^D Phi constant, so exp(i Phi) moves from panel to panel by D complex
multiplies: E_l *= E_(l+1) with E_l = exp(i D^l Phi).  The differences
are taken from the phase's t-coefficients (a binomial shift to the anchor,
then Stirling numbers), never by subtracting phase values.  Every
_ANCHOR panels (fewer from degree 3 on, see _anchor_spacing) they are
taken afresh and exponentiated again, which bounds the round-off the
recurrence accumulates (Press et al., Numerical Recipes, 3rd ed., 2007,
section 5.4).  E_0 .. E_(D-1), D * 16 values per point, come from one
call of the table-driven _cis per anchor, to within 1 ulp; E_D, one value
per point and segment, from libm's exp.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import DataError
from .measures import (
    QuadMeasure,
    _sphere_rule,
    gauss_legendre,
)

PANEL_CAP = 4.0 * np.pi     # max phase increment per panel
PANEL_ORDER = 16            # Gauss-Legendre points per panel
MIN_PANELS = 4
_Y_CHUNK = 512              # points per panel-rule chunk
_CLOSED_BATCH = 2048        # points per degree-2 batch
_ANCHOR = 32                # panels between re-anchors at phase degree <= 2
_CIS_N = 1024               # table entries per turn in _cis
_CIS_HEAD = 15              # bits per head part of _cis's split of 2 pi / N
_CIS_RANGE = 1e9            # |theta| below which every k * head is exact
_QUADRATIC_MIN = 1.0        # |A| (b - a)^2 from which a degree-2 node takes
                            # the closed form; below it, the Taylor form
_TAYLOR_TERMS = 12          # terms of the Taylor form, and of its c_k series
_SERIES_MAX = 2.0           # |x| below which c_k(x) is its power series


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """One interval of a piecewise input.

    ``modulation`` is None or a pair (x0, lam) standing for the factor
    e^{-i lam x0 . curve(t)}; ``sign`` is the Rademacher factor kept
    separate from the amplitude so random draws stay visible.
    """

    start: float
    end: float
    amplitude: complex = 1.0 + 0.0j
    modulation: tuple | None = None
    sign: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("segment endpoints must be finite")
        if self.end < self.start:
            raise ValueError("segment must have end >= start")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        if not np.isfinite(complex(self.amplitude)):
            raise ValueError("amplitude must be finite")
        if self.modulation is not None:
            x0, lam = self.modulation
            x0 = tuple(float(v) for v in np.atleast_1d(x0))
            if not all(map(math.isfinite, (*x0, float(lam)))):
                raise ValueError("modulation point and lambda must be finite")
            object.__setattr__(self, "modulation", (x0, float(lam)))

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def coefficient(self) -> complex:
        return self.sign * complex(self.amplitude)


@dataclass(frozen=True)
class TestFunction:
    """Piecewise input on the parameter interval: disjoint segments."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        ivals = sorted((s.start, s.end) for s in segs)
        for (a0, b0), (a1, b1) in zip(ivals, ivals[1:]):
            if a1 < b0 - 1e-14:
                raise ValueError("segments must be pairwise disjoint")
        object.__setattr__(self, "segments", segs)


def indicator(start: float, end: float, amplitude: complex = 1.0,
              modulation: tuple | None = None, sign: int = 1) -> TestFunction:
    return TestFunction((Segment(start, end, amplitude, modulation, sign),))


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpec:
    """Phase Psi(y, t) = embed(y) . curve(t).

    With no patch it is an extension phase: y is an ambient point x and
    Psi = x . curve(t).  With a chart patch (``measures.SphereCap`` or
    ``measures.SubmanifoldPatch``), embed is the patch's map of chart
    points onto its surface, and the patch must accept the curve.

    A bivariate polynomial sum c[m, n] y^m t^n for scalar y is the
    extension phase of poly_curve(c) at the points (1, y, y^2, ...).
    """

    curve: Curve
    patch: object | None = None

    def __post_init__(self):
        if self.curve is None:
            raise ValueError("curve required")
        if self.patch is not None:
            self.patch.check_curve(self.curve)

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Map chart points to ambient frequency points."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.patch is not None:
            return self.patch.embed(y)
        if y.shape[1] != self.curve.dim:
            raise ValueError("point dimension mismatch")
        return y

    def values(self, y: np.ndarray, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """d_t^order Psi on the product grid, shape (n_y, n_t)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.embed(y) @ self.curve.eval_many(ts, order).T


def graph_phase(curve: Curve, patch) -> PhaseSpec:
    """Chart phase of a patch; a ``SubmanifoldPatch`` takes its own
    ``patch.curve``."""
    return PhaseSpec(curve, patch)


def extension_phase(curve: Curve) -> PhaseSpec:
    return PhaseSpec(curve)


# ----------------------------------------------------------------------
# exp(i theta) by table
# ----------------------------------------------------------------------

def _fixed_pi(bits: int) -> int:
    """pi * 2**bits to within a few units, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    def arctan_inv(x):
        term = total = (1 << bits) // x
        n = 1
        while term:
            term //= x * x
            n += 2
            total += term // n if n % 4 == 1 else -(term // n)
        return total
    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


def _cis_constants():
    """The table exp(2 pi i k / N), k < N, and the split of 2 pi / N.

    Both come from 2 pi / N in fixed point with 128 fractional bits, in
    Python integers, so no platform's long double is involved.
    exp(2 pi i j / N) for j <= N/8 is the j-th power of the Taylor sum
    for j = 1, off by a few hundred units of 2**-bits; the quarter-wave
    and quadrant symmetries give the rest, so zeros and +-1 are exact.
    An int-over-int quotient rounds correctly, so an entry misses 0.5 ulp
    only if its value lies that close to a rounding tie (the tests check
    all N).  The split is three heads of _CIS_HEAD bits on consecutive
    bit ranges, then the rounded tail.
    """
    bits = 128
    one = 1 << bits
    step = 2 * _fixed_pi(bits) // _CIS_N                    # 2 pi / N
    re, im, tr, ti, n = one, 0, one, 0, 0
    while tr or ti:
        n += 1
        tr, ti = (-ti * step >> bits) // n, (tr * step >> bits) // n
        re, im = re + tr, im + ti
    cos, sin, pr, pi_ = [], [], one, 0
    for _ in range(_CIS_N // 8 + 1):
        cos.append(pr / one)
        sin.append(pi_ / one)
        pr, pi_ = (pr * re - pi_ * im) >> bits, (pr * im + pi_ * re) >> bits
    quarter = np.array(cos + sin[-2::-1])    # cos(2 pi j / N), j <= N/4
    first = quarter[:-1] + 1j * quarter[:0:-1]
    table = np.concatenate([first, 1j * first, -first, -1j * first])
    split, low = [], step.bit_length()
    for _ in range(3):
        low -= _CIS_HEAD
        head = step >> low << low
        split.append(head / one)
        step -= head
    return table, (*split, step / one)


_CIS_TABLE, _CIS_SPLIT = _cis_constants()


def _cis(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) of the flat theta in a new array, within 1 ulp of 1.0
    for |theta| <= _CIS_RANGE (Tang, ACM TOMS 15, 1989).

    It allocates its result and its own scratch, so a caller makes one
    call on all its angles and pays the fixed cost of a call once.  With
    k = rint(theta N / 2 pi), the reduced r = theta - k 2 pi / N is exact
    up to the tail part of the split, as every k * head is; |r| <= pi / N
    up to the rounding of theta N / 2 pi.  Short Taylor sums give
    z = (cos r - 1) + i sin r, and the result is T + T z with T the table
    entry of k mod N, so z's rounding is scaled by |z| < 4e-3.  Outside
    the range, and for a non-finite theta, it is libm's exp, element by
    element: no element's bits depend on the others in theta.
    """
    size = theta.size
    out = np.empty(size, dtype=complex)
    if size and not (-_CIS_RANGE <= theta.min() and theta.max() <= _CIS_RANGE):
        near = np.abs(theta) <= _CIS_RANGE      # False for nan
        far = ~near
        with np.errstate(invalid="ignore"):      # nan and inf give nan
            out[far] = np.exp(1j * theta[far])
        out[near] = _cis(theta[near])
        return out
    work = np.empty(5 * size)
    k, r, t = work[:3 * size].reshape(3, size)
    z = work[3 * size:].view(complex)
    np.multiply(theta, _CIS_N / (2.0 * np.pi), out=k)
    np.rint(k, out=k)
    idx = t.view(np.int64)
    np.copyto(idx, k, casting="unsafe")
    np.bitwise_and(idx, _CIS_N - 1, out=idx)
    np.take(_CIS_TABLE, idx, out=out)
    head, *rest = _CIS_SPLIT
    np.multiply(k, head, out=r)
    np.subtract(theta, r, out=r)
    for part in rest:
        np.multiply(k, part, out=t)
        r -= t
    r2 = np.multiply(r, r, out=k)
    np.multiply(r2, 1.0 / 24.0, out=t)      # cos r - 1 = r2 (r2/24 - 1/2)
    t -= 0.5
    np.multiply(t, r2, out=z.real)
    np.multiply(r2, 1.0 / 120.0, out=t)     # sin r = r + r r2 (r2/120 - 1/6)
    t -= 1.0 / 6.0
    t *= r2
    t *= r
    np.add(r, t, out=z.imag)
    z *= out
    out += z
    return out


# ----------------------------------------------------------------------
# quadratic phases in closed form
# ----------------------------------------------------------------------

def _faddeeva_constants(n: int):
    """Weideman's L and coefficients a_1 .. a_n (SIAM J. Numer. Anal. 31,
    1994).

    With M = 2n, theta_k = pi k / M and t_k = L tan(theta_k / 2), the a_j
    are the cosine coefficients of f = exp(-t^2) (L^2 + t^2) over the 2M
    angles: a_j = (f_0 + 2 sum_{0<k<M} f_k cos(j theta_k)) / 2M, summed
    directly where Weideman takes an FFT.  The sums run in Python floats
    (math.fsum), so importing the module wakes no numpy ufunc.
    """
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    theta = [math.pi * k / m for k in range(1, m)]
    t = [scale * math.tan(0.5 * th) for th in theta]
    f = [math.exp(-tk * tk) * (scale * scale + tk * tk) for tk in t]
    return scale, np.array([
        (scale * scale + 2.0 * math.fsum(fk * math.cos(j * th)
                                         for fk, th in zip(f, theta)))
        / (2 * m) for j in range(1, n + 1)])


_W_L, _W_COEF = _faddeeva_constants(40)
# exp(3 pi i / 4) and exp(pi i / 4): the rays i z lies on for a quadratic
# coefficient A < 0 and A > 0
_RAYS = np.array([complex(-math.sqrt(0.5), math.sqrt(0.5)),
                  complex(math.sqrt(0.5), math.sqrt(0.5))])


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-i z) for Im z >= 0 by Weideman's rational
    series, w = (2 p(Z) / (L - i z) + 1 / sqrt(pi)) / (L - i z) with
    Z = (L + i z) / (L - i z) and p(Z) = sum_j a_j Z^(j-1).  With 40 terms
    it is within 2e-15 relative of w on the rays arg z = pi/4 and 3 pi/4
    for |z| from 1e-3 to 1e7.
    """
    den = _W_L - 1j * z
    zz = (_W_L + 1j * z) / den
    p = np.full(z.shape, _W_COEF[-1], dtype=complex)
    for a in _W_COEF[-2::-1]:
        p *= zz
        p += a
    p *= 2.0
    p /= den
    p += 1.0 / math.sqrt(math.pi)
    p /= den
    return p


def _quadratic_sums(coef: np.ndarray, start: float, end: float) -> np.ndarray:
    """int_start^end exp(i P(t)) dt per row (C, B, A) of coef, where
    P(t) = A t^2 + B t + C and A != 0, by the closed form of the module
    docstring."""
    c0, c1, c2 = coef.T
    m = coef.shape[0]
    r = np.sqrt(np.abs(c2))
    ends = np.array([[start], [end]])
    # u = r (t - t*) = P'(t) / (2 r sign A), no t* formed
    u = (2.0 * c2 * ends + c1) / (2.0 * np.copysign(r, c2))
    ray = _RAYS[(c2 > 0).astype(np.intp)]
    upper = u >= 0.0                        # i z in the upper half-plane
    wt = _faddeeva(ray * np.abs(u))
    np.negative(wt, out=wt, where=~upper)
    saddle = ~upper[0] & upper[1]           # start < t* <= end
    theta = np.concatenate([(c0 + ends * (c1 + ends * c2)).ravel(),
                            (c0 - 0.25 * c1 * c1 / c2)[saddle]])
    e = _cis(theta)
    total = e[:m] * wt[0]
    total -= e[m:2 * m] * wt[1]
    total[saddle] += 2.0 * e[2 * m:]
    # sqrt(pi) / (2 r omega), with 1 / omega = i conj(ray)
    return total * (0.5 * math.sqrt(math.pi) / r) * (1j * ray.conj())


def _taylor_constants(n: int):
    """The Taylor form's constants for k, l < n, in Python floats, so
    importing the module wakes no numpy ufunc: the exponents l, the
    weights i^k / k!, and at [k, l] the coefficients of c_k(x) in powers
    y^l.  For |x| < _SERIES_MAX, y = x^2 and the series coefficient is
    (-1)^l / ((2l)! (2k + 2l + 1)).  From there up, y = 1 / x^2 and the
    recurrence of the module docstring unrolls to
    c_k = sin x / x U_k(y) + cos x V_k(y), where U_k has
    (-1)^l (2k)! / (2k - 2l)! and V_k has (-1)^(l-1) (2k)! / (2k - 2l + 1)!
    (0 < l), both for l <= k."""
    fact = math.factorial

    def series(k, l):
        return (-1) ** l / (fact(2 * l) * (2 * k + 2 * l + 1))

    def sin_part(k, l):
        if l > k:
            return 0.0
        return float((-1) ** l * (fact(2 * k) // fact(2 * k - 2 * l)))

    def cos_part(k, l):
        if not 0 < l <= k:
            return 0.0
        return float((-1) ** (l - 1)
                     * (fact(2 * k) // fact(2 * k - 2 * l + 1)))

    def table(entry):
        return np.array([[entry(k, l) for l in range(n)] for k in range(n)])

    units = (1.0, 1j, -1.0, -1j)
    return (np.array([float(l) for l in range(n)]),
            np.array([units[k % 4] / fact(k) for k in range(n)]),
            table(series), table(sin_part), table(cos_part))


_T_POWERS, _T_WEIGHTS, _T_SERIES, _T_SIN, _T_COS = _taylor_constants(
    _TAYLOR_TERMS)


def _taylor_sums(coef: np.ndarray, start: float, end: float) -> np.ndarray:
    """int_start^end exp(i P(t)) dt per row (C, B, A) of coef, where
    P(t) = A t^2 + B t + C and |A| (end - start)^2 < 1, by the Taylor form
    of the module docstring, with c_k as in _taylor_constants.  Sums are
    elementwise, never a BLAS product."""
    c0, c1, c2 = coef.T
    m = coef.shape[0]
    h = 0.5 * (end - start)
    mid = 0.5 * (start + end)
    x = (c1 + 2.0 * mid * c2) * h
    far = np.abs(x) >= _SERIES_MAX
    xf = x[far]
    # exp(i P(m)) per row, then exp(i x) per row whose c_k need sin and cos
    theta = np.concatenate([c0 + mid * (c1 + mid * c2), xf])
    e = _cis(theta)
    moments = np.empty((m, _TAYLOR_TERMS))        # c_k(x) at [row, k]
    if xf.size < m:
        y = x[~far] ** 2
        moments[~far] = np.sum(y[:, None, None] ** _T_POWERS * _T_SERIES,
                               axis=2)
    if xf.size:
        y = (1.0 / (xf * xf))[:, None, None] ** _T_POWERS
        sin_x, cos_x = e[m:].imag, e[m:].real
        moments[far] = ((sin_x / xf)[:, None] * np.sum(y * _T_SIN, axis=2)
                        + cos_x[:, None] * np.sum(y * _T_COS, axis=2))
    alpha = c2 * (h * h)
    total = np.sum(alpha[:, None] ** _T_POWERS * _T_WEIGHTS * moments, axis=1)
    return (2.0 * h) * e[:m] * total


# ----------------------------------------------------------------------
# evaluation core
# ----------------------------------------------------------------------

def _as_phase(curve_or_phase) -> PhaseSpec:
    if isinstance(curve_or_phase, PhaseSpec):
        return curve_or_phase
    if isinstance(curve_or_phase, Curve):
        return extension_phase(curve_or_phase)
    raise TypeError("expected a Curve or a PhaseSpec")


def _modulation_point(phase: PhaseSpec, seg: Segment) -> tuple | None:
    """(x0, lam_mod) of a modulated segment, checked against the curve."""
    if seg.modulation is None:
        return None
    x0, lam_mod = seg.modulation
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (phase.curve.dim,):
        raise ValueError("modulation point dimension mismatch")
    return x0, lam_mod


def _bernstein_matrix(a: float, b: float, width: int) -> np.ndarray:
    """Map the t-monomial coefficients of a polynomial of degree
    < width to its Bernstein coefficients on [a, b]."""
    n = width - 1
    shift = np.zeros((width, width))     # t = a + (b - a) s
    to_bern = np.zeros((width, width))
    for k in range(width):
        for j in range(k + 1):
            shift[k, j] = math.comb(k, j) * a ** (k - j) * (b - a) ** j
            to_bern[j, k] = math.comb(k, j) / math.comb(n, j)
    return shift @ to_bern


def _phase_rate_bound(phase: PhaseSpec, lam: float, seg: Segment,
                      ypts: np.ndarray) -> float:
    """Upper bound on |d/dt| of the total phase over the segment, for
    every point of ypts.

    Per point the t-derivative is a polynomial, basis(y) @ rows in the
    t-monomials, minus the modulation's.  On [start, end] it is a convex
    combination of its Bernstein basis polynomials, so the largest
    |Bernstein coefficient| bounds it.
    """
    mod = _modulation_point(phase, seg)
    rows = phase.curve._float_rows(1)
    basis = phase.embed(ypts)
    bern = rows @ _bernstein_matrix(seg.start, seg.end, rows.shape[1])
    shift = np.zeros(bern.shape[1])
    if mod is not None:
        x0, lam_mod = mod
        shift = lam_mod * (x0 @ bern)
    vals = np.empty((basis.shape[0], bern.shape[1]))
    vals[:] = -shift
    for b, c in zip(basis.T, lam * bern):
        vals += c * b[:, None]
    # np.max keeps a nan bound (from a nan point) that max() would drop
    return float(np.max(np.abs(vals, out=vals), initial=0.0))


def _segment_panel_count(phase: PhaseSpec, lam: float, seg: Segment,
                         ypts: np.ndarray) -> int:
    """Panels for the segment so each carries at most PANEL_CAP radians
    of phase at every point of ypts."""
    need = _phase_rate_bound(phase, lam, seg, ypts) * seg.length / PANEL_CAP
    if not math.isfinite(need):
        raise ValueError(f"phase rate bound is not finite ({need}): "
                         "lambda and the points must be finite")
    return max(MIN_PANELS, int(math.ceil(need)))


def _scaled_stirling(width: int) -> np.ndarray:
    """l! S(i, l) at [i, l]: the l-th forward difference at 0, step 1, of
    u^i (S the Stirling numbers of the second kind)."""
    tab = np.zeros((width, width))
    tab[0, 0] = 1.0
    for i in range(1, width):
        for l in range(1, i + 1):
            tab[i, l] = l * (tab[i - 1, l] + tab[i - 1, l - 1])
    return tab


def _anchor_spacing(deg: int) -> int:
    """Panels between re-anchors of the recurrence for phase degree deg.

    m steps after an anchor, E_0 carries the rounding of E_l raised to the
    power C(m, l), so the largest amplification is C(K - 1, deg) for
    spacing K.  K is the largest spacing <= _ANCHOR whose amplification
    is at most degree 2's at _ANCHOR: 32 up to degree 2, 16 at degree 3,
    12 at degree 4.  That largest power falls on E_deg, which is libm's
    exp (within half an ulp); E_0 .. E_(deg-1), raised to smaller powers,
    are _cis's (within 1 ulp).
    """
    budget = math.comb(_ANCHOR - 1, 2)
    spacing = _ANCHOR
    while spacing > 1 and math.comb(spacing - 1, deg) > budget:
        spacing -= 1
    return spacing


def _difference_maps(start: float, h: float, n_panels: int,
                     width: int) -> np.ndarray:
    """Per anchor panel k0 (every _anchor_spacing-th), the matrix taking the
    t-coefficients c of a polynomial of degree D = width - 1 to its forward
    differences D^l, l < D, with step h at the Gauss nodes tau of panel k0.

    With Phi(tau + u h) = sum_i a_i u^i, a_i = h^i sum_k C(k, i) tau^(k-i)
    c_k, and D^l Phi(tau) = sum_i l! S(i, l) a_i.  The result has shape
    (anchors, D * PANEL_ORDER, width), rows ordered by l, then tau.
    """
    deg = width - 1
    stir = _scaled_stirling(width)[:, :deg]
    taus = start + 0.5 * h * (1.0 + gauss_legendre(PANEL_ORDER)[0])
    k0s = np.arange(0, n_panels, _anchor_spacing(deg))
    powers = (taus + (k0s * h)[:, None])[..., None] ** np.arange(width)
    out = np.zeros((k0s.size, deg, PANEL_ORDER, width))
    for k in range(width):
        for i in range(k + 1):
            scale = math.comb(k, i) * h ** i
            out[..., k] += ((scale * stir[i])[:, None]
                            * powers[:, None, :, k - i])
    return out.reshape(k0s.size, deg * PANEL_ORDER, width)


def _panel_sums(seg: Segment, coef: np.ndarray, n_panels: int,
                maps: dict) -> np.ndarray:
    """The segment's integral on n_panels panels, per row of coef.

    coef holds the t-coefficients of each point's total phase.  The points
    share the one layout, and exp(i Phi) follows the forward-difference
    recurrence of the module docstring, re-anchored every
    _anchor_spacing(D) panels.  An anchor's D * PANEL_ORDER differences
    per point take one _cis call.  maps caches the difference maps per
    layout.
    """
    m, width = coef.shape
    deg = width - 1
    spacing = _anchor_spacing(deg)
    h = seg.length / n_panels
    # E_D is one libm exp per point
    top = np.exp(1j * (math.factorial(deg) * h ** deg) * coef[:, deg])
    key = (seg.start, h, n_panels)
    if key not in maps:
        maps[key] = _difference_maps(seg.start, h, n_panels, width)
    total = np.zeros((PANEL_ORDER, m), dtype=complex)
    for k0, dmap in zip(range(0, n_panels, spacing), maps[key]):
        # E_0 .. E_(D-1) of the anchor, rows ordered by l, then tau
        anchor = _cis((dmap @ coef.T).ravel())
        terms = [*anchor.reshape(deg, PANEL_ORDER, m), top]
        for step in range(min(spacing, n_panels - k0)):
            if step:
                for l in range(deg):
                    terms[l] *= terms[l + 1]
            total += terms[0]
    return (0.5 * h * gauss_legendre(PANEL_ORDER)[1]) @ total


def _coefficients(phase: PhaseSpec, lam: float, seg: Segment,
                  ypts: np.ndarray) -> np.ndarray:
    """t-coefficients of the total phase at each point, shape (n, D + 1)."""
    x = lam * phase.embed(ypts)
    mod = _modulation_point(phase, seg)
    if mod is not None:
        x = x - mod[1] * mod[0]
    return x @ phase.curve._float_rows(0)


def _quadratic_segment(phase: PhaseSpec, lam: float, seg: Segment,
                       ypts: np.ndarray, out: np.ndarray) -> int:
    """Add the segment's term of a degree-2 curve's field into out, in
    batches of _CLOSED_BATCH points, by the closed or the Taylor form
    (see _QUADRATIC_MIN); each value depends on its own point alone, so
    the batch width moves no bit.  It takes no panel: it returns 0."""
    n = ypts.shape[0]
    for lo in range(0, n, _CLOSED_BATCH):
        hi = min(n, lo + _CLOSED_BATCH)
        coef = _coefficients(phase, lam, seg, ypts[lo:hi])
        closed = np.abs(coef[:, 2]) * seg.length ** 2 >= _QUADRATIC_MIN
        vals = np.empty(hi - lo, dtype=complex)
        if closed.any():
            vals[closed] = _quadratic_sums(coef[closed], seg.start, seg.end)
        if not closed.all():
            vals[~closed] = _taylor_sums(coef[~closed], seg.start, seg.end)
        out[lo:hi] += seg.coefficient * vals
    return 0


def _panel_segment(phase: PhaseSpec, lam: float, seg: Segment,
                   ypts: np.ndarray, out: np.ndarray) -> int:
    """Add the segment's term of the field by the panel rule into out, in
    chunks of _Y_CHUNK points that share one layout, and return the
    widest chunk's panels."""
    n = ypts.shape[0]
    maps = {}       # difference maps per layout, shared by chunks
    widest = 0
    for lo in range(0, n, _Y_CHUNK):
        hi = min(n, lo + _Y_CHUNK)
        chunk = ypts[lo:hi]
        coef = _coefficients(phase, lam, seg, chunk)
        n_panels = _segment_panel_count(phase, lam, seg, chunk)
        widest = max(widest, n_panels)
        out[lo:hi] += seg.coefficient * _panel_sums(seg, coef, n_panels, maps)
    return widest


def _segment_loop(curve_or_phase, lam: float, f: TestFunction,
                  ypts: np.ndarray, stats: dict | None, rows: bool):
    """The one segment loop: in segment order, add segment k's term, by
    the route of the curve's degree, into row k of a zeroed (segments, n)
    array if rows, else into one zeroed (n,) array, and return the array.
    If stats is a dict, stats["panels"] is set to the panels the panel
    rule used: per segment the widest chunk's layout, summed over
    segments, so 0 at degree 2."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and nonnegative")
    phase = _as_phase(curve_or_phase)
    ypts = np.atleast_2d(np.asarray(ypts, dtype=float))
    if not np.isfinite(ypts).all():
        raise ValueError("a point is not finite: points must be finite")
    n, segs = ypts.shape[0], f.segments
    out = np.zeros((len(segs), n) if rows else n, dtype=complex)
    route = _quadratic_segment if phase.curve.degree == 2 else _panel_segment
    panels = 0
    for seg, acc in zip(segs, out if rows else [out] * len(segs)):
        if seg.length > 0.0:
            panels += route(phase, lam, seg, ypts, acc)
    if stats is not None:
        stats["panels"] = panels
    return out


def eval_field(curve_or_phase, lam: float, f: TestFunction,
               ypts: np.ndarray, *, stats: dict | None = None) -> np.ndarray:
    """Evaluate the operator at chart points, shape (n,) complex: each
    point's segment integrals, by the route of the curve's degree alone
    (the module docstring), summed in segment order in one array.  If
    stats is a dict, stats["panels"] is set as _segment_loop says."""
    return _segment_loop(curve_or_phase, lam, f, ypts, stats, rows=False)


def segment_fields(curve_or_phase, lam: float, f: TestFunction,
                   ypts: np.ndarray, *, stats: dict | None = None) -> np.ndarray:
    """eval_field one segment at a time, shape (segments, n) complex: row
    k is segment k's term, coefficient included, and 0 for a zero-length
    segment.  Summed in segment order, the rows are eval_field's values
    bit for bit, with the same stats."""
    return _segment_loop(curve_or_phase, lam, f, ypts, stats, rows=True)


def field(curve_or_phase, lam: float, f: TestFunction,
          mu: QuadMeasure, *, stats: dict | None = None) -> np.ndarray:
    """Operator values on all measure nodes, in node order.

    Warns when a sphere measure has fewer nodes, and so a wider spacing,
    than the grid sphere_resolution_for(d, lam) gives, at any lambda (the
    node budget limits only the grids rlab allocates).  Other measures
    are not checked.  stats is eval_field's: stats["panels"] is set to the
    panels the panel rule used.
    """
    phase = _as_phase(curve_or_phase)
    if mu.provenance == "sphere":
        need = _sphere_rule(mu.dim, max(lam, 1.0))[1]
        if mu.size < need:
            warnings.warn(f"the spacing of a sphere grid of {mu.size:,} "
                          f"nodes exceeds the lambda rule at lambda={lam:g}, "
                          f"which needs {need:,} nodes", stacklevel=2)
    return eval_field(phase, lam, f, mu.nodes, stats=stats)


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def lq_norm(values: np.ndarray, mu: QuadMeasure, q: float) -> float:
    """(integral |F|^q dmu)^{1/q}; q = inf gives the max over nodes."""
    values = np.asarray(values)
    if values.shape[0] != mu.size:
        raise DataError("field/measure size mismatch")
    if not q >= 1:
        raise ValueError("q >= 1 required")
    if math.isinf(q):
        return float(np.max(np.abs(values)))
    return float(np.sum(mu.weights * np.abs(values) ** q) ** (1.0 / q))


def lp_norm(f: TestFunction, p: float) -> float:
    """Exact L^p norm of a piecewise-constant-modulus input."""
    if not p >= 1:
        raise ValueError("p >= 1 required")
    lens = np.array([s.length for s in f.segments])
    mods = np.array([abs(s.coefficient) for s in f.segments])
    if math.isinf(p):
        return float(np.max(mods[lens > 0], initial=0.0))
    return float(np.sum(mods**p * lens) ** (1.0 / p))


def lorentz_norm(f: TestFunction, p: float, q: float) -> float:
    """L^{p,q} via the decreasing rearrangement, exact on step functions.

    ||f||_{p,q}^q = sum_j v_j^q (p/q)(T_j^{q/p} - T_{j-1}^{q/p}) where v_j
    are the distinct moduli in decreasing order and T_j the cumulative
    lengths; q = inf gives the weak-L^p functional sup v T^{1/p}.
    """
    if not (p >= 1 and q >= 1):
        raise ValueError("p, q >= 1 required")
    if math.isinf(p):
        if math.isinf(q):
            return lp_norm(f, math.inf)
        raise ValueError("p = inf requires q = inf")
    lens = np.array([s.length for s in f.segments])
    mods = np.array([abs(s.coefficient) for s in f.segments])
    keep = (lens > 0) & (mods > 0)
    lens, mods = lens[keep], mods[keep]
    if lens.size == 0:
        return 0.0
    order = np.argsort(-mods)
    lens, mods = lens[order], mods[order]
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    if math.isinf(q):
        return float(np.max(mods * cum[1:] ** (1.0 / p)))
    total = np.sum(mods**q * (p / q) * (cum[1:] ** (q / p) - cum[:-1] ** (q / p)))
    return float(total ** (1.0 / q))
