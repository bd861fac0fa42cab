"""Dense Gauss-Legendre reference for the extension operator.

    R(x) = c * int_a^b exp(i (lam x - lam_m x_m) . gamma(t)) dt

is evaluated per point in extended precision (numpy longdouble), on
uniform panels that each carry at most PANEL_PHASE radians of phase and
a REF_ORDER-point Gauss-Legendre rule whose nodes are Newton-refined in
longdouble.  The phase is summed as one polynomial in t built from the
curve's exact rational coefficients, so the reference shares neither
the panel sizing, the quadrature rule nor the phase round-off of rlab's
own evaluation.  Only the ambient points x (for chart phases, the
chart embedding) come from the program.
"""

from __future__ import annotations

import math

import numpy as np

LD = np.longdouble
REF_ORDER = 24
PANEL_PHASE = 1.0


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


def _gauss_legendre_ld(n: int):
    """n-point Gauss-Legendre nodes and weights refined in longdouble."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(LD)
    for _ in range(3):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    return x, 2 / ((1 - x * x) * dp * dp)


_GX, _GW = _gauss_legendre_ld(REF_ORDER)


def _coefficients(curve) -> np.ndarray:
    """(dim, degree + 1) longdouble table of the exact coefficients."""
    width = max(len(row) for row in curve.coeffs)
    tab = np.zeros((curve.dim, width), dtype=LD)
    for i, row in enumerate(curve.coeffs):
        for j, c in enumerate(row):
            tab[i, j] = LD(c.numerator) / LD(c.denominator)
    return tab


def segment_integral(curve, lam: float, points, start: float, end: float,
                     modulation=None, coefficient: complex = 1.0):
    """Reference values at each row of ``points``, complex longdouble."""
    tab = _coefficients(curve)
    v = LD(lam) * np.atleast_2d(np.asarray(points, dtype=float)).astype(LD)
    if modulation is not None:
        x_m, lam_m = modulation
        v = v - LD(lam_m) * np.asarray(x_m, dtype=float).astype(LD)
    a, b = LD(start), LD(end)
    r = max(abs(float(start)), abs(float(end)))
    # |d/dt v . gamma(t)| <= sum_i |v_i| sum_j j |c_ij| r^(j-1) on [a, b]
    slope = np.array([sum(j * abs(float(tab[i, j])) * r ** (j - 1)
                          for j in range(1, tab.shape[1]))
                      for i in range(tab.shape[0])])
    out = np.empty(v.shape[0], dtype=np.clongdouble)
    for row in range(v.shape[0]):
        poly = v[row] @ tab                      # phase coefficients in t
        rate = float(np.abs(v[row]).astype(float) @ slope)
        n_panels = max(4, math.ceil(rate * float(b - a) / PANEL_PHASE))
        edges = a + (b - a) * np.arange(n_panels + 1, dtype=LD) / n_panels
        half = (edges[1:] - edges[:-1]) / 2
        mid = (edges[1:] + edges[:-1]) / 2
        ts = (mid[:, None] + half[:, None] * _GX[None, :]).ravel()
        ws = (half[:, None] * _GW[None, :]).ravel()
        phase = np.zeros_like(ts)
        for c in poly[::-1]:
            phase = phase * ts + c
        out[row] = np.sum(ws * np.exp(1j * phase))
    return out * complex(coefficient)


def sup_relative_error(values, reference) -> float:
    """max |values - reference| / max |reference| over the sample."""
    ref = np.asarray(reference)
    diff = np.abs(np.asarray(values).astype(np.clongdouble) - ref)
    return float(np.max(diff) / np.max(np.abs(ref)))
