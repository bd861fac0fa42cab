"""Discrete measures with quadrature weights.

Builders produce ``QuadMeasure`` objects: node/weight arrays together with
the claimed scaling dimension alpha.  Everything downstream (field norms,
Monte Carlo dimension audits) consumes this one container.

Resolution semantics are per builder: node count on the circle, polar
count for the 2-sphere, cells per axis elsewhere.  No builder makes a
grid of more than NODE_BUDGET nodes.

The graph charts ``SphereCap`` and ``SubmanifoldPatch`` alone know a chart
phase embed(y) . curve(t): each has chart dimension k, l graph outputs,
``embed``, ``jacobian``, ``check_curve``, and the stationary point and
curvature matrix of the phase.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .curves import Curve, TypeTuple, det_poly, poly_root_count
from .errors import (
    DataError,
    DegeneracyError,
    DomainError,
    SingularMatrixError,
    StationaryError,
)
from .exponents import _frac

_GL_CACHE: dict = {}
NODE_BUDGET = 2 ** 25    # largest grid a measure builder makes


def gauss_legendre(n: int) -> tuple:
    """n-point Gauss-Legendre nodes and weights on [-1, 1]: numpy's
    leggauss(n), built once per n and cached read-only.  numpy.polynomial
    is imported at the first build, so a run that builds no rule does not
    pay for the import."""
    if n not in _GL_CACHE:
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(n)
        x.setflags(write=False)
        w.setflags(write=False)
        _GL_CACHE[n] = x, w
    return _GL_CACHE[n]


def _check_budget(nodes: int, grid: str) -> None:
    """Refuse with ValueError a grid of more than NODE_BUDGET nodes, before
    any of it is allocated; grid names it in the message."""
    if nodes > NODE_BUDGET:
        raise ValueError(f"{grid} needs {nodes:,} nodes, "
                         f"more than the budget of {NODE_BUDGET:,}")


# ----------------------------------------------------------------------
# containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadMeasure:
    """Finite node/weight representation of a measure on R^dim."""

    dim: int
    nodes: np.ndarray      # (n, dim)
    weights: np.ndarray    # (n,), strictly positive
    alpha: float
    provenance: str
    max_spacing: float = float("nan")

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.atleast_2d(np.asarray(self.nodes, dtype=float)))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != self.dim:
            raise DataError(f"nodes must be (n, {self.dim})")
        if weights.shape != (nodes.shape[0],):
            raise DataError("weights length mismatch")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise DataError("nonfinite nodes or weights")
        if np.any(weights <= 0):
            raise DataError("weights must be strictly positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


# ----------------------------------------------------------------------
# sphere
# ----------------------------------------------------------------------

def sphere_measure(d: int, resolution: int = 0) -> QuadMeasure:
    """Surface measure on S^{d-1} for d in {2, 3}.

    d=2: n uniform angles (trapezoid; exact for trigonometric
    polynomials).  d=3: n_u Gauss-Legendre nodes in the polar cosine x
    2 n_u uniform azimuths (Atkinson & Han, Spherical Harmonics and
    Approximations on the Unit Sphere, 2012), 2 n_u^2 nodes.  Resolution
    0 picks the builder default (256 nodes, 64 polar).  max_spacing is the
    arc 2 pi/n at d=2 and the azimuthal step pi/n_u at d=3.  A grid of
    more than NODE_BUDGET nodes is refused with ValueError.
    """
    if resolution < 0:
        raise ValueError("resolution must be >= 0 (0 = default)")
    if 0 < resolution < 8:
        raise ValueError("resolution >= 8 required")
    if d == 2:
        n = resolution or 256
        _check_budget(n, f"the d=2 sphere grid at resolution {n}")
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(n, 2.0 * np.pi / n)
        return QuadMeasure(
            2, nodes, weights, alpha=1.0, provenance="sphere",
            max_spacing=2.0 * np.pi / n,
        )
    if d == 3:
        n_u = resolution or 64
        _check_budget(2 * n_u * n_u, f"the d=3 sphere grid at resolution {n_u}")
        n_az = 2 * n_u
        u, wu = gauss_legendre(n_u)
        phi = 2.0 * np.pi * (np.arange(n_az) + 0.5) / n_az
        su = np.sqrt(1.0 - u**2)
        x = np.outer(su, np.cos(phi)).ravel()
        y = np.outer(su, np.sin(phi)).ravel()
        z = np.repeat(u, n_az)
        nodes = np.column_stack([x, y, z])
        weights = np.repeat(wu, n_az) * (2.0 * np.pi / n_az)
        return QuadMeasure(
            3, nodes, weights, alpha=2.0, provenance="sphere",
            max_spacing=np.pi / n_u,
        )
    raise ValueError("sphere_measure supports d in {2, 3}")


def _sphere_rule(d: int, lam: float) -> tuple:
    """(resolution, node count) of sphere_resolution_for(d, lam), with no
    budget: n = 10 lambda nodes at d=2; n_u = 4 lambda polar nodes and
    2 n_u^2 nodes at d=3; resolution at least 8."""
    n = max(8, math.ceil((10.0 if d == 2 else 4.0) * lam))
    return n, (n if d == 2 else 2 * n * n)


def sphere_resolution_for(d: int, lam: float) -> int:
    """Smallest builder resolution meeting the grid rule at lambda.

    The field T_lambda f varies on x-scale 1/lambda: the circle takes
    n = 10 lambda nodes, the 2-sphere n_u = 4 lambda polar nodes (and
    2 n_u azimuths).  The d=3 rule is measured, not derived: on the d=3
    bump at lambda = 16 .. 64 it puts ||F||_q for q in {2, 7, 8, 12}
    within 1e-11 of a grid of 8 pi lambda polar nodes (odd q converge
    slowest).  A grid of more than NODE_BUDGET nodes is refused
    with ValueError: d=3 admits every lambda <= 1024, d=2 every
    lambda <= 2^21.
    """
    if d not in (2, 3):
        raise ValueError("d in {2, 3}")
    n, nodes = _sphere_rule(d, lam)
    _check_budget(nodes, f"the d={d} sphere grid at lambda={lam:g}")
    return n


@dataclass(frozen=True)
class SphereCap:
    """Chart y -> (phi(y) - 1, y) of the unit sphere near -e_1, with
    phi(y) = 1 - sqrt(1 - |y|^2) on the open unit ball of R^(d-1); every
    map refuses a point outside that ball with DomainError.
    """

    d: int
    l = 1                   # one graph output, the height

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d >= 2 required")

    @property
    def k(self) -> int:
        return self.d - 1

    def _root(self, y):
        """y as rows, and sqrt(1 - |y|^2) for each row."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        r2 = np.sum(y * y, axis=1)
        if np.any(r2 >= 1.0):
            raise DomainError("chart point outside the open unit ball")
        return y, np.sqrt(1.0 - r2)

    def value(self, y: np.ndarray) -> np.ndarray:
        """phi(y), shape (n, 1)."""
        y, s = self._root(y)
        return (1.0 - s)[:, None]

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        """grad phi(y), shape (n, 1, d - 1)."""
        y, s = self._root(y)
        return (y / s[:, None])[:, None, :]

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Points (phi(y) - 1, y) of the unit sphere."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.concatenate([self.value(y) - 1.0, y], axis=1)

    def check_curve(self, curve: Curve):
        if curve.dim != self.d:
            raise ValueError(f"a cap in R^{self.d} needs a curve in "
                             f"R^{self.d}, got R^{curve.dim}")

    def stationary(self, curve: Curve, t: float) -> np.ndarray:
        """g(t) = v / sqrt(1 + |v|^2) with v = -gamma_*'(t)/gamma_1'(t)."""
        dgam = curve.eval_many([t], 1)[0]
        if abs(dgam[0]) < 1e-14:
            raise StationaryError(
                f"first curve component has vanishing derivative at t={t}")
        v = -dgam[1:] / dgam[0]
        return v / math.sqrt(1.0 + float(v @ v))

    def curvature(self, curve: Curve, t: float) -> np.ndarray:
        """M(t), column j the exact -(gamma_1^{(j+1)}/gamma_1') gamma_*'
        + gamma_*^{(j+1)}, j = 1 .. d - 1."""
        d1 = curve.eval_many([t], 1)[0]
        if abs(d1[0]) < 1e-14:
            raise DegeneracyError(
                f"gamma_1'({t}) vanishes; chart frame breaks down")
        cols = []
        for j in range(1, self.d):
            dj = curve.eval_many([t], j + 1)[0]
            cols.append(-(dj[0] / d1[0]) * d1[1:] + dj[1:])
        return np.column_stack(cols)


sphere_cap_graph = SphereCap     # the builder name the experiments call


def cap_box_sigma_mass(d: int, half_widths: Sequence[float]) -> float:
    """Surface mass of a chart-coordinate box centered at 0 on S^{d-1}.

    Integrates sqrt(1 + |grad phi|^2) over the box with a tensor
    24-point Gauss-Legendre rule; orthonormal chart frames all give the
    same phi.
    """
    patch = sphere_cap_graph(d)
    m = d - 1
    hw = np.asarray(half_widths, dtype=float)
    if hw.shape != (m,):
        raise ValueError(f"need {m} half widths")
    x1, w1 = gauss_legendre(24)
    axes = [hw[i] * x1 for i in range(m)]
    wts = [hw[i] * w1 for i in range(m)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*wts, indexing="ij")
    wall = np.prod(np.stack([g.ravel() for g in wgrids]), axis=0)
    jac = patch.jacobian(pts)[:, 0, :]
    area = np.sqrt(1.0 + np.sum(jac * jac, axis=1))
    return float(np.sum(wall * area))


# ----------------------------------------------------------------------
# singular power measures
# ----------------------------------------------------------------------

def _axis_cells(resolution: int):
    """Symmetric cell partition of [-1, 1], refined toward 0 over 16
    dyadic octaves: the 4 resolution - 2 uniform cells off the middle
    two, 2 max(4, resolution // 8) cells per octave and one plug at 0.

    Returns (lo, hi) arrays.  The refinement keeps tiny boxes centered at
    the origin resolvable at every dyadic scale.
    """
    if resolution < 4:
        raise ValueError("resolution >= 4 required")
    edges = np.linspace(-1.0, 1.0, 4 * resolution + 1)
    h0 = edges[1] - edges[0]
    outer = (edges[1:] <= -h0 + 1e-15) | (edges[:-1] >= h0 - 1e-15)
    sub = np.array([np.linspace(h0 * 2.0**(-m - 1), h0 * 2.0**-m,
                                max(4, resolution // 8) + 1)
                    for m in range(16)])
    plug = h0 * 2.0**-16
    lo = np.concatenate([edges[:-1][outer], sub[:, :-1].ravel(),
                         -sub[:, 1:].ravel(), [-plug]])
    hi = np.concatenate([edges[1:][outer], sub[:, 1:].ravel(),
                         -sub[:, :-1].ravel(), [plug]])
    order = np.argsort(lo)
    return lo[order], hi[order]


def _power_cell_mass(lo: np.ndarray, hi: np.ndarray, s: float) -> np.ndarray:
    """Exact integral of |x|^s over [lo, hi] for s > -1.  At s = 0 the
    antiderivative's pow gives hi - lo bit for bit."""
    def anti(x):
        return np.sign(x) * np.abs(x) ** (s + 1.0) / (s + 1.0)

    return anti(hi) - anti(lo)


def _axis_cell_count(resolution: int) -> int:
    """len(_axis_cells(resolution)[0]), without building the cells."""
    return 4 * resolution - 1 + 32 * max(4, resolution // 8)


def singular_alpha_measure(d: int, alpha: float, resolution: int = 0) -> QuadMeasure:
    """Compactly supported measure of exact dimension alpha in R^d.

    The first d - ceil(alpha) coordinates are pinned to zero; the next
    coordinate carries the density |x|^{alpha - ceil(alpha)}; the remaining
    ones are Lebesgue.  All restricted to the unit ball, with the last free
    coordinate clipped exactly to the ball boundary.  Resolution 0 picks
    the builder default, 64.  The ceil(alpha) - 1 tensored axes give
    n_base base points (one, with no coordinates, at ceil(alpha) = 1) and
    the last axis n_cells cells; each base point keeps the run of cells
    that meets the ball's chord through it.  A grid whose n_base x n_cells
    passes NODE_BUDGET is refused with ValueError before it is built.
    """
    if not d - 2 < alpha <= d:
        raise ValueError("alpha in (d-2, d] required")
    resolution = resolution or 64
    if resolution < 16:
        raise ValueError("resolution >= 16 required")
    ca = math.ceil(alpha)
    _check_budget(_axis_cell_count(resolution) ** ca,
                  f"the alpha={alpha:g} singular grid at resolution {resolution}")
    lo, hi = _axis_cells(resolution)
    mid = 0.5 * (lo + hi)
    # the density exponent of each free coordinate, in (-1, 0] on the first
    powers = [alpha - ca] + [0.0] * (ca - 1)
    base, wbase = np.zeros((1, 0)), np.ones(1)
    for s in powers[:-1]:
        base = np.column_stack([np.repeat(base, lo.size, axis=0),
                                np.tile(mid, base.shape[0])])
        wbase = np.outer(wbase, _power_cell_mass(lo, hi, s)).ravel()
    r2 = 1.0 - np.sum(base * base, axis=1)
    keep = r2 > 0
    base, wbase, rmax = base[keep], wbase[keep], np.sqrt(r2[keep])
    # lo and hi are sorted, so the cells meeting (-rmax, rmax) are one run
    # of count cells from first, per base point
    first = np.searchsorted(hi, -rmax, side="right")
    count = np.searchsorted(lo, rmax, side="left") - first
    bi = np.repeat(np.arange(rmax.size), count)
    ci = np.arange(bi.size) + np.repeat(first + count - np.cumsum(count),
                                        count)
    clo = np.maximum(lo[ci], -rmax[bi])
    chi = np.minimum(hi[ci], rmax[bi])
    nodes = np.zeros((bi.size, d))
    nodes[:, d - ca:d - 1] = base[bi]
    nodes[:, d - 1] = 0.5 * (clo + chi)
    return QuadMeasure(
        d, nodes, wbase[bi] * _power_cell_mass(clo, chi, powers[-1]),
        alpha=float(alpha), provenance="singular",
        max_spacing=float(np.max(hi - lo)),
    )


# ----------------------------------------------------------------------
# anisotropic dilates
# ----------------------------------------------------------------------

def scaled_measure(mu: QuadMeasure, type_tuple: TypeTuple, ell: int,
                   kappa_val) -> QuadMeasure:
    """Anisotropic dyadic dilate: nodes through diag(2^{-ell a_i}),
    weights scaled by 2^{-ell kappa}."""
    a = tuple(type_tuple)
    if len(a) != mu.dim:
        raise ValueError("type tuple length must match measure dimension")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    diag = np.array([2.0 ** (-ell * ai) for ai in a])
    factor = 2.0 ** (-ell * float(_frac(kappa_val)))
    return QuadMeasure(
        mu.dim, mu.nodes * diag[None, :], mu.weights * factor,
        alpha=mu.alpha, provenance="scaled",
        max_spacing=mu.max_spacing * float(np.max(diag)),
    )


# ----------------------------------------------------------------------
# k-dimensional integral graphs
# ----------------------------------------------------------------------

_T_BLOCK = 2048             # t-nodes per block of a many-point M(t) evaluation


def _blockwise(rows: np.ndarray, per_row: int, kernel: Callable,
               shape: tuple) -> np.ndarray:
    """kernel over consecutive blocks of rows, into one (n, *shape) array.

    rows is a 1-d array of parameters, each standing for per_row
    t-nodes, and a block holds at most _T_BLOCK t-nodes (at least one
    row).  kernel(block) returns the block's (len(block), *shape) result.
    The solves, polyvals, matmuls and einsums of a kernel treat each row
    on its own, so the result is bit-identical to one call on every row,
    while the scratch arrays stay the size of one block.
    """
    rows = np.atleast_1d(np.asarray(rows, dtype=float))
    step = max(1, _T_BLOCK // per_row)
    out = np.empty((rows.shape[0],) + shape)
    for lo in range(0, rows.shape[0], step):
        out[lo:lo + step] = kernel(rows[lo:lo + step])
    return out


@dataclass(frozen=True)
class SubmanifoldPatch:
    """Graph chart of a k-dimensional model submanifold in R^d.

    The leading l = d - k ambient coordinates are the integrals
    phi_j(y) = sum_i int_0^{y_i} M_ij(t) dt with M = -B1 A1^{-1} built from
    derivative blocks of the (possibly permuted) curve; the diagonal
    t -> (t, ..., t) is the distinguished parameter line.  The chart
    methods of its phase take the phase's curve, which ``check_curve``
    holds to ``curve``.
    """

    curve: Curve          # permuted so the leading l x l block is invertible
    k: int
    perm: tuple

    @property
    def l(self) -> int:
        return self.curve.dim - self.k

    def blocks(self, ts: np.ndarray):
        """A1 (n,l,l), A2 (n,l,k), B1 (n,k,l), B2 (n,k,k) at parameter ts."""
        d, l = self.curve.dim, self.l
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        cols = [self.curve.eval_many(ts, j) for j in range(1, d + 1)]
        full = np.stack(cols, axis=2)  # (n, d, d): [point, component, order]
        a1 = full[:, :l, :l]
        a2 = full[:, :l, l:]
        b1 = full[:, l:, :l]
        b2 = full[:, l:, l:]
        return a1, a2, b1, b2

    def _m_batch(self, ts: np.ndarray) -> np.ndarray:
        """M(t) at every t of ts in one batch, shape (n, k, l)."""
        a1, _, b1, _ = self.blocks(ts)
        zt = np.linalg.solve(np.swapaxes(a1, 1, 2), np.swapaxes(b1, 1, 2))
        return -np.swapaxes(zt, 1, 2)

    def m_matrix(self, ts: np.ndarray) -> np.ndarray:
        """M(t) = -B1 A1^{-1}, shape (n, k, l)."""
        return _blockwise(ts, 1, self._m_batch, (self.k, self.l))

    def curvature_block(self, ts: np.ndarray) -> np.ndarray:
        """(B2 - B1 A1^{-1} A2)(t), the k x k twisted curvature matrix."""
        def kernel(tb):
            a1, a2, b1, b2 = self.blocks(tb)
            return b2 - b1 @ np.linalg.solve(a1, a2)

        return _blockwise(ts, 1, kernel, (self.k, self.k))

    def _fint_axis(self, svals: np.ndarray, i: int) -> np.ndarray:
        """int_0^{s} M_ij(t) dt for each s and j, shape (n, l), by 32-point
        Gauss-Legendre."""
        x, w = gauss_legendre(32)

        def kernel(s):
            ts = 0.5 * s[:, None] * (x[None, :] + 1.0)      # (n, gl)
            ws = 0.5 * s[:, None] * w[None, :]
            mvals = self._m_batch(ts.ravel()).reshape(s.size, 32, self.k, self.l)
            return np.einsum("ng,ngkl->nkl", ws, mvals)[:, i, :]

        return _blockwise(svals, 32, kernel, (self.l,))

    def value(self, y: np.ndarray) -> np.ndarray:
        """phi(y), shape (n, l); phi_j = sum_i int_0^{y_i} M_ij."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.zeros((y.shape[0], self.l))
        for i in range(self.k):
            uniq, inv = np.unique(y[:, i], return_inverse=True)
            out += self._fint_axis(uniq, i)[inv]
        return out

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        """d phi_j / d y_i = M_ij(y_i), shape (n, l, k)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.zeros((y.shape[0], self.l, self.k))
        for i in range(self.k):
            uniq, inv = np.unique(y[:, i], return_inverse=True)
            tab = self.m_matrix(uniq)[:, i, :]  # (m, l)
            out[:, :, i] = tab[inv]
        return out

    def embed(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.concatenate([self.value(y), y], axis=1)

    def check_curve(self, curve: Curve):
        """Refuse a phase curve other than the (permuted) one the graph
        was built from: the chart maps would not fit its phase."""
        if curve.coeffs != self.curve.coeffs:
            raise ValueError(f"the patch is built for {self.curve.name}, "
                             f"not {curve.name}; pass patch.curve")

    def stationary(self, curve: Curve, t: float) -> np.ndarray:
        """The diagonal g(t) = (t, ..., t)."""
        return np.full(self.k, float(t))

    def curvature(self, curve: Curve, t: float) -> np.ndarray:
        """M(t), the curvature block at t."""
        return self.curvature_block([t])[0]

    def mixed_grad(self, ts, order: int) -> np.ndarray:
        """d_t^order grad_y psi evaluated along (g(t), t), shape (n, k).

        Zero for order = 1..l by construction of phi; for order = l+j the
        values are the columns of the curvature block.
        """
        def kernel(tb):
            gam = self.curve.eval_many(tb, order)
            return (np.einsum("nkl,nl->nk", self._m_batch(tb), gam[:, :self.l])
                    + gam[:, self.l:])

        return _blockwise(ts, 1, kernel, (self.k,))


def submanifold_builder(d: int, k: int, curve: Curve,
                        extent: float = 1.0) -> SubmanifoldPatch:
    """Build the k-dimensional integral graph adapted to the curve.

    Searches coordinate permutations of the curve components until the
    leading l x l derivative block (l = d - k, derivative orders 1..l) is
    invertible on all of [0, extent]: its determinant is an exact
    polynomial, nonzero with no zero there by a Sturm count.  The
    returned patch bundles the graph maps and the chart data of its
    phase: the diagonal line ``stationary`` and the curvature block.
    Its phase takes ``patch.curve``, the permuted curve.
    """
    if d != curve.dim:
        raise ValueError("d must equal curve.dim")
    if not 2 <= k <= d - 1:
        raise ValueError(f"k must satisfy 2 <= k <= d-1, got {k}")
    l = d - k
    for perm in permutations(range(d)):
        rows = tuple(curve.coeffs[i] for i in perm)
        det = det_poly(Curve(rows[:l]), range(1, l + 1))
        if any(det) and not poly_root_count(det, 0, extent):
            cand = Curve(rows, domain=curve.domain,
                         name=f"{curve.name}@perm{perm}")
            return SubmanifoldPatch(curve=cand, k=k, perm=perm)
    raise SingularMatrixError(
        "no coordinate permutation makes the leading block invertible"
    )


# ----------------------------------------------------------------------
# Monte Carlo dimension audit
# ----------------------------------------------------------------------

_RUN_CELLS = 256            # cells per column along the bound pass's run axis
_BOUND_CELLS = 1 << 14      # ball-column pairs per chunk of the bound pass


def _span(nodes: np.ndarray) -> np.ndarray:
    """max - min of each coordinate of the (n, dim) nodes.

    Reduced column by column: numpy reduces a narrow array over axis 0
    an order of magnitude slower.
    """
    return np.array([c.max() - c.min() for c in nodes.T])


def _min_spacing(mu: QuadMeasure) -> float:
    """Smallest positive distance between two nodes.

    A sorted sweep: with the nodes sorted along their widest axis, the
    pairs k apart in that order are compared only where their gaps on
    that axis and on the next widest do not exceed the best distance so
    far, since each gap bounds their distance from below.  The sweep
    stops at the first k where no gap on the sort axis is that small.
    Above 40,000 nodes a fixed random subsample of that size stands in
    for the measure.
    """
    pts = mu.nodes
    if pts.shape[0] > 40000:
        rng = np.random.default_rng(0)
        pts = pts[rng.choice(pts.shape[0], 40000, replace=False)]
    extent = _span(pts)
    if not np.any(extent > 0):
        raise DataError("degenerate node set")
    by_extent = np.argsort(-extent, kind="stable")
    ax, ax2 = by_extent[0], by_extent[min(1, mu.dim - 1)]
    cols = np.ascontiguousarray(pts[np.argsort(pts[:, ax], kind="stable")].T)
    key, key2 = cols[ax], cols[ax2]
    best_d2 = np.inf
    for k in range(1, key.size):
        # the slack absorbs the rounding of the gaps and of the square root
        bound = math.sqrt(best_d2) * (1.0 + 1e-12)
        live = key[k:] - key[:-k] <= bound
        if not live.any():
            break
        near = np.flatnonzero(live & (np.abs(key2[k:] - key2[:-k]) <= bound))
        d2 = _column_d2(cols[:, near + k], cols[:, near])
        positive = d2[d2 > 0]
        if positive.size:
            best_d2 = min(best_d2, float(positive.min()))
    return math.sqrt(best_d2)


def _column_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of a, shape (dim, m), and b.

    b is one point (dim,) or m points (dim, m).  The sum runs coordinate
    by coordinate, ((dx*dx + dy*dy) + dz*dz), which is the rounding of
    np.sum((points - x)**2, axis=1) on row-major points.  It runs in
    place on the result and one scratch row: each temporary would cost
    a pass over memory of its own.
    """
    d2 = np.subtract(a[0], b[0])
    d2 *= d2
    d = np.empty_like(d2)
    for i in range(1, a.shape[0]):
        np.subtract(a[i], b[i], out=d)
        d *= d
        d2 += d
    return d2


def _ball_masses(nodes: np.ndarray, weights: np.ndarray, centers: np.ndarray,
                 radii: np.ndarray):
    """Yield the masses of the closed balls B(centers[i], radii[i]) in turn.

    Each ball looks only at the slab of nodes whose coordinate on the
    slab axis lies within its radius of the center, a superset of the
    ball.  The slab axis is the widest axis whose coordinates are
    nondecreasing in node-index order, if there is one: a slab is then
    an index range and its hits are already in node order.  Otherwise
    it is the widest axis, with the nodes sorted along it once, and
    each ball's hits are sorted back into node order.  Distances round
    as in np.sum((nodes - c)**2, axis=1) <= r*r over every node, and
    the weights inside are summed in node-index order, so each mass is
    bit-identical to that brute-force sum.
    """
    cols = np.ascontiguousarray(nodes.T)
    in_order = [np.all(c[1:] >= c[:-1]) for c in cols]
    span = _span(nodes)
    ax = max(range(len(cols)), key=lambda i: (in_order[i], span[i]))
    perm = None
    if not in_order[ax]:
        perm = np.argsort(cols[ax], kind="stable")
        cols = cols[:, perm]
    # a node just past c +- r can still pass d2 <= r*r after rounding;
    # the pad covers that, and the rounding of c +- r, with room to spare
    pad = 1e-12 * (np.abs(centers[:, ax]) + radii)
    starts = np.searchsorted(cols[ax], centers[:, ax] - radii - pad, side="left")
    stops = np.searchsorted(cols[ax], centers[:, ax] + radii + pad, side="right")
    for c, r, lo, hi in zip(centers, radii, starts, stops):
        hit = _column_d2(cols[:, lo:hi], c) <= r * r
        if perm is None:
            yield float(np.add.reduce(weights[lo:hi][hit]))
        else:
            yield float(np.add.reduce(weights[np.sort(perm[lo:hi][hit])]))


def _column_bounds(nodes: np.ndarray, weights: np.ndarray, centers: np.ndarray,
                   radii: np.ndarray) -> np.ndarray:
    """Upper bounds on the masses _ball_masses yields for the same balls.

    The widest axis is the run axis.  The nodes are binned into columns,
    32 per other axis at d=2 and 8 at higher d, and each column keeps
    prefix sums of its mass over _RUN_CELLS cells along the run axis.  A
    ball's bound adds, over the columns it reaches, the mass of the run
    its chord through the column covers, plus a slack.

    Rounding (u = eps/2, tol = 4 dim eps): a node with fl(|x - c|^2) <=
    r*r has |x - c|^2 <= r*r (1 + tol).  Column faces are padded past the
    rounding of a node's column index, and d2, the squared distance from
    c to the column shrunk by 1 - tol, is at most the node's own off the
    run axis.  So the column is reached, and the half-chord sqrt(r*r (1 +
    tol) - d2) (1 + tol) is at least the node's run-axis offset.  The
    chord's ends round monotonically, and the node's run cell and theirs
    come from one monotone float map: every node with fl(|x - c|^2) <=
    r*r lies in a counted cell.  The prefix differences, their sum and
    the ball's float mass are each within (n + cells) u of the total
    mass; the slack, 4 (n + cells) eps times the total, covers the three.
    """
    n, dim = nodes.shape
    lo, hi = (np.array([f(c) for c in nodes.T]) for f in (np.min, np.max))
    span = hi - lo
    ax = int(np.argmax(span))
    tol = 4.0 * dim * np.finfo(float).eps

    def cells(x, j, size):
        scale = size / span[j] if span[j] > 0 else 0.0
        return np.clip(np.floor((x - lo[j]) * scale), 0, size - 1).astype(np.intp)

    col, ncol, faces = np.zeros(n, dtype=np.intp), 1, []
    for j in (i for i in range(dim) if i != ax):
        size = (32 if dim == 2 else 8) if span[j] > 0 else 1
        col = col * size + cells(nodes[:, j], j, size)
        ncol *= size
        pad = 1e-12 * (abs(lo[j]) + abs(hi[j]))
        edges = lo[j] + np.arange(size + 1) * (span[j] / size)
        faces.append((j, edges[:-1] - pad, edges[1:] + pad))
    run = _RUN_CELLS if span[ax] > 0 else 1
    mass = np.bincount(col * run + cells(nodes[:, ax], ax, run), weights,
                       minlength=ncol * run).reshape(ncol, run)
    prefix = np.zeros((ncol, run + 1))
    np.cumsum(mass, axis=1, out=prefix[:, 1:])
    occupied = np.flatnonzero(prefix[:, -1])
    flat, rows = prefix[occupied].ravel(), np.arange(occupied.size) * (run + 1)
    slack = 4.0 * (n + ncol * run) * np.finfo(float).eps * float(np.sum(weights))
    step = max(1, _BOUND_CELLS // occupied.size)
    bounds = np.empty(radii.size)
    for s in range(0, radii.size, step):
        c, r = centers[s:s + step], radii[s:s + step]
        d2 = np.zeros((r.size, 1))
        for j, f_lo, f_hi in faces:
            gap = np.maximum(np.maximum(f_lo - c[:, j, None], c[:, j, None] - f_hi), 0.0)
            d2 = (d2[:, :, None] + (gap * gap)[:, None, :]).reshape(r.size, -1)
        d2 = d2[:, occupied] * (1.0 - tol)
        r2 = r * r * (1.0 + tol)
        # only the reached (ball, column) pairs get a chord
        ball, k = np.nonzero(d2 <= r2[:, None])
        half = np.sqrt(r2[ball] - d2[ball, k]) * (1.0 + tol)
        ca = c[ball, ax]
        first = cells(ca - half, ax, run) + rows[k]
        last = cells(ca + half, ax, run) + rows[k] + 1
        bounds[s:s + step] = np.bincount(ball, flat[last] - flat[first],
                                         minlength=r.size)
    return bounds + slack


def _max_mass_ratio(nodes: np.ndarray, weights: np.ndarray,
                    centers: np.ndarray, radii: np.ndarray,
                    alpha: float) -> float:
    """Largest mass(B(centers[i], radii[i])) / radii[i]**alpha.

    Balls get an exact mass in decreasing order of their column bound's
    ratio, and the pass stops at the first bound ratio that does not
    exceed the largest exact one.  A bound counts every node with
    fl(|x - c|^2) <= r*r, and its slack covers the rounding of the prefix
    differences, so it is never below the ball's float mass; division
    rounds monotonically, so no ball after the stop can raise the
    maximum.  The result equals, bit for bit, the maximum over every
    ball of its brute-force ratio.
    """
    # the brute-force ratio's scalar power: numpy's vectorized power can
    # round differently in the last bit
    denoms = np.array([r ** alpha for r in radii])
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = _column_bounds(nodes, weights, centers, radii) / denoms
    order = np.argsort(-keys, kind="stable")
    masses = _ball_masses(nodes, weights, centers[order], radii[order])
    worst = 0.0
    for i in order:
        if not keys[i] > worst:
            break
        ratio = next(masses) / denoms[i]
        if ratio > worst:
            worst = ratio
    return worst


def check_audit_arguments(alpha: float = 0.0, n_samples: int = 100,
                          seed: int = 0, r_floor: float | None = None) -> None:
    """Refuse with ValueError what dimension_audit refuses; an argument left
    out passes, so a caller can check those it has before a measure build."""
    if n_samples < 100:
        raise ValueError("n_samples >= 100 required")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if r_floor is not None and not float(r_floor) > 0:
        raise ValueError(f"r_floor must be positive, got {r_floor!r}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def dimension_audit(mu: QuadMeasure, alpha: float, n_samples: int = 10000,
                    seed: int = 0, r_floor: float | None = None) -> float:
    """Monte Carlo check of mu(B(x, r)) <= C r^alpha.

    Samples centers near the support (random node plus jitter) and radii
    log-uniform between the floor (default 4x the minimum node spacing)
    and the support diameter; returns the largest observed mass ratio.
    alpha must be finite and seed an integer >= 0.  The floor must be
    positive; an infinite one means half the diameter.

    Balls are pruned by column bounds (``_column_bounds``): only those
    whose bound can still beat the largest ratio found get an exact mass,
    from a slab-pruned pass (``_ball_masses``).  A bound counts every
    node with fl(|x - c|^2) <= r^2, and its slack covers the rounding of
    its prefix-sum differences, so pruning never drops the maximum.  The
    slabs are index ranges along the widest axis on which the nodes are
    already in order, or else cuts of a sort along the widest axis.  Exact
    distances round as the brute-force |x - c|^2 <= r^2 over every node
    does, and the weights inside are summed in node-index order, so the
    result is identical, bit for bit, to the brute-force definition.
    """
    check_audit_arguments(alpha, n_samples, seed, r_floor)
    rng = np.random.default_rng(seed)
    nodes, weights = mu.nodes, mu.weights
    n = nodes.shape[0]
    if n == 0:
        raise DataError("empty measure")
    diam = float(np.linalg.norm(_span(nodes)))
    if diam == 0:
        raise DataError("measure support has zero extent")
    floor = 4.0 * _min_spacing(mu) if r_floor is None else float(r_floor)
    floor = min(floor, 0.5 * diam)
    idx = rng.integers(0, n, size=n_samples)
    jitter_scale = mu.max_spacing if np.isfinite(mu.max_spacing) else floor
    centers = nodes[idx] + rng.normal(scale=jitter_scale, size=(n_samples, mu.dim))
    radii = floor * (diam / floor) ** rng.uniform(size=n_samples)
    return _max_mass_ratio(nodes, weights, centers, radii, alpha)
