"""Discrete measures with quadrature weights.

Builders produce ``QuadMeasure`` objects: node/weight arrays together with
the claimed scaling dimension alpha.  Everything downstream (field norms,
box masses, Monte Carlo dimension audits) consumes this one container.

Resolution semantics are per builder: node count on the circle, polar
count for the 2-sphere, cells per axis elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .curves import Curve, TypeTuple, det_poly, poly_root_count
from .errors import DataError, DomainError, SingularMatrixError
from .exponents import _frac

_GL_CACHE: dict = {}


def gauss_legendre(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


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

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, f) -> complex:
        """Integrate a callable or a per-node value array."""
        vals = f(self.nodes) if callable(f) else np.asarray(f)
        return complex(np.sum(self.weights * vals))


@dataclass(frozen=True)
class GraphPatch:
    """Graph chart y -> (graph(y), y) with derivative oracles.

    The graph outputs occupy the leading ``n_graph`` ambient slots; the
    base point fills the rest.  ``offset`` is subtracted from the graph
    values by phase evaluators that want the chart to sit on the surface
    itself (e.g. the unit sphere near -e_1 uses offset one).
    """

    base_dim: int
    n_graph: int
    value: Callable
    jacobian: Callable
    hessian: Callable | None
    domain_radius: float
    kind: str

    def embed(self, y: np.ndarray, offset: float = 0.0) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        g = self.value(y) - offset
        return np.concatenate([g, y], axis=1)


# ----------------------------------------------------------------------
# sphere
# ----------------------------------------------------------------------

def sphere_measure(d: int, resolution: int = 0) -> QuadMeasure:
    """Surface measure on S^{d-1} for d in {2, 3}.

    d=2: uniform angles (trapezoid; exact for trigonometric polynomials).
    d=3: Gauss-Legendre in the polar cosine x uniform azimuth.
    Resolution 0 picks the builder default (256 nodes, 64 polar).
    """
    if resolution < 0:
        raise ValueError("resolution must be >= 0 (0 = default)")
    if d == 2:
        n = resolution or 256
        if n < 8:
            raise ValueError("resolution >= 8 required")
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(n, 2.0 * np.pi / n)
        return QuadMeasure(
            2, nodes, weights, alpha=1.0, provenance="sphere",
            max_spacing=2.0 * np.pi / n,
        )
    if d == 3:
        n_u = resolution or 64
        if n_u < 8:
            raise ValueError("resolution >= 8 required")
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
            max_spacing=max(np.pi / n_u, 2.0 * np.pi / n_az),
        )
    raise ValueError("sphere_measure supports d in {2, 3}")


def sphere_resolution_for(d: int, lam: float) -> int:
    """Smallest builder resolution meeting the frequency spacing rule.

    The field T_lambda f varies on x-scale 1/lambda, so the sphere grid
    must satisfy arc spacing <= 2 pi/(10 lambda) for d=2 and angular
    spacing <= 1/(8 lambda) for d=3.
    """
    if d == 2:
        return max(8, int(math.ceil(10.0 * lam)))
    if d == 3:
        return max(8, int(math.ceil(8.0 * np.pi * lam)))
    raise ValueError("d in {2, 3}")


def sphere_spacing_rule(d: int, lam: float) -> float:
    """Largest admissible node spacing on S^{d-1} at frequency lambda."""
    if d == 2:
        return 2.0 * np.pi / (10.0 * lam)
    if d == 3:
        return 1.0 / (8.0 * lam)
    raise ValueError("d in {2, 3}")


def sphere_cap_graph(d: int) -> GraphPatch:
    """Chart phi(y) = 1 - sqrt(1 - |y|^2) of the unit sphere near -e_1."""
    if d < 2:
        raise ValueError("d >= 2 required")
    m = d - 1

    def _s(y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        r2 = np.sum(y * y, axis=1)
        if np.any(r2 >= 1.0):
            raise DomainError("chart point outside the open unit ball")
        return y, np.sqrt(1.0 - r2)

    def value(y):
        y, s = _s(y)
        return (1.0 - s)[:, None]

    def jacobian(y):
        y, s = _s(y)
        return (y / s[:, None])[:, None, :]

    def hessian(y):
        y, s = _s(y)
        eye = np.eye(m)[None, :, :]
        outer = y[:, :, None] * y[:, None, :]
        return eye / s[:, None, None] + outer / (s**3)[:, None, None]

    return GraphPatch(
        base_dim=m, n_graph=1, value=value, jacobian=jacobian,
        hessian=hessian, domain_radius=1.0, kind="sphere_cap",
    )


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
# hyperplane graphs
# ----------------------------------------------------------------------

def hyperplane_measure(c_normal: Sequence, d: int, extent: float = 1.0,
                       resolution: int = 32) -> QuadMeasure:
    """Lebesgue measure of the hyperplane {c . x = 0} over a coordinate box.

    The coordinate with the largest |c_k| is solved for: x_k = h . xbar,
    so each cell carries weight sqrt(1 + |h|^2) * cell volume.
    """
    c = np.asarray([float(_frac(x)) for x in c_normal], dtype=float)
    if c.shape != (d,):
        raise ValueError(f"normal must have length {d}")
    k = int(np.argmax(np.abs(c)))
    if c[k] == 0:
        raise ValueError("normal vector must be nonzero")
    h = np.array([-c[i] / c[k] for i in range(d) if i != k])
    m = d - 1
    edges = np.linspace(-extent, extent, resolution + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    grids = np.meshgrid(*([mids] * m), indexing="ij")
    xbar = np.column_stack([g.ravel() for g in grids])
    xk = xbar @ h
    nodes = np.insert(xbar, k, xk, axis=1)
    area = math.sqrt(1.0 + float(h @ h))
    weights = np.full(xbar.shape[0], (width**m) * area)
    return QuadMeasure(
        d, nodes, weights, alpha=float(m), provenance="hyperplane",
        max_spacing=width * area,
    )


# ----------------------------------------------------------------------
# singular power measures
# ----------------------------------------------------------------------

def _axis_cells(resolution: int):
    """Symmetric cell partition of [-1, 1], refined toward 0 over 16
    dyadic octaves.

    Returns (lo, hi) arrays.  The refinement keeps tiny boxes centered at
    the origin resolvable at every dyadic scale.
    """
    if resolution < 4:
        raise ValueError("resolution >= 4 required")
    n_u = 4 * resolution
    edges = np.linspace(-1.0, 1.0, n_u + 1)
    h0 = edges[1] - edges[0]
    lo, hi = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= -h0 + 1e-15 or a >= h0 - 1e-15:
            lo.append(a)
            hi.append(b)
    n_sub = max(4, resolution // 8)
    for mth in range(16):
        outer = h0 * 2.0**(-mth)
        inner = h0 * 2.0**(-mth - 1)
        sub = np.linspace(inner, outer, n_sub + 1)
        for a, b in zip(sub[:-1], sub[1:]):
            lo.extend([a, -b])
            hi.extend([b, -a])
    plug = h0 * 2.0**-16
    lo.append(-plug)
    hi.append(plug)
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    order = np.argsort(lo)
    return lo[order], hi[order]


def _power_cell_mass(lo: np.ndarray, hi: np.ndarray, s: float) -> np.ndarray:
    """Exact integral of |x|^s over [lo, hi] for s > -1."""
    def anti(x):
        return np.sign(x) * np.abs(x) ** (s + 1.0) / (s + 1.0)

    return anti(hi) - anti(lo)


def singular_alpha_measure(d: int, alpha: float, resolution: int = 64) -> QuadMeasure:
    """Compactly supported measure of exact dimension alpha in R^d.

    The first d - ceil(alpha) coordinates are pinned to zero; the next
    coordinate carries the density |x|^{alpha - ceil(alpha)}; the remaining
    ones are Lebesgue.  All restricted to the unit ball, with the last free
    coordinate clipped exactly to the ball boundary.
    """
    if not d - 2 < alpha <= d:
        raise ValueError("alpha in (d-2, d] required")
    if resolution < 16:
        raise ValueError("resolution >= 16 required")
    ca = math.ceil(alpha)
    n_zero = d - ca
    s = alpha - ca  # in (-1, 0]
    lo, hi = _axis_cells(resolution)
    mid = 0.5 * (lo + hi)
    first_mass = _power_cell_mass(lo, hi, s)
    plain_mass = hi - lo

    if ca == 1:
        # single free coordinate: clip its cells to [-1, 1] (already inside)
        nodes_free = mid[:, None]
        weights = first_mass
        keep = weights > 0
        nodes_free, weights = nodes_free[keep], weights[keep]
    else:
        # tensor the first ca-1 coordinates, clip the last one to the ball
        axes_mid = [mid] * (ca - 1)
        axes_mass = [first_mass] + [plain_mass] * (ca - 2)
        grids = np.meshgrid(*axes_mid, indexing="ij")
        base = np.column_stack([g.ravel() for g in grids])
        wg = np.meshgrid(*axes_mass, indexing="ij")
        wbase = np.prod(np.stack([g.ravel() for g in wg]), axis=0)
        r2 = 1.0 - np.sum(base * base, axis=1)
        keep = r2 > 0
        base, wbase, r2 = base[keep], wbase[keep], r2[keep]
        rmax = np.sqrt(r2)
        clo = np.clip(lo[None, :], -rmax[:, None], rmax[:, None])
        chi = np.clip(hi[None, :], -rmax[:, None], rmax[:, None])
        seg = chi - clo  # (n_base, n_cells)
        bi, ci = np.nonzero(seg > 0)
        last_mid = 0.5 * (clo[bi, ci] + chi[bi, ci])
        nodes_free = np.column_stack([base[bi], last_mid])
        weights = wbase[bi] * seg[bi, ci]

    nodes = np.concatenate(
        [np.zeros((nodes_free.shape[0], n_zero)), nodes_free], axis=1
    )
    return QuadMeasure(
        d, nodes, weights, alpha=float(alpha), provenance="singular",
        max_spacing=float(np.max(hi - lo)),
    )


def box_mass(mu: QuadMeasure, half_widths: Sequence[float], center=None) -> float:
    """Mass of an axis-aligned box |x_i - c_i| <= hw_i under mu."""
    hw = np.asarray(half_widths, dtype=float)
    if hw.shape != (mu.dim,):
        raise ValueError(f"need {mu.dim} half widths")
    c = np.zeros(mu.dim) if center is None else np.asarray(center, dtype=float)
    inside = np.all(np.abs(mu.nodes - c) <= hw, axis=1)
    return float(np.sum(mu.weights[inside]))


# ----------------------------------------------------------------------
# images and anisotropic dilates
# ----------------------------------------------------------------------

def pushforward_measure(mu: QuadMeasure, linear_map: np.ndarray,
                        mass_scale: float = 1.0) -> QuadMeasure:
    """Image of mu under x -> transpose(linear_map) x, weights scaled."""
    a = np.asarray(linear_map, dtype=float)
    if a.shape != (mu.dim, mu.dim) or not np.all(np.isfinite(a)):
        raise ValueError("linear_map must be a finite square matrix")
    if mass_scale <= 0:
        raise ValueError("mass_scale must be positive")
    nodes = mu.nodes @ a  # row form of transpose(a) @ x
    op_norm = float(np.linalg.norm(a, 2))
    return QuadMeasure(
        mu.dim, nodes, mu.weights * mass_scale, alpha=mu.alpha,
        provenance="pushforward",
        max_spacing=mu.max_spacing * op_norm,
    )


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
# Lebesgue patches (chart-side integration grids)
# ----------------------------------------------------------------------

def patch_measure(center: Sequence[float], half_widths: Sequence[float],
                  spacing: float) -> QuadMeasure:
    """Uniform midpoint grid over a box, weights = cell volume."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    hw = np.atleast_1d(np.asarray(half_widths, dtype=float))
    if c.shape != hw.shape:
        raise ValueError("center/half_widths shape mismatch")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    axes, widths = [], []
    for ci, hi in zip(c, hw):
        n = max(3, int(math.ceil(2.0 * hi / spacing)))
        edges = np.linspace(ci - hi, ci + hi, n + 1)
        axes.append(0.5 * (edges[:-1] + edges[1:]))
        widths.append(edges[1] - edges[0])
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    weights = np.full(nodes.shape[0], float(np.prod(widths)))
    return QuadMeasure(
        len(hw), nodes, weights, alpha=float(len(hw)), provenance="patch",
        max_spacing=float(np.max(widths)),
    )


# ----------------------------------------------------------------------
# k-dimensional integral graphs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubmanifoldPatch:
    """Graph chart of a k-dimensional model submanifold in R^d.

    The leading l = d - k ambient coordinates are the integrals
    phi_j(y) = sum_i int_0^{y_i} M_ij(t) dt with M = -B1 A1^{-1} built from
    derivative blocks of the (possibly permuted) curve; the diagonal
    t -> (t, ..., t) is the distinguished parameter line.
    """

    curve: Curve          # permuted so the leading l x l block is invertible
    k: int
    extent: float
    perm: tuple
    resolution: int = 24

    @property
    def l(self) -> int:
        return self.curve.dim - self.k

    @property
    def base_dim(self) -> int:
        return self.k

    @property
    def n_graph(self) -> int:
        return self.l

    @property
    def domain_radius(self) -> float:
        return float("inf")

    @property
    def kind(self) -> str:
        return "integral_graph"

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

    def m_matrix(self, ts: np.ndarray) -> np.ndarray:
        """M(t) = -B1 A1^{-1}, shape (n, k, l)."""
        a1, _, b1, _ = self.blocks(ts)
        zt = np.linalg.solve(np.swapaxes(a1, 1, 2), np.swapaxes(b1, 1, 2))
        return -np.swapaxes(zt, 1, 2)

    def curvature_block(self, ts: np.ndarray) -> np.ndarray:
        """(B2 - B1 A1^{-1} A2)(t), the k x k twisted curvature matrix."""
        a1, a2, b1, b2 = self.blocks(ts)
        x = np.linalg.solve(a1, a2)  # A1^{-1} A2
        return b2 - b1 @ x

    def _fint_axis(self, svals: np.ndarray) -> np.ndarray:
        """int_0^{s} M_ij(t) dt for each s, shape (n, k, l), by 32-point
        Gauss-Legendre."""
        x, w = gauss_legendre(32)
        s = np.asarray(svals, dtype=float)
        ts = 0.5 * s[:, None] * (x[None, :] + 1.0)      # (n, gl)
        ws = 0.5 * s[:, None] * w[None, :]
        mvals = self.m_matrix(ts.ravel()).reshape(s.size, 32, self.k, self.l)
        return np.einsum("ng,ngkl->nkl", ws, mvals)

    def value(self, y: np.ndarray) -> np.ndarray:
        """phi(y), shape (n, l); phi_j = sum_i int_0^{y_i} M_ij."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.zeros((y.shape[0], self.l))
        for i in range(self.k):
            uniq, inv = np.unique(y[:, i], return_inverse=True)
            tab = self._fint_axis(uniq)[:, i, :]  # (m, l)
            out += tab[inv]
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

    hessian = None

    def embed(self, y: np.ndarray, offset: float = 0.0) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.concatenate([self.value(y) - offset, y], axis=1)

    def g(self, ts) -> np.ndarray:
        """Distinguished parameter line g(t) = (t, ..., t)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.repeat(ts[:, None], self.k, axis=1)

    def mixed_grad(self, ts, order: int) -> np.ndarray:
        """d_t^order grad_y psi evaluated along (g(t), t), shape (n, k).

        Zero for order = 1..l by construction of phi; for order = l+j the
        values are the columns of the curvature block.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        mv = self.m_matrix(ts)                       # (n, k, l)
        ga = self.curve.eval_many(ts, order)[:, :self.l]   # (n, l)
        gb = self.curve.eval_many(ts, order)[:, self.l:]   # (n, k)
        return np.einsum("nkl,nl->nk", mv, ga) + gb

    def surface_measure(self, resolution: int | None = None) -> QuadMeasure:
        """Ambient measure on the graph with k-dimensional area weights."""
        resolution = self.resolution if resolution is None else resolution
        edges = np.linspace(0.0, self.extent, resolution + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        grids = np.meshgrid(*([mids] * self.k), indexing="ij")
        ys = np.column_stack([g.ravel() for g in grids])
        jac = self.jacobian(ys)  # (n, l, k)
        gram = np.eye(self.k)[None] + np.einsum("nli,nlj->nij", jac, jac)
        area = np.sqrt(np.linalg.det(gram))
        nodes = self.embed(ys)
        weights = (width**self.k) * area
        return QuadMeasure(
            self.curve.dim, nodes, weights, alpha=float(self.k),
            provenance="submanifold", max_spacing=width,
        )


def submanifold_builder(d: int, k: int, curve: Curve, extent: float = 1.0,
                        resolution: int = 24) -> SubmanifoldPatch:
    """Build the k-dimensional integral graph adapted to the curve.

    Searches coordinate permutations of the curve components until the
    leading l x l derivative block (l = d - k, derivative orders 1..l) is
    invertible on all of [0, extent]: its determinant is an exact
    polynomial, nonzero with no zero there by a Sturm count.  The
    returned patch bundles the graph maps, the ambient surface measure
    (via ``surface_measure``), and the diagonal line ``g``.
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
                         max_derivative_order=curve.max_derivative_order,
                         name=f"{curve.name}@perm{perm}")
            return SubmanifoldPatch(curve=cand, k=k, extent=extent, perm=perm,
                                    resolution=resolution)
    raise SingularMatrixError(
        "no coordinate permutation makes the leading block invertible"
    )


# ----------------------------------------------------------------------
# Monte Carlo dimension audit
# ----------------------------------------------------------------------

_BLOCK = 32                 # nodes per block of the audit's bound pass
_BOUND_CELLS = 1 << 16      # ball-block pairs per chunk of the bound pass


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
    np.sum((points - x)**2, axis=1) on row-major points.
    """
    d = a[0] - b[0]
    d2 = d * d
    for i in range(1, a.shape[0]):
        d = a[i] - b[i]
        d2 += d * d
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
            yield float(np.sum(weights[lo:hi][hit]))
        else:
            yield float(np.sum(weights[np.sort(perm[lo:hi][hit])]))


def _mass_bounds(nodes: np.ndarray, weights: np.ndarray, centers: np.ndarray,
                 radii: np.ndarray) -> np.ndarray:
    """Upper bounds on the masses _ball_masses yields for the same balls.

    The nodes are cut into index-contiguous blocks of _BLOCK, each with a
    bounding box and a mass.  A ball's bound is the mass of the blocks
    whose box it reaches, inflated to cover rounding.  The squared
    distance from the center to a box runs coordinate by coordinate, as
    _column_d2 does, on gaps no larger than the node's own; rounding is
    monotone, so a box is never past r*r while a node in it is inside.
    Each gap is clip(c, lo, hi) - c: IEEE subtraction is antisymmetric,
    so its square is that of max(lo - c, c - hi, 0) to the bit.
    """
    n = nodes.shape[0]
    firsts = np.arange(0, n, _BLOCK)
    box_lo = np.minimum.reduceat(nodes, firsts).T
    box_hi = np.maximum.reduceat(nodes, firsts).T
    block_mass = np.add.reduceat(weights, firsts)
    # The ball's mass, each block mass and a bound's sum over blocks are
    # float sums of fewer than n + _BLOCK positive terms, in whatever
    # order (BLAS included), so each is within a relative (n + _BLOCK) u
    # of its exact value (u = eps/2).  An inflation of 4 (n + _BLOCK) u
    # covers the three and the rounding of the inflation itself.
    inflate = 1.0 + 2.0 * (n + _BLOCK) * np.finfo(float).eps
    step = max(1, _BOUND_CELLS // firsts.size)
    bounds = np.empty(radii.size)
    for s in range(0, radii.size, step):
        c = centers[s:s + step].T[:, :, None]
        d2 = np.zeros((c.shape[1], firsts.size))
        for lo, hi, ci in zip(box_lo, box_hi, c):
            gap = np.clip(ci, lo, hi)
            gap -= ci
            gap *= gap
            d2 += gap
        r = radii[s:s + step, None]
        bounds[s:s + step] = (d2 <= r * r) @ block_mass
    return bounds * inflate


def _max_mass_ratio(nodes: np.ndarray, weights: np.ndarray,
                    centers: np.ndarray, radii: np.ndarray,
                    alpha: float) -> float:
    """Largest mass(B(centers[i], radii[i])) / radii[i]**alpha.

    Balls get an exact mass in decreasing order of their bound's ratio,
    and the pass stops at the first bound ratio that does not exceed the
    largest exact one: division rounds monotonically, so no ball after
    it can raise the maximum.  The result equals, bit for bit, the
    maximum over every ball of its brute-force ratio.
    """
    # the brute-force ratio's scalar power: numpy's vectorized power can
    # round differently in the last bit
    denoms = np.array([r ** alpha for r in radii])
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = _mass_bounds(nodes, weights, centers, radii) / denoms
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


def dimension_audit(mu: QuadMeasure, alpha: float, n_samples: int = 10000,
                    seed: int = 0, r_floor: float | None = None) -> float:
    """Monte Carlo check of mu(B(x, r)) <= C r^alpha.

    Samples centers near the support (random node plus jitter) and radii
    log-uniform between the floor (default 4x the minimum node spacing)
    and the support diameter; returns the largest observed mass ratio.
    alpha must be finite.  The floor must be positive; an infinite one
    means half the diameter.

    Balls are pruned by block bounds (``_mass_bounds``): only those whose
    bound can still beat the largest ratio found get an exact mass, from
    a slab-pruned pass (``_ball_masses``).  Its slabs are index ranges
    along the widest axis on which the nodes are already in order, and
    cuts of a sort along the widest axis when there is none.  Its
    distances round as the brute-force |x - c|^2 <= r^2 over every node
    does, and it sums the weights inside in node-index order, so the
    result is identical, bit for bit, to the brute-force definition.
    """
    if n_samples < 100:
        raise ValueError("n_samples >= 100 required")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if r_floor is not None and not float(r_floor) > 0:
        raise ValueError(f"r_floor must be positive, got {r_floor!r}")
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
